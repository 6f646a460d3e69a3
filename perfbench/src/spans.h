// In-memory spans for the traced mode: each span has a name, a start, an
// end and the span that was open when it began. Written out at the end as
// a Chrome trace (one "X" event per span; the parent id rides in args).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Spans {
 public:
  /// Opens a span under the innermost open one; returns its id.
  int begin(const std::string& name);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);

  /// Closes the span it opened when it goes out of scope.
  class Scope {
   public:
    Scope(Spans& spans, const std::string& name)
        : spans_(spans), id_(spans.begin(name)) {}
    ~Scope() { spans_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

  /// Duration in ns of a closed span.
  std::int64_t duration_ns(int id) const;

  std::size_t size() const { return spans_.size(); }

  /// Trace Event Format JSON: {"traceEvents":[...]} with ts/dur in us.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    int name = 0;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  int intern(const std::string& name);

  std::vector<std::string> names_;
  std::unordered_map<std::string, int> name_ids_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
