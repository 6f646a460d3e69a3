#include "spans.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common.h"

namespace perfbench {

int Spans::intern(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  names_.push_back(name);
  const int id = static_cast<int>(names_.size()) - 1;
  name_ids_.emplace(name, id);
  return id;
}

int Spans::begin(const std::string& name) {
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Spans::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::int64_t Spans::duration_ns(int id) const {
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return s.end_ns - s.start_ns;
}

void Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",";
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    const std::string& name = names_[static_cast<std::size_t>(s.name)];
    out << "{\"name\":\"" << json_escape(name) << "\"," << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
