// Shared fixtures and helpers for the test suite.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "plane/engine.h"
#include "sim/program.h"

namespace ants::testing {

/// A strategy that replays a fixed op list, then "parks" by shuttling
/// between the source and (-1,-1) forever. Parking advances the simulation
/// clock (so finite engine bounds terminate promptly) while only touching
/// nodes in the tiny third-quadrant square {0,-1}^2 — keep test treasures
/// out of there.
class ScriptedStrategy final : public sim::Strategy {
 public:
  explicit ScriptedStrategy(std::vector<sim::Op> ops) : ops_(std::move(ops)) {}

  std::string name() const override { return "scripted"; }

  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext /*ctx*/) const override {
    class Program final : public sim::AgentProgram {
     public:
      explicit Program(std::vector<sim::Op> ops) : ops_(std::move(ops)) {}
      sim::Op next(rng::Rng& /*rng*/) override {
        if (pos_ < ops_.size()) return ops_[pos_++];
        park_out_ = !park_out_;
        if (park_out_) return sim::GoTo{grid::Point{-1, -1}};
        return sim::ReturnToSource{};
      }

     private:
      std::vector<sim::Op> ops_;  // owned: programs outlive their strategy
      std::size_t pos_ = 0;
      bool park_out_ = false;
    };
    return std::make_unique<Program>(ops_);
  }

 private:
  std::vector<sim::Op> ops_;
};

/// A strategy whose per-agent scripts differ (indexed by agent).
class PerAgentScriptedStrategy final : public sim::Strategy {
 public:
  explicit PerAgentScriptedStrategy(std::vector<std::vector<sim::Op>> scripts)
      : scripts_(std::move(scripts)) {}

  std::string name() const override { return "per-agent-scripted"; }

  std::unique_ptr<sim::AgentProgram> make_program(
      sim::AgentContext ctx) const override {
    const auto& script =
        scripts_[static_cast<std::size_t>(ctx.agent_index) % scripts_.size()];
    ScriptedStrategy wrapper{script};
    return wrapper.make_program(ctx);
  }

 private:
  std::vector<std::vector<sim::Op>> scripts_;
};

/// Replays a fixed plane op list per agent (indexed by agent, modulo the
/// number of scripts), then shuttles between home and (-5, -5) forever.
class PerAgentScriptedPlaneStrategy final : public plane::PlaneStrategy {
 public:
  explicit PerAgentScriptedPlaneStrategy(
      std::vector<std::vector<plane::PlaneOp>> ops)
      : ops_(std::move(ops)) {}
  std::string name() const override { return "per-agent-scripted-plane"; }
  std::unique_ptr<plane::PlaneAgentProgram> make_program(
      int agent, int) const override {
    class P final : public plane::PlaneAgentProgram {
     public:
      explicit P(std::vector<plane::PlaneOp> ops) : ops_(std::move(ops)) {}
      plane::PlaneOp next(rng::Rng&) override {
        if (i_ < ops_.size()) return ops_[i_++];
        out_ = !out_;
        if (out_) return plane::GoToPoint{plane::Vec2{-5.0, -5.0}};
        return plane::ReturnHome{};
      }

     private:
      std::vector<plane::PlaneOp> ops_;
      std::size_t i_ = 0;
      bool out_ = false;
    };
    return std::make_unique<P>(ops_[static_cast<std::size_t>(agent) %
                                    ops_.size()]);
  }

 private:
  std::vector<std::vector<plane::PlaneOp>> ops_;
};

}  // namespace ants::testing
