// In-memory span tracer and the traced replay of explore().
//
// With a tracer, `serve()` (requests.hpp) opens a span around every layer
// call of the request pipeline -- spec_from_string, validate, compiled,
// lint_errors, SpecAnalysis, explore_result_to_json -- and explores through
// `replay_explore()`, which makes the calls `explore()` makes
// (CostOrderedAllocations with the branch bound, obviously_dominated,
// Activatability / estimate_flexibility, build_implementation with
// run-local BindCache/HierCache) with a span around each.  Spans are kept
// in memory and written out when the run ends.  Per-candidate layers
// (stream next, dominance, activatability, estimate) fire millions of times
// on enum-heavy specs, so they are aggregated per (request, layer) instead
// of being stored one by one.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "explore/explorer.hpp"
#include "util/json.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kRequest,        ///< root span of one request; self time = glue
  kSpecParse,      ///< streaming JSON parse + schema reader
  kSpecValidate,   ///< SpecificationGraph::validate
  kSpecCompile,    ///< CompiledSpec build
  kSpecFree,       ///< teardown of the spec and its caches
  kLintErrors,     ///< lint_errors preflight
  kLintFull,       ///< full lint registry
  kAnalysisBuild,  ///< SpecAnalysis (preflight and explore's own)
  kExplore,        ///< replayed explore() body; self time = loop glue
  kEnumNext,       ///< CostOrderedAllocations::next (+ its set-up)
  kEnumDominance,  ///< obviously_dominated (+ DominanceContext)
  kFlexPossible,   ///< Activatability / root_activatable
  kFlexEstimate,   ///< estimated_flexibility, branch-bound estimates
  kBindImplement,  ///< build_implementation
  kReportJson,     ///< report serialisation
  kCount
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// "spec.parse", "bind.implement", ...
[[nodiscard]] const char* layer_name(Layer layer);

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Totals {
    double total_s = 0.0;  ///< summed span durations
    double self_s = 0.0;   ///< durations minus time covered by child spans
    std::uint64_t count = 0;
  };
  /// One stored span; times are seconds since the tracer was created.
  struct Span {
    Layer layer;
    std::uint32_t request;
    std::int32_t parent;  ///< index of the nearest stored ancestor, or -1
    double start_s;
    double end_s;
  };

  Tracer();

  void set_request(std::uint32_t id);
  void begin(Layer layer);
  void end();

  [[nodiscard]] const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Stored spans plus the per-(request, layer) aggregates of the hot
  /// layers.
  [[nodiscard]] sdf::Json to_json() const;

 private:
  struct Open {
    Layer layer;
    Clock::time_point start;
    double child_s;
    std::int32_t record;  ///< index into spans_, or -1 for hot layers
  };
  Clock::time_point origin_;
  std::uint32_t request_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  /// Per request, the totals of the hot layers (the others are in spans_).
  std::vector<std::array<Totals, kLayerCount>> per_request_;
  std::array<Totals, kLayerCount> totals_{};
};

/// RAII span; does nothing without a tracer.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// Work counters of the traced replay, summed over its requests
/// (`frontier_peak`: the largest over them).
struct ReplayCounters {
  std::uint64_t parse_bytes = 0;
  std::uint64_t lint_diagnostics = 0;
  std::uint64_t candidates = 0;
  std::uint64_t frontier_peak = 0;
  std::uint64_t dominated = 0;
  std::uint64_t possible = 0;
  std::uint64_t bound_skipped = 0;
  std::uint64_t implement_calls = 0;
  std::uint64_t implementations = 0;
  std::uint64_t solver_calls = 0;
  std::uint64_t solver_nodes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_revalidations = 0;
  std::uint64_t analysis_pruned = 0;
  std::uint64_t flat_cache_evictions = 0;
  std::uint64_t hier_subsolves = 0;
  std::uint64_t hier_hits = 0;
};

/// The body of explore() (explore/explorer.cpp) for a fresh run: same
/// calls, same order, same acceptance rules, with a span around each layer
/// call.  Resume and checkpointing are left out; a budget stop sets
/// `stats.stop_reason`.  Its front must equal explore()'s.
[[nodiscard]] sdf::ExploreResult replay_explore(
    const sdf::SpecificationGraph& spec, const sdf::ExploreOptions& options,
    Tracer& tracer, ReplayCounters& counters);

}  // namespace perfbench
