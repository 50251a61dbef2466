#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "analysis/analysis.hpp"
#include "bind/bind_cache.hpp"
#include "explore/allocation_enum.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "spec/compiled.hpp"

namespace perfbench {
namespace {

/// Layers fired once per candidate: aggregated, not stored per span.
bool hot(Layer layer) {
  return layer == Layer::kEnumNext || layer == Layer::kEnumDominance ||
         layer == Layer::kFlexPossible || layer == Layer::kFlexEstimate;
}

}  // namespace

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "request",           "spec.parse",       "spec.validate",
      "spec.compile",      "spec.free",        "lint.errors",
      "lint.full",         "analysis.build",   "explore",
      "allocation_enum.next", "allocation_enum.dominance",
      "flex.possible",     "flex.estimate",    "bind.implement",
      "report.json"};
  return kNames[static_cast<std::size_t>(layer)];
}

Tracer::Tracer() : origin_(Clock::now()), per_request_(1) {}

void Tracer::set_request(std::uint32_t id) {
  request_ = id;
  if (per_request_.size() <= id) per_request_.resize(id + 1);
}

void Tracer::begin(Layer layer) {
  std::int32_t record = -1;
  const Clock::time_point now = Clock::now();
  if (!hot(layer)) {
    std::int32_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it)
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    record = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{layer, request_, parent,
                          std::chrono::duration<double>(now - origin_).count(),
                          0.0});
  }
  stack_.push_back(Open{layer, now, 0.0, record});
}

void Tracer::end() {
  const Clock::time_point now = Clock::now();
  const Open open = stack_.back();
  stack_.pop_back();
  const double duration = std::chrono::duration<double>(now - open.start).count();
  if (!stack_.empty()) stack_.back().child_s += duration;
  Totals& totals = totals_[static_cast<std::size_t>(open.layer)];
  totals.total_s += duration;
  totals.self_s += duration - open.child_s;
  ++totals.count;
  if (open.record >= 0) {
    spans_[static_cast<std::size_t>(open.record)].end_s =
        std::chrono::duration<double>(now - origin_).count();
    return;
  }
  Totals& hot_totals =
      per_request_[request_][static_cast<std::size_t>(open.layer)];
  hot_totals.total_s += duration;
  hot_totals.self_s += duration - open.child_s;
  ++hot_totals.count;
}

sdf::Json Tracer::to_json() const {
  sdf::JsonArray spans;
  spans.reserve(spans_.size());
  for (const Span& s : spans_)
    spans.emplace_back(sdf::JsonObject{
        {"name", layer_name(s.layer)},
        {"request", static_cast<std::size_t>(s.request)},
        {"parent", static_cast<std::int64_t>(s.parent)},
        {"start_s", s.start_s},
        {"end_s", s.end_s}});
  sdf::JsonArray aggregates;
  for (std::size_t r = 0; r < per_request_.size(); ++r)
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      const Totals& t = per_request_[r][l];
      if (t.count == 0) continue;
      aggregates.emplace_back(sdf::JsonObject{
          {"name", layer_name(static_cast<Layer>(l))},
          {"request", r},
          {"count", static_cast<std::size_t>(t.count)},
          {"total_s", t.total_s},
          {"self_s", t.self_s}});
    }
  return sdf::Json(sdf::JsonObject{{"spans", std::move(spans)},
                                   {"aggregates", std::move(aggregates)}});
}

sdf::ExploreResult replay_explore(const sdf::SpecificationGraph& spec,
                                  const sdf::ExploreOptions& options,
                                  Tracer& tracer, ReplayCounters& counters) {
  Tracer* const t = &tracer;
  const Scope explore_span(t, Layer::kExplore);
  const auto t0 = Tracer::Clock::now();
  sdf::ExploreResult result;
  sdf::ExploreStats& stats = result.stats;
  const sdf::CompiledSpec& cs = spec.compiled();
  {
    const Scope s(t, Layer::kFlexEstimate);
    result.max_flexibility = sdf::max_flexibility(cs.problem());
  }
  stats.universe = cs.unit_count();
  stats.raw_design_points = std::pow(2.0, static_cast<double>(stats.universe));

  sdf::BudgetTracker budget(options.budget);
  sdf::ImplementationOptions eval_impl = options.implementation;
  eval_impl.solver.budget = &budget;
  sdf::BindCache bind_cache;
  if (eval_impl.use_bind_cache) eval_impl.bind_cache = &bind_cache;
  sdf::HierCache hier_cache;
  if (eval_impl.use_hier) eval_impl.hier_cache = &hier_cache;
  std::optional<sdf::SpecAnalysis> analysis;
  if (eval_impl.use_analysis) {
    const Scope s(t, Layer::kAnalysisBuild);
    analysis.emplace(cs, sdf::AnalysisOptions{eval_impl.solver});
    eval_impl.analysis = &*analysis;
  }

  double f_cur = 0.0;
  std::optional<sdf::DominanceContext> dominance;
  {
    const Scope s(t, Layer::kEnumDominance);
    dominance.emplace(cs);
  }
  std::optional<sdf::CostOrderedAllocations> stream;
  {
    const Scope s(t, Layer::kEnumNext);
    stream.emplace(cs);
  }
  if (options.use_branch_bound) {
    stream->set_branch_bound([&](const sdf::AllocSet& potential) {
      if (f_cur <= 0.0) return true;
      const Scope s(t, Layer::kFlexEstimate);
      const std::optional<double> est = sdf::estimate_flexibility(cs, potential);
      return est.has_value() && *est > f_cur;
    });
  }

  while (true) {
    std::optional<sdf::AllocSet> a;
    {
      const Scope s(t, Layer::kEnumNext);
      a = stream->next();
    }
    counters.frontier_peak =
        std::max<std::uint64_t>(counters.frontier_peak, stream->frontier_size());
    if (!a.has_value()) break;
    if (a->none()) continue;
    if (!budget.charge_allocation()) {
      stats.stop_reason = budget.reason();
      break;
    }
    ++stats.candidates_generated;

    bool dominated = false;
    if (options.prune_dominated_allocations) {
      const Scope s(t, Layer::kEnumDominance);
      dominated = sdf::obviously_dominated(cs, *dominance, *a);
    }
    if (dominated) {
      ++stats.dominated_skipped;
      continue;
    }

    std::optional<sdf::Activatability> act;
    {
      const Scope s(t, Layer::kFlexPossible);
      act.emplace(cs, *a);
    }
    if (!act->root_activatable()) continue;
    ++stats.possible_allocations;

    std::optional<double> est;
    {
      const Scope s(t, Layer::kFlexEstimate);
      est = act->estimated_flexibility();
    }
    ++stats.flexibility_estimations;
    SDF_CHECK(est.has_value(), "possible allocation without estimate");
    if (options.use_flexibility_bound && !(*est > f_cur)) {
      ++stats.bound_skipped;
      continue;
    }

    ++stats.implementation_attempts;
    sdf::ImplementationStats istats;
    std::optional<sdf::Implementation> impl;
    {
      const Scope s(t, Layer::kBindImplement);
      impl = sdf::build_implementation(cs, *a, eval_impl, &istats);
    }
    stats.solver_calls += istats.solver_calls;
    stats.solver_nodes += istats.solver_nodes;
    stats.cache_hits_feasible += istats.cache_hits_feasible;
    stats.cache_hits_infeasible += istats.cache_hits_infeasible;
    stats.cache_revalidations += istats.cache_revalidations;
    stats.analysis_pruned += istats.analysis_pruned;
    stats.hier_subsolves += istats.hier_subsolves;
    stats.hier_hits += istats.hier_hits;
    if (istats.budget_exceeded()) {
      stats.stop_reason = budget.reason();
      break;
    }
    if (!impl.has_value()) continue;
    ++counters.implementations;
    if (impl->flexibility <= f_cur) continue;
    while (!result.front.empty() && result.front.back().cost >= impl->cost)
      result.front.pop_back();
    f_cur = impl->flexibility;
    result.front.push_back(std::move(*impl));
    if (options.stop_at_max_flexibility &&
        f_cur >= result.max_flexibility - 1e-9)
      break;
  }
  stats.exhausted = stats.stop_reason == sdf::StopReason::kCompleted &&
                    (!options.stop_at_max_flexibility ||
                     f_cur < result.max_flexibility - 1e-9);
  stats.branches_pruned = stream->pruned();
  stats.frontier_remaining = stream->frontier_size();
  stats.cache_entries = bind_cache.entries() + hier_cache.entries();
  stats.flat_cache_entries = cs.flat_cache_entries();
  stats.flat_cache_evictions = cs.flat_cache_evictions();
  stats.wall_seconds =
      std::chrono::duration<double>(Tracer::Clock::now() - t0).count();

  counters.candidates += stats.candidates_generated;
  counters.dominated += stats.dominated_skipped;
  counters.possible += stats.possible_allocations;
  counters.bound_skipped += stats.bound_skipped;
  counters.implement_calls += stats.implementation_attempts;
  counters.solver_calls += stats.solver_calls;
  counters.solver_nodes += stats.solver_nodes;
  counters.cache_hits += stats.cache_hits_feasible + stats.cache_hits_infeasible;
  counters.cache_revalidations += stats.cache_revalidations;
  counters.analysis_pruned += stats.analysis_pruned;
  counters.flat_cache_evictions += stats.flat_cache_evictions;
  counters.hier_subsolves += stats.hier_subsolves;
  counters.hier_hits += stats.hier_hits;
  return result;
}

}  // namespace perfbench
