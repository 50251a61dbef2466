#include "explore/exhaustive.hpp"

#include <algorithm>
#include <chrono>

#include "bind/bind_cache.hpp"
#include "moo/pareto.hpp"
#include "spec/compiled.hpp"

namespace sdf {

ExhaustiveResult explore_exhaustive(const SpecificationGraph& spec,
                                    const ImplementationOptions& options,
                                    std::size_t max_universe,
                                    const RunBudget& budget) {
  const CompiledSpec& cs = spec.compiled();
  const std::size_t n = cs.unit_count();
  SDF_CHECK(n <= max_universe, "universe too large for exhaustive search");

  const auto t0 = std::chrono::steady_clock::now();
  ExhaustiveResult result;

  BudgetTracker tracker(budget);
  ImplementationOptions eval = options;
  eval.solver.budget = &tracker;
  BindCache cache;
  if (eval.use_bind_cache && eval.bind_cache == nullptr)
    eval.bind_cache = &cache;
  if (eval.use_hier && eval.hier_cache == nullptr)
    eval.hier_cache = &cache;

  std::vector<Implementation> feasible;
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    if (!tracker.charge_allocation()) {
      result.stats.stop_reason = tracker.reason();
      break;
    }
    ++result.stats.subsets;
    AllocSet a = cs.make_alloc_set();
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (std::uint64_t{1} << i)) a.set(i);

    ++result.stats.implementation_attempts;
    ImplementationStats istats;
    std::optional<Implementation> impl =
        build_implementation(cs, a, eval, &istats);
    result.stats.solver_calls += istats.solver_calls;
    if (istats.budget_exceeded()) {
      // Unknown outcome, not infeasible: the subset never joins `feasible`
      // and the sweep winds down.
      ++result.stats.budget_abandoned;
      result.stats.stop_reason = tracker.reason();
      break;
    }
    if (impl.has_value()) feasible.push_back(std::move(*impl));
  }

  // Non-dominated filtering on (cost, 1/flexibility).
  std::vector<ParetoPoint> points;
  points.reserve(feasible.size());
  for (std::size_t i = 0; i < feasible.size(); ++i)
    points.push_back(
        ParetoPoint{feasible[i].cost, 1.0 / feasible[i].flexibility, i});
  for (const ParetoPoint& p : pareto_front(std::move(points)))
    result.front.push_back(feasible[p.tag]);
  std::sort(result.front.begin(), result.front.end(),
            [](const Implementation& a, const Implementation& b) {
              return a.cost < b.cost;
            });

  const auto t1 = std::chrono::steady_clock::now();
  result.stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

}  // namespace sdf
