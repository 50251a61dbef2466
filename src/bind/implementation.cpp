#include "bind/implementation.hpp"

#include <algorithm>

#include "analysis/analysis.hpp"
#include "bind/bind_cache.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "spec/compiled.hpp"

namespace sdf {

std::vector<ClusterId> Implementation::leaf_clusters(
    const HierarchicalGraph& problem) const {
  std::vector<ClusterId> out;
  implemented_clusters.for_each([&](std::size_t i) {
    const Cluster& c = problem.cluster(ClusterId{i});
    if (c.is_root()) return;
    for (NodeId nid : c.nodes)
      if (problem.node(nid).is_interface()) return;
    out.push_back(c.id);
  });
  return out;
}

std::vector<Eca> Implementation::minimal_cover(
    const HierarchicalGraph& problem) const {
  std::vector<Eca> feasible;
  feasible.reserve(ecas.size());
  for (const FeasibleEca& fe : ecas) feasible.push_back(fe.eca);
  return cover_ecas(problem, feasible);
}

std::optional<Implementation> build_implementation(
    const CompiledSpec& cs, const AllocSet& alloc,
    const ImplementationOptions& options, ImplementationStats* stats) {
  ImplementationStats local;
  ImplementationStats& st = stats != nullptr ? *stats : local;

  const Activatability act(cs, alloc);
  if (!act.root_activatable()) return std::nullopt;

  const std::vector<Eca> ecas =
      enumerate_ecas(cs.problem(), act.clusters(), options.eca_limit);
  st.ecas_enumerated += ecas.size();
  if (ecas.empty()) return std::nullopt;

  Implementation impl;
  impl.units = alloc;
  impl.cost = cs.allocation_cost(alloc);
  impl.implemented_clusters = cs.problem().make_cluster_set();

  const SpecAnalysis* analysis =
      options.use_analysis ? options.analysis : nullptr;
  // The hierarchical path engages only when the spec actually decomposes;
  // otherwise the flat path runs unchanged (bit-identical stats).
  HierCache* hier = options.use_hier && cs.hier_useful()
                        ? options.hier_cache
                        : nullptr;

  BindCache* const cache = hier == nullptr ? options.bind_cache : nullptr;

  for (const Eca& eca : ecas) {
    SolverStats ss;
    // `solver_calls` counts *queries*, not searches — it stays invariant
    // under the cache and under this prefilter, so checkpointed counters
    // and pinned test expectations are unaffected.
    ++st.solver_calls;
    // One flattening per query, shared by the prefilter and the solve.  The
    // bind cache pins it in the ECA's entry, so each distinct ECA is
    // flattened once per run whatever the flatten cache's LRU budget.
    BindCache::Slot slot;
    std::shared_ptr<const CompiledFlat> fetched;
    const CompiledFlat* flat = nullptr;
    if (cache != nullptr) {
      slot = cache->pin(cs, eca);
      flat = slot.flat();
    } else {
      fetched = cs.flat(eca.selection);
      flat = fetched.get();
    }
    if (analysis != nullptr && flat != nullptr &&
        analysis->eca_infeasible(alloc, *flat)) {
      // Sound proof: the solver would return kInfeasible.  Same verdict,
      // zero nodes searched.
      ++st.analysis_pruned;
      continue;
    }
    std::optional<Binding> binding;
    if (hier != nullptr) {
      binding = hier->solve(cs, alloc, eca, options.solver, &ss);
    } else if (cache != nullptr) {
      binding = cache->solve(cs, alloc, slot, options.solver, &ss);
    } else if (flat != nullptr) {
      // A selection that does not flatten has no binding; `ss` already
      // holds that verdict (kInfeasible, not aborted).
      binding = solve_binding_flat(cs, alloc, *flat, options.solver, &ss);
    }
    st.solver_nodes += ss.nodes;
    st.cache_hits_feasible += ss.cache_hits_feasible;
    st.cache_hits_infeasible += ss.cache_hits_infeasible;
    st.cache_revalidations += ss.cache_revalidations;
    st.hier_subsolves += ss.hier_subsolves;
    st.hier_hits += ss.hier_hits;
    if (ss.outcome == SolveOutcome::kBudgetExceeded ||
        ss.outcome == SolveOutcome::kCancelled) {
      // The budget is gone: remaining ECAs would abort the same way, and a
      // partial ECA set would understate the implemented flexibility.  Bail
      // out; the caller sees `budget_exceeded()` and treats the whole
      // allocation as abandoned, never as infeasible.
      ++st.budget_aborted_calls;
      return std::nullopt;
    }
    if (!binding.has_value()) continue;
    for (ClusterId c : eca.clusters)
      impl.implemented_clusters.set(c.index());
    impl.ecas.push_back(FeasibleEca{eca, std::move(*binding)});
  }

  if (impl.ecas.empty()) return std::nullopt;
  impl.flexibility = flexibility(cs.problem(), impl.implemented_clusters);
  return impl;
}

std::optional<Implementation> build_implementation(
    const SpecificationGraph& spec, const AllocSet& alloc,
    const ImplementationOptions& options, ImplementationStats* stats) {
  return build_implementation(spec.compiled(), alloc, options, stats);
}

}  // namespace sdf
