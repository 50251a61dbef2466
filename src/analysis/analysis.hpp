// Abstract interpretation over specification graphs (static analysis).
//
// The binding problem is NP-complete and EXPLORE may issue thousands of
// solver queries; this module computes *sound* summaries of a specification
// without ever invoking the solver, by abstract interpretation over the
// hierarchy and the compiled dense arrays:
//
//  * **Cost intervals per cluster** — for every problem-graph cluster c,
//    bounds [lo, hi] on `opt(c)`: the cheapest allocation cost that makes c
//    activatable (reachability semantics, Activatability's definition).
//    Computed bottom-up on the hierarchy — min over alternatives, disjoint
//    cover groups over a cluster's own vertices — never by flattening.
//    `hi` is realized by a concrete witness allocation; `hi_cover` is the
//    analogous budget for covering *every* alternative of the subtree.
//
//  * **Resource-capacity relaxation** — a fractional packing bound over the
//    dense demand/footprint arrays that proves an (allocation, activation)
//    pair infeasible before any search: empty candidate domains, per-unit
//    packing of forced assignments, aggregate footprint vs. total capacity,
//    aggregate utilization vs. the schedulability bound, exclusive
//    configurations among forced units.
//
//  * **Comm-reachability closure** — an over-approximation of rule 3: which
//    unit pairs could *ever* communicate (full allocation), and whether a
//    dependence edge admits any communicating candidate pair at all.
//
// Soundness contract: every "infeasible" verdict of the relaxation is a
// proof — the solver would return kInfeasible for the same query (the
// relaxation checks necessary conditions of the solver's constraint system,
// evaluated with at least the solver's epsilon slack).  The relaxation is
// also *monotone* in the allocation lattice: a verdict for allocation A
// holds for every subset of A, which makes it a valid subtree bound for the
// cost-ordered allocation stream.  Bounds assume non-negative cost
// attributes (negative costs are an SDF012 lint error); negative costs are
// clamped to zero, which keeps `lo` sound but may loosen it.
//
// Consumers: lint rules SDF017-SDF021, the ECA prefilter in
// `build_implementation` (skips provably-infeasible solver queries without
// changing fronts, solver_calls or any checkpointed counter), the opt-in
// `use_analysis_bound` stream bound, and the `sdf analyze` CLI subcommand.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

// Header-only uses: SolverOptions (option vocabulary shared with the
// solver) and Eca.  sdf_analysis does NOT link sdf_bind — the prefilter
// call sites live in sdf_bind, which links this library.
#include "bind/eca.hpp"
#include "bind/solver.hpp"
#include "spec/compiled.hpp"
#include "spec/specification.hpp"
#include "util/json.hpp"

namespace sdf {

struct AnalysisOptions {
  /// The solver option set the relaxation must under-approximate: comm
  /// model, utilization bound, exclusive configurations, capacities.  A
  /// prefilter is only sound against solver queries issued with the *same*
  /// options; engines build their run-local analysis from the options they
  /// solve with.
  SolverOptions solver;
};

/// Cost interval of one problem-graph cluster (see file comment).
struct ClusterBounds {
  /// Lower bound on the cost of any allocation activating the cluster;
  /// +inf when no allocation can (the cluster is reachability-dead).
  double lo = 0.0;
  /// Cost of `witness`, a concrete allocation activating the cluster;
  /// +inf when none exists.  Invariant: lo <= opt <= hi.
  double hi = std::numeric_limits<double>::infinity();
  /// Cost of `witness_cover`, a concrete allocation activating *every*
  /// alternative in the cluster's subtree (the budget for the subtree's
  /// full flexibility); +inf when some alternative is unreachable.
  double hi_cover = std::numeric_limits<double>::infinity();
  /// Witness allocations backing `hi` / `hi_cover`; empty-universe sets
  /// when the corresponding bound is infinite.
  AllocSet witness;
  AllocSet witness_cover;

  /// True iff some allocation activates the cluster at all.
  [[nodiscard]] bool reachable() const {
    return hi != std::numeric_limits<double>::infinity();
  }
};

/// Whole-spec static analysis; immutable after construction, safe to share
/// across threads (all queries are const and allocate only local scratch).
class SpecAnalysis {
 public:
  /// Builds every summary in one pass over the hierarchy.  `cs` must
  /// outlive the instance.
  explicit SpecAnalysis(const CompiledSpec& cs,
                        const AnalysisOptions& options = {});

  [[nodiscard]] const CompiledSpec& compiled() const { return cs_; }
  [[nodiscard]] const AnalysisOptions& options() const { return options_; }

  // ---- cost intervals -------------------------------------------------------

  [[nodiscard]] const ClusterBounds& bounds(ClusterId cluster) const {
    return bounds_[cluster.index()];
  }
  [[nodiscard]] const ClusterBounds& root_bounds() const {
    return bounds_[cs_.problem().root().index()];
  }

  /// Cost of covering every alternative of the whole problem graph except
  /// the subtree rooted at `skip` (lint SDF017 compares an alternative's
  /// `lo` against the rest of the spec); +inf when the remainder itself has
  /// an unreachable alternative.
  [[nodiscard]] double cover_cost_excluding(ClusterId skip) const;

  // ---- communication closure ------------------------------------------------

  /// True iff units `a` and `b` could communicate under *some* allocation
  /// (evaluated under the full allocation — comm feasibility is monotone).
  /// Always true under CommModel::kAnyPath (conservatively not analyzed).
  [[nodiscard]] bool comm_possible(AllocUnitId a, AllocUnitId b) const;

  /// True iff a dependence edge between processes `p` and `q` admits at
  /// least one candidate unit pair that could ever communicate.  False is a
  /// proof that every binding activating both endpoints violates rule 3.
  [[nodiscard]] bool edge_comm_satisfiable(NodeId p, NodeId q) const;

  // ---- relaxation (the pruning oracle) --------------------------------------

  /// Proof attempt for one solver query: true means the solver would return
  /// kInfeasible for (alloc, eca) under `options().solver` — the caller may
  /// skip the search.  False proves nothing.
  [[nodiscard]] bool eca_infeasible(const AllocSet& alloc,
                                    const Eca& eca) const;
  /// The same proof attempt on the ECA's flattening, for callers that
  /// already hold it (the binding cache pins one per ECA).
  [[nodiscard]] bool eca_infeasible(const AllocSet& alloc,
                                    const CompiledFlat& flat) const;

  /// ECA-independent form over the mandatory core (processes active in
  /// *every* elementary activation): true proves no activation of the
  /// problem graph has a feasible binding under `alloc` — and, by
  /// monotonicity, under any subset of `alloc`.  Valid as a
  /// `CostOrderedAllocations` branch bound on optimistic completions.
  [[nodiscard]] bool allocation_infeasible(const AllocSet& alloc) const;

  /// Relaxation over the mandatory core of `cluster`'s own subtree (its
  /// vertices plus, recursively, those behind single-alternative
  /// interfaces) under the *full* allocation: true proves every activation
  /// containing `cluster` is infeasible under every allocation — adding
  /// processes or removing units only adds constraints.  Lint SDF018.
  [[nodiscard]] bool cluster_core_infeasible(ClusterId cluster) const;

  // ---- mandatory core -------------------------------------------------------

  /// Processes active in every elementary activation: the root cluster's
  /// vertices plus, recursively, the vertices behind single-alternative
  /// interfaces.  Ascending node order.
  [[nodiscard]] const std::vector<NodeId>& mandatory_processes() const {
    return mandatory_procs_;
  }
  /// Dependence edges with both endpoints in the mandatory core.
  [[nodiscard]] const std::vector<std::pair<NodeId, NodeId>>&
  mandatory_edges() const {
    return mandatory_edges_;
  }

  // ---- reporting ------------------------------------------------------------

  /// {"spec", "clusters": [{cluster, lo, hi, hi_cover, reachable,
  /// witness_units}...], "front_provably_empty", "mandatory_processes",
  /// "comm_unsatisfiable_edges"}.
  [[nodiscard]] Json to_json() const;

  /// Human-readable per-cluster bound table.
  [[nodiscard]] std::string to_table() const;

 private:
  struct VertexDomain;  // scratch view of one process's live candidates

  void compute_bounds(ClusterId cluster);
  void compute_mandatory_core();
  /// Collects the mandatory core of `cluster`'s subtree: processes active
  /// whenever `cluster` is, and the clusters visited on the way.
  void collect_core(ClusterId cluster, std::vector<NodeId>& procs,
                    std::vector<ClusterId>& visited) const;
  /// Shared relaxation kernel over an explicit process set; `edges` holds
  /// index pairs into `procs`.
  [[nodiscard]] bool relaxation_infeasible(
      const AllocSet& alloc, const std::vector<NodeId>& procs,
      const std::vector<double>& demand, const std::vector<double>& footprint,
      const std::vector<std::pair<std::size_t, std::size_t>>& edges) const;

  const CompiledSpec& cs_;
  AnalysisOptions options_;
  std::vector<ClusterBounds> bounds_;  // by problem ClusterId
  AllocSet full_alloc_;                // every unit set
  std::vector<NodeId> mandatory_procs_;
  std::vector<std::pair<NodeId, NodeId>> mandatory_edges_;
  // Dense copies for the mandatory core, index-aligned with
  // `mandatory_procs_`; edge pairs as indices into it.
  std::vector<double> mandatory_demand_;
  std::vector<double> mandatory_footprint_;
  std::vector<std::pair<std::size_t, std::size_t>> mandatory_edge_idx_;
};

}  // namespace sdf
