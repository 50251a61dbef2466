// Cross-allocation monotone feasibility cache for the binding solver.
//
// Binding feasibility is monotone in the allocation lattice: a binding that
// is feasible under allocation A stays feasible under every superset A' ⊇ A
// (the witness only uses units in A, and adding units or buses only adds
// communication reachability), and infeasibility under A transfers to every
// subset.  The cache exploits this by storing, per binding sub-problem, an
// antichain frontier of *minimal feasible* allocations (each with its
// witness binding) and *maximal infeasible* allocations:
//
//   * superset hit on the feasible frontier → return the cached witness
//     after a cheap O(n + edges) revalidation pass (no search);
//   * subset hit on the infeasible frontier → proof of infeasibility,
//     no search;
//   * a genuine gap falls through to the solver, whose verdict extends the
//     frontier.
//
// Budget/cancel aborts (`kBudgetExceeded` / `kCancelled` / `kNodeLimit`)
// prove nothing and are never cached.
//
// Entries and groups.  An ECA's entry is created the first time the ECA is
// seen (`pin()`): it flattens the ECA's cluster selection once through
// `CompiledSpec::flat()` and lists the ECA's ordered *terminal groups*.
// The ECA's verdict is the conjunction of its groups' verdicts and a
// feasible witness is the disjoint union of theirs.  The entry hands out
// the groups' sub-problems (`Slot::parts()`), which every later query on
// the ECA shares: the analyzer prefilter, the witness revalidation and the
// solve on a miss.
//
//   * One group — the spec does not decompose, or the caller asked for the
//     flat path.  The group's key is the ECA key, its frontier is the
//     entry's own, and its sub-problem is the ECA's flattening, pinned in
//     the entry.
//   * Decomposing specs (`CompiledSpec::hier_useful()`).
//     `CompiledSpec::build_decomposition` partitions every cluster's
//     interior into groups no solver constraint can span (see
//     `ClusterGroup`).  A single-interface group whose selected alternative
//     itself decomposes recurses into that alternative; every other group
//     is terminal and solved as one flat sub-problem, sliced out of the
//     flattening when the group is first seen.  The entry keeps only its
//     groups, not the flattening: ECAs multiply while groups add up.  A
//     terminal group's frontier is keyed by (cluster, group,
//     port-signature digest, selection restricted to the group's subtree
//     interfaces) and probed with the allocation *projected* onto
//     the group's unit share, so it is shared by every ECA that selects the
//     same sub-tree and every allocation that agrees on the group's units.
//     On specs with repeated or nested clusters this turns the
//     multiplicative ECA space into an additive sub-solve space.  Verdicts
//     equal the flat kernel's by the decomposition contract (DESIGN.md
//     "Cross-allocation binding cache"); node counts differ — that is the
//     point.
//
// Each distinct ECA is flattened at most once per cache lifetime, whatever
// the flatten cache's LRU budget; that budget only bounds the flattenings
// no entry pins.
//
// Invariants, in order of importance:
//   1. Soundness: every stored fact was proven by the solver.  This is the
//      only invariant correctness depends on.
//   2. Antichain minimality: inserts prune entries dominated by the new
//      one, keeping frontiers small.  Purely an optimization.
//
// Thread safety — sharded mutexes.  A probe scans one frontier under its
// shard lock and copies the witness out (a `Binding` copy is a
// reference-count bump, see bind/binding.hpp); revalidation and solving run
// outside the lock, and no thread ever holds two shard locks.  Frontier
// updates are build-aside-and-swap under the lock: a fault while building
// (`bind_cache.insert` / `bind_cache.merge` sites) leaves the stored
// frontier untouched.
//
// The cache is derived data: it is deliberately NOT checkpointed, and a
// resumed run starts cold and rebuilds it (see docs/ROBUSTNESS.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bind/solver.hpp"

namespace sdf {

struct ClusterGroup;

struct BindCacheStats {
  std::uint64_t hits_feasible = 0;    ///< group verdicts from a cached witness
  std::uint64_t hits_infeasible = 0;  ///< group verdicts from a cached proof
  std::uint64_t revalidations = 0;    ///< cached-witness rechecks
  std::uint64_t misses = 0;  ///< group sub-problems sent to the kernel
  std::uint64_t entries = 0;  ///< frontier entries across all groups
};

class BindCache {
 private:
  struct Shard;
  struct Node;
  struct Group;

 public:
  /// `shard_count` is clamped to at least one shard.
  explicit BindCache(std::size_t shard_count = 16);
  ~BindCache();

  BindCache(const BindCache&) = delete;
  BindCache& operator=(const BindCache&) = delete;

  /// One ECA's entry as resolved by `pin()`: valid until `clear()` or the
  /// cache's destruction.
  class Slot {
   public:
    /// The sub-problems of the ECA's groups: its flattening when it is one
    /// group, else its terminal groups' slices, which partition that
    /// flattening's vertices and edges.  Empty when the selection does not
    /// flatten (the solver would report it infeasible).
    [[nodiscard]] std::span<const CompiledFlat* const> parts() const {
      return parts_;
    }

   private:
    friend class BindCache;
    const Node* entry_ = nullptr;
    std::span<const CompiledFlat* const> parts_;
  };

  /// Resolves `eca`'s entry.  The first call for an ECA flattens it and
  /// creates the entry: split into terminal groups when `split` holds
  /// (which requires `cs.hier_useful()`), one group otherwise.  Every later
  /// call returns the same entry without touching the flatten cache.  The
  /// caller decides `split`, and must decide it the same way for every
  /// query on one ECA.
  [[nodiscard]] Slot pin(const CompiledSpec& cs, const Eca& eca, bool split);

  /// Drop-in replacement for `solve_binding`, splitting the ECA when the
  /// spec decomposes: answers each group from its
  /// frontier when the verdict is already proven, otherwise runs the solver
  /// and extends the frontier with its verdict.  Verdicts (and therefore
  /// every front/pruning decision downstream) are identical to the raw
  /// solver's; only the witness binding of a feasible hit may differ (it
  /// was found under a subset allocation and revalidated for this one).  A
  /// one-group hit shares the stored witness's assignments rather than
  /// copying them.
  ///
  /// Per-call `stats` fields (`outcome`, `aborted`) are reset exactly like
  /// `solve_binding`; cache counters accumulate — `cache_hits_*` on a
  /// one-group entry, `hier_hits` / `hier_subsolves` on a decomposed one.
  [[nodiscard]] std::optional<Binding> solve(const CompiledSpec& cs,
                                             const AllocSet& alloc,
                                             const Eca& eca,
                                             const SolverOptions& options = {},
                                             SolverStats* stats = nullptr);
  /// `solve` on an entry already resolved by `pin()` for this spec.
  [[nodiscard]] std::optional<Binding> solve(const CompiledSpec& cs,
                                             const AllocSet& alloc,
                                             const Slot& slot,
                                             const SolverOptions& options = {},
                                             SolverStats* stats = nullptr);

  /// Aggregate counters (approximate under concurrent use).
  [[nodiscard]] BindCacheStats stats() const;

  /// Total frontier entries (minimal feasible + maximal infeasible).
  [[nodiscard]] std::uint64_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }

  /// Drops every entry (frontiers, groups and pinned flattenings) and
  /// zeroes the counters.  Not safe concurrently with queries.
  void clear();

 private:
  Shard& shard_for(const std::vector<std::uint32_t>& key) const;
  /// Finds or creates the node of the terminal group `part` under `key`,
  /// slicing its sub-problem out of `full` when the node is new.
  Group group_node(std::vector<std::uint32_t> key, const CompiledFlat& full,
                   const ClusterGroup& part);
  /// One group's verdict on `view` (the allocation as the group sees it):
  /// a frontier hit, or a solve whose proven verdict extends the frontier.
  /// Sets `s.outcome` to the group's verdict.
  std::optional<Binding> solve_group(const CompiledSpec& cs,
                                     const AllocSet& view, const Group& group,
                                     const SolverOptions& options,
                                     SolverStats& s);
  void insert(const Group& group, const AllocSet& alloc,
              const Binding* witness);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_feasible_{0};
  std::atomic<std::uint64_t> hits_infeasible_{0};
  std::atomic<std::uint64_t> revalidations_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> entries_{0};
};

/// The hierarchical solve path is `BindCache` on a decomposing spec; the
/// name stays for callers that keep one cache per path.
using HierCache = BindCache;

}  // namespace sdf
