// Cross-allocation monotone feasibility cache for the binding solver.
//
// Binding feasibility is monotone in the allocation lattice: a binding that
// is feasible under allocation A stays feasible under every superset A' ⊇ A
// (the witness only uses units in A, and adding units or buses only adds
// communication reachability), and infeasibility under A transfers to every
// subset.  The cache exploits this by storing, per ECA, a frontier of
// *minimal feasible* allocations (each with its witness binding) and
// *maximal infeasible* allocations:
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
// Invariants, in order of importance:
//   1. Soundness: every stored fact was proven by the solver.  This is the
//      only invariant correctness depends on.
//   2. Antichain minimality: inserts prune entries dominated by the new
//      one, keeping frontiers small.  Purely an optimization.
//
// Pinned flattening.  Each ECA's entry also holds the flattening of its
// cluster selection, fetched from `CompiledSpec::flat()` the first time the
// ECA is seen (`pin()`) and shared by every later query on it: the analyzer
// prefilter, the witness revalidation and the solve on a miss.  Each
// distinct ECA is therefore flattened at most once per cache lifetime,
// whatever the flatten cache's LRU budget; that budget only bounds the
// flattenings no entry pins.  The pinned flattenings are the entries' own
// data, not a second cache: they live exactly as long as the frontiers.
//
// Thread safety — sharded mutexes, like `HierCache`.  A probe scans the
// frontier under the shard lock and copies the witness out (a `Binding`
// copy is a reference-count bump, see bind/binding.hpp); revalidation and
// solving run outside the lock.  Frontier updates are build-aside-and-swap
// under the lock: a fault while building leaves the stored frontier
// untouched.
//
// The cache is derived data: it is deliberately NOT checkpointed, and a
// resumed run starts cold and rebuilds it (see docs/ROBUSTNESS.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bind/solver.hpp"

namespace sdf {

struct BindCacheStats {
  std::uint64_t hits_feasible = 0;
  std::uint64_t hits_infeasible = 0;
  std::uint64_t revalidations = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;  ///< total frontier entries across all ECAs
};

struct HierCacheStats {
  std::uint64_t subsolves = 0;        ///< group sub-problems sent to the kernel
  std::uint64_t hits_feasible = 0;    ///< group verdicts from a cached witness
  std::uint64_t hits_infeasible = 0;  ///< group verdicts from a cached proof
  std::uint64_t revalidations = 0;    ///< cached-witness rechecks
  std::uint64_t entries = 0;  ///< frontier entries across all group keys
};

/// Hierarchical solve path: per-cluster-group sub-solve memoization.
///
/// `CompiledSpec::build_decomposition` partitions every cluster's interior
/// into groups no solver constraint can span (disjoint dependence edges,
/// mappable units and reconfigurable devices — see `ClusterGroup`).  The
/// binding verdict of an ECA is therefore the conjunction of its *terminal
/// groups'* verdicts, and a feasible witness is the disjoint union of the
/// groups' witnesses.  Terminal groups are found by recursion: a
/// single-interface group whose selected alternative itself decomposes
/// recurses into that alternative; every other group is solved as one flat
/// sub-problem (sliced out of the memoized flattening).
///
/// Each group's sub-result is memoized as the same minimal-feasible /
/// maximal-infeasible antichain frontier the per-ECA `BindCache` keeps —
/// but keyed by (cluster, group, port-signature digest, selection restricted
/// to the group's subtree interfaces) and probed with the allocation
/// *projected* onto the group's unit share, so the sub-result is reused
/// across every ECA that selects the same sub-tree and every allocation
/// that agrees on the group's units (the "residual-capacity class").  On
/// specs with repeated or deeply nested clusters this turns the
/// multiplicative ECA space into an additive sub-solve space.
///
/// Verdict-identical to the flat kernel by the decomposition contract
/// (DESIGN.md "Hierarchy-native solving"); node counts differ — that is the
/// point.  Budget/cancel/node-limit aborts are never cached.  Sharded
/// mutexes; witness copies happen under the shard lock, frontier updates
/// are build-aside-and-swap.  Like `BindCache` this is derived data and is
/// deliberately not checkpointed.
class HierCache {
 public:
  /// `shard_count` is clamped to at least one shard.
  explicit HierCache(std::size_t shard_count = 16);
  ~HierCache();

  HierCache(const HierCache&) = delete;
  HierCache& operator=(const HierCache&) = delete;

  /// Drop-in replacement for `solve_binding` on specs where
  /// `cs.hier_useful()` holds; the caller is expected to fall back to the
  /// flat path (or `BindCache`) otherwise.  Per-call `stats` fields are
  /// reset exactly like `solve_binding`; cumulative counters (including
  /// `hier_subsolves` / `hier_hits`) accumulate.
  [[nodiscard]] std::optional<Binding> solve(const CompiledSpec& cs,
                                             const AllocSet& alloc,
                                             const Eca& eca,
                                             const SolverOptions& options = {},
                                             SolverStats* stats = nullptr);

  /// Aggregate counters (approximate under concurrent use).
  [[nodiscard]] HierCacheStats stats() const;

  /// Total frontier entries (minimal feasible + maximal infeasible).
  [[nodiscard]] std::uint64_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }

  /// Drops every group frontier and zeroes the counters.
  void clear();

 private:
  struct Shard;

  Shard& shard_for(const std::vector<std::uint32_t>& key) const;
  void insert_group(Shard& shard, std::vector<std::uint32_t> key,
                    const std::shared_ptr<const CompiledFlat>& flat,
                    const AllocSet& proj, const Binding& witness,
                    bool feasible);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> subsolves_{0};
  std::atomic<std::uint64_t> hits_feasible_{0};
  std::atomic<std::uint64_t> hits_infeasible_{0};
  std::atomic<std::uint64_t> revalidations_{0};
  std::atomic<std::uint64_t> entries_{0};
};

class BindCache {
 private:
  struct Shard;
  struct Entry;

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
    /// The ECA's pinned flattening; null when its selection does not
    /// flatten (the solver would report it infeasible).
    [[nodiscard]] const CompiledFlat* flat() const { return flat_; }

   private:
    friend class BindCache;
    Shard* shard_ = nullptr;
    Entry* entry_ = nullptr;
    const CompiledFlat* flat_ = nullptr;
  };

  /// Resolves `eca`'s entry.  The first call for an ECA creates the entry
  /// and pins `cs.flat(eca.selection)` in it; every later call returns the
  /// pinned flattening without touching the flatten cache.
  [[nodiscard]] Slot pin(const CompiledSpec& cs, const Eca& eca);

  /// Drop-in replacement for `solve_binding`: answers from the frontier
  /// when the verdict is already proven, otherwise runs the solver and
  /// extends the frontier with its verdict.  Verdicts (and therefore every
  /// front/pruning decision downstream) are identical to the raw solver's;
  /// only the witness binding of a feasible hit may differ (it was found
  /// under a subset allocation and revalidated for this one).  A feasible
  /// hit shares the stored witness's assignments rather than copying them.
  ///
  /// Per-call `stats` fields (`outcome`, `aborted`) are reset exactly like
  /// `solve_binding`; cache counters accumulate.
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

  /// Drops every entry (frontiers and pinned flattenings) and zeroes the
  /// counters.  Not safe concurrently with queries.
  void clear();

 private:
  Shard& shard_for(const std::vector<std::uint32_t>& key) const;
  void insert_feasible(const Slot& slot, const AllocSet& alloc,
                       const Binding& witness);
  void insert_infeasible(const Slot& slot, const AllocSet& alloc);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_feasible_{0};
  std::atomic<std::uint64_t> hits_infeasible_{0};
  std::atomic<std::uint64_t> revalidations_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> entries_{0};
};

}  // namespace sdf
