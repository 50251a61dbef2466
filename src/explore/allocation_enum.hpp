// Enumeration of resource allocations in increasing cost order (§4).
//
// The EXPLORE algorithm inspects "the elements of the set of possible
// resource allocations [...] in order of increasing allocation costs".
// `CostOrderedAllocations` is a lazy stream over all subsets of the
// allocatable-unit universe, ascending by cost (ties broken by
// lexicographic unit order, which makes runs deterministic).  A branch
// bound supplied by the caller prunes whole subtrees whose optimistic
// flexibility can no longer beat the incumbent.
//
// `obviously_dominated` implements the §5 filter ("elements that are
// obviously not Pareto-optimal [...] are left out"): allocations with a
// dangling bus (fewer than two allocated endpoints) or a functional unit no
// process can ever map to are dominated by the same allocation without that
// unit.  `DominanceContext` runs the test on packed member words, so the
// stream's `next_undominated` drops such subsets before they ever become
// an `AllocSet`; EXPLORE draws through it, and only the survivors reach a
// band slot.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "spec/specification.hpp"

namespace sdf {

class CompiledSpec;
struct DominanceContext;

/// Serializable snapshot of a `CostOrderedAllocations` stream: the frontier
/// states still awaiting expansion plus the emit/prune counters.  Restoring
/// a cursor resumes the enumeration bit-identically — the (cost, lex)
/// comparator is a total order over subsets, so the pop sequence does not
/// depend on the heap's internal layout.  Snapshots are kept sorted so the
/// serialized form is canonical (diffable, hashable).
struct EnumCursor {
  struct State {
    double cost = 0.0;
    std::vector<std::uint32_t> members;  ///< ascending unit indices
    std::uint32_t max_index = 0;         ///< last added unit (or ~0 sentinel)
  };
  std::vector<State> frontier;
  std::uint64_t emitted = 0;
  std::uint64_t pruned = 0;
};

class CostOrderedAllocations {
 public:
  explicit CostOrderedAllocations(const CompiledSpec& cs);
  explicit CostOrderedAllocations(const SpecificationGraph& spec);

  /// Variant with a frozen base: every emitted allocation contains `base`,
  /// only units outside `base` are added, and the enumeration order is by
  /// *incremental* cost (the added units only).  Used by the incremental
  /// explorer to search platform upgrades.
  CostOrderedAllocations(const CompiledSpec& cs, AllocSet base);
  CostOrderedAllocations(const SpecificationGraph& spec, AllocSet base);

  /// Optional subtree bound.  Called with the optimistic completion of a
  /// stream state — the emitted subset plus every unit that could still be
  /// added; returning false prunes all descendants of that state.
  using BranchBound = std::function<bool(const AllocSet& potential)>;
  void set_branch_bound(BranchBound keep) { keep_ = std::move(keep); }

  /// Next subset in (cost, lex) order; nullopt when exhausted.  The first
  /// emitted subset is the empty allocation.
  [[nodiscard]] std::optional<AllocSet> next();

  /// `next()` with the §5 filter applied inside the stream: pops in the
  /// same (cost, lex) order, calls the branch bound exactly as `next()`
  /// does, and returns the first popped subset `ctx` does not reject.  Each
  /// popped subset is judged with scope = its added units and adjacency in
  /// base ∪ added — the whole allocation without a base, only the upgrade
  /// with one (the deployed platform is a sunk cost).  Rejected subsets are
  /// never materialized; `skipped` receives how many were dropped.  Stops
  /// after `max_skipped` of them and returns nullopt, as it does when the
  /// stream runs dry (`frontier_size() == 0` tells the two apart).
  [[nodiscard]] std::optional<AllocSet> next_undominated(
      const DominanceContext& ctx, std::uint64_t max_skipped,
      std::uint64_t& skipped);

  /// Subsets emitted so far.
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  /// Subtrees pruned by the branch bound so far.
  [[nodiscard]] std::uint64_t pruned() const { return pruned_; }

  /// Frontier states awaiting expansion.  Every not-yet-emitted subset is a
  /// descendant of exactly one frontier state, so `frontier_size() == 0`
  /// means the stream is exhausted.
  [[nodiscard]] std::size_t frontier_size() const { return size_; }
  /// Cost of the next subset `next()` would emit; nullopt when exhausted.
  [[nodiscard]] std::optional<double> peek_cost() const;

  /// Checkpoint support: snapshots / restores the enumeration state.  A
  /// stream restored from `cursor()` continues exactly where the source
  /// stream stood (same emit order, same counters).  The branch bound is
  /// NOT part of the cursor; re-set it after restoring.  `restore` reads
  /// each state's `cost` and `members`; `max_index` is implied by them.
  [[nodiscard]] EnumCursor cursor() const;
  void restore(const EnumCursor& cursor);

 private:
  // The frontier is one flat buffer of fixed-stride entries
  // `[cost][W member words]` with W = max(1, ceil(units / 64)), kept as a
  // kArity-ary min-heap under the (cost, lex) order of `less`.  An
  // entry's last added unit is its highest member bit.
  static constexpr std::size_t kArity = 4;

  [[nodiscard]] std::uint64_t* entry(std::size_t i) {
    return heap_.data() + i * stride_;
  }
  [[nodiscard]] const std::uint64_t* entry(std::size_t i) const {
    return heap_.data() + i * stride_;
  }
  [[nodiscard]] bool less(const std::uint64_t* a, const std::uint64_t* b) const;
  /// Pops the least entry into `popped_` and pushes its children unless the
  /// branch bound prunes them; false when the stream is exhausted.
  bool pop();
  void push(const std::uint64_t* e);
  /// Fills the hole at `i` with `e`, moving smaller children up.
  void sift_down(std::size_t i, const std::uint64_t* e);
  [[nodiscard]] AllocSet to_set(const std::uint64_t* e) const;

  AllocSet base_;
  std::vector<double> unit_cost_;
  std::size_t words_ = 1;   ///< W
  std::size_t stride_ = 2;  ///< 1 + W
  std::size_t size_ = 0;    ///< entries in heap_
  std::vector<std::uint64_t> heap_;
  std::vector<std::uint64_t> popped_;  ///< scratch: the entry being expanded
  std::vector<std::uint64_t> child_;   ///< scratch: the entry being pushed
  /// The base as W words; empty without a base (an entry is then the whole
  /// allocation).
  std::vector<std::uint64_t> base_words_;
  std::vector<std::uint64_t> alloc_;   ///< scratch: base ∪ popped members
  AllocSet potential_;                 ///< scratch: the branch bound's input
  BranchBound keep_;
  std::uint64_t emitted_ = 0;
  std::uint64_t pruned_ = 0;
};

/// The §5 dominance filter as W-word masks (W = ceil(units / 64)),
/// precomputed once per specification: which functional units no process
/// can map to, which units are buses, and for each bus one mask per
/// distinct adjacent top-level architecture node that hosts functional
/// units (a potential bus endpoint).  The test itself is a few word
/// operations and allocates nothing.  All exploration engines build one of
/// these up front and reuse it for every candidate.
struct DominanceContext {
  explicit DominanceContext(const CompiledSpec& cs);
  explicit DominanceContext(const SpecificationGraph& spec);

  /// The §5 test on packed member words (`words` words each): true iff a
  /// unit of `alloc ∩ scope` is a functional unit no process maps to, or a
  /// bus with fewer than two endpoint masks meeting `alloc`.
  [[nodiscard]] bool dominated(const std::uint64_t* alloc,
                               const std::uint64_t* scope) const;

  std::size_t words = 0;
  std::vector<std::uint64_t> unmappable;  ///< unmappable functional units
  std::vector<std::uint64_t> comm;        ///< communication units
  /// Bus u's endpoint masks are entries [endpoint_begin[u],
  /// endpoint_begin[u + 1]) of `endpoints`, W words each: the functional
  /// units on one adjacent top node.
  std::vector<std::uint32_t> endpoint_begin;
  std::vector<std::uint64_t> endpoints;
};

/// §5 dominance filter; see file comment.  When `scope` is non-null only
/// the units in `scope` are examined (adjacency is always judged in the
/// full allocation) — upgrade exploration uses this to exempt the
/// already-deployed platform, which is a sunk cost.  A thin call into
/// `DominanceContext::dominated`.
[[nodiscard]] bool obviously_dominated(const CompiledSpec& cs,
                                       const DominanceContext& ctx,
                                       const AllocSet& alloc,
                                       const AllocSet* scope = nullptr);
[[nodiscard]] bool obviously_dominated(const SpecificationGraph& spec,
                                       const DominanceContext& ctx,
                                       const AllocSet& alloc,
                                       const AllocSet* scope = nullptr);

/// Convenience overload that rebuilds the context per call; prefer the
/// context form anywhere more than one candidate is filtered.
[[nodiscard]] bool obviously_dominated(const SpecificationGraph& spec,
                                       const AllocSet& alloc,
                                       const AllocSet* scope = nullptr);

/// Eagerly enumerates every *possible resource allocation* (allocations
/// admitting at least one complete problem activation by reachability,
/// §4), ascending by cost.  Exponential in the universe — intended for the
/// paper-sized examples; aborts via SDF_CHECK above `max_universe` units.
[[nodiscard]] std::vector<AllocSet> enumerate_possible_allocations(
    const CompiledSpec& cs, bool apply_dominance_filter = false,
    std::size_t max_universe = 24);
[[nodiscard]] std::vector<AllocSet> enumerate_possible_allocations(
    const SpecificationGraph& spec, bool apply_dominance_filter = false,
    std::size_t max_universe = 24);

}  // namespace sdf
