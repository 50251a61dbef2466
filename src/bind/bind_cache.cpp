#include "bind/bind_cache.hpp"

#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "spec/compiled.hpp"
#include "util/fault_injection.hpp"
#include "util/status.hpp"

namespace sdf {
namespace {

/// Canonical per-ECA key: the sorted cluster-selection pairs plus the
/// activated cluster ids.  Two ECAs with the same key flatten to the same
/// subproblem, so their frontiers are interchangeable.
using EcaKey = std::vector<std::uint32_t>;

EcaKey make_key(const Eca& eca) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> selection =
      eca.selection.key();
  EcaKey key;
  key.reserve(2 * selection.size() + eca.clusters.size() + 2);
  key.push_back(static_cast<std::uint32_t>(selection.size()));
  for (const auto& [interface_id, cluster_id] : selection) {
    key.push_back(interface_id);
    key.push_back(cluster_id);
  }
  key.push_back(static_cast<std::uint32_t>(eca.clusters.size()));
  for (const ClusterId c : eca.clusters)
    key.push_back(static_cast<std::uint32_t>(c.index()));
  return key;
}

std::size_t hash_key(const EcaKey& key) {
  // FNV-1a over the words.
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint32_t w : key) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

struct EcaKeyHash {
  std::size_t operator()(const EcaKey& key) const { return hash_key(key); }
};

struct FeasibleEntry {
  DynBitset alloc;  ///< minimal known-feasible allocation
  Binding witness;  ///< a feasible binding using only units in `alloc`
};

}  // namespace

/// One ECA's cache entry: its pinned flattening plus the antichains of
/// minimal feasible and maximal infeasible allocations.  `flat` is set when
/// the entry is created and never changes; the frontiers are guarded by the
/// shard mutex.
struct BindCache::Entry {
  std::shared_ptr<const CompiledFlat> flat;
  std::vector<FeasibleEntry> minimal_feasible;
  std::vector<DynBitset> maximal_infeasible;

  [[nodiscard]] std::size_t entry_count() const {
    return minimal_feasible.size() + maximal_infeasible.size();
  }
};

struct BindCache::Shard {
  std::mutex mutex;
  /// Node-based map: entry addresses stay valid while the map grows, so a
  /// `Slot` can keep pointing at its entry.
  std::unordered_map<EcaKey, Entry, EcaKeyHash> map;
};

BindCache::BindCache(std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

BindCache::~BindCache() = default;

BindCache::Shard& BindCache::shard_for(
    const std::vector<std::uint32_t>& key) const {
  return *shards_[hash_key(key) % shards_.size()];
}

BindCache::Slot BindCache::pin(const CompiledSpec& cs, const Eca& eca) {
  EcaKey key = make_key(eca);
  Shard& shard = shard_for(key);
  const auto slot_of = [&shard](Entry& entry) {
    Slot slot;
    slot.shard_ = &shard;
    slot.entry_ = &entry;
    slot.flat_ = entry.flat.get();
    return slot;
  };
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const auto it = shard.map.find(key); it != shard.map.end())
      return slot_of(it->second);
  }
  // First sight of this ECA: flatten outside the shard lock (the flatten
  // cache synchronizes itself).  A worker racing on the same ECA may pin
  // first; its flattening is the same memoized one and wins.
  std::shared_ptr<const CompiledFlat> flat = cs.flat(eca.selection);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto [it, inserted] = shard.map.try_emplace(std::move(key));
  if (inserted) it->second.flat = std::move(flat);
  return slot_of(it->second);
}

std::optional<Binding> BindCache::solve(const CompiledSpec& cs,
                                        const AllocSet& alloc, const Eca& eca,
                                        const SolverOptions& options,
                                        SolverStats* stats) {
  return solve(cs, alloc, pin(cs, eca), options, stats);
}

std::optional<Binding> BindCache::solve(const CompiledSpec& cs,
                                        const AllocSet& alloc,
                                        const Slot& slot,
                                        const SolverOptions& options,
                                        SolverStats* stats) {
  SolverStats local;
  SolverStats& s = stats != nullptr ? *stats : local;

  // Probe under the shard lock; the witness (if any) is copied out — a
  // reference-count bump — so the lock is never held across a revalidation
  // or a solve.
  std::optional<Binding> witness;
  {
    const std::lock_guard<std::mutex> lock(slot.shard_->mutex);
    const Entry& entry = *slot.entry_;
    for (const FeasibleEntry& fe : entry.minimal_feasible) {
      if (fe.alloc.is_subset_of(alloc)) {
        witness = fe.witness;
        break;
      }
    }
    if (!witness.has_value()) {
      for (const DynBitset& m : entry.maximal_infeasible) {
        if (alloc.is_subset_of(m)) {
          s.aborted = false;
          s.outcome = SolveOutcome::kInfeasible;
          ++s.cache_hits_infeasible;
          hits_infeasible_.fetch_add(1, std::memory_order_relaxed);
          s.cache_entries = entries();
          return std::nullopt;
        }
      }
    }
  }

  if (witness.has_value()) {
    ++s.cache_revalidations;
    revalidations_.fetch_add(1, std::memory_order_relaxed);
    if (slot.flat_ != nullptr &&
        binding_feasible_flat(cs, alloc, *slot.flat_, *witness, options)) {
      s.aborted = false;
      s.outcome = SolveOutcome::kFeasible;
      ++s.cache_hits_feasible;
      hits_feasible_.fetch_add(1, std::memory_order_relaxed);
      s.cache_entries = entries();
      return witness;
    }
    // Monotonicity guarantees revalidation cannot fail; stay sound anyway
    // by falling through to a real solve.
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  std::optional<Binding> solved;
  if (slot.flat_ != nullptr) {
    solved = solve_binding_flat(cs, alloc, *slot.flat_, options, &s);
  } else {
    // An unflattenable selection has no binding: `solve_binding`'s verdict.
    s.aborted = false;
    s.outcome = SolveOutcome::kInfeasible;
  }
  if (s.outcome == SolveOutcome::kFeasible && solved.has_value()) {
    insert_feasible(slot, alloc, *solved);
  } else if (s.outcome == SolveOutcome::kInfeasible) {
    insert_infeasible(slot, alloc);
  }
  // kNodeLimit / kBudgetExceeded / kCancelled: the solver gave up — that
  // verdict proves nothing and must never enter the frontier.
  s.cache_entries = entries();
  return solved;
}

void BindCache::insert_feasible(const Slot& slot, const AllocSet& alloc,
                                const Binding& witness) {
  SDF_FAULT_POINT("bind_cache.insert");
  const std::lock_guard<std::mutex> lock(slot.shard_->mutex);
  Entry& entry = *slot.entry_;
  // Redundancy check under the lock: a concurrent worker may have proven a
  // subset already.
  for (const FeasibleEntry& fe : entry.minimal_feasible)
    if (fe.alloc.is_subset_of(alloc)) return;
  const std::size_t old_count = entry.entry_count();
  // Keep only entries not dominated by the new one (strict supersets are no
  // longer minimal).
  std::vector<FeasibleEntry> next;
  next.reserve(entry.minimal_feasible.size() + 1);
  for (const FeasibleEntry& fe : entry.minimal_feasible)
    if (!alloc.is_subset_of(fe.alloc)) next.push_back(fe);
  next.push_back(FeasibleEntry{alloc, witness});
  SDF_FAULT_POINT("bind_cache.merge");
  entry.minimal_feasible.swap(next);
  entries_.fetch_add(entry.entry_count() - old_count,
                     std::memory_order_relaxed);
}

void BindCache::insert_infeasible(const Slot& slot, const AllocSet& alloc) {
  SDF_FAULT_POINT("bind_cache.insert");
  const std::lock_guard<std::mutex> lock(slot.shard_->mutex);
  Entry& entry = *slot.entry_;
  for (const DynBitset& m : entry.maximal_infeasible)
    if (alloc.is_subset_of(m)) return;
  const std::size_t old_count = entry.entry_count();
  std::vector<DynBitset> next;
  next.reserve(entry.maximal_infeasible.size() + 1);
  for (const DynBitset& m : entry.maximal_infeasible)
    if (!m.is_subset_of(alloc)) next.push_back(m);
  next.push_back(alloc);
  SDF_FAULT_POINT("bind_cache.merge");
  entry.maximal_infeasible.swap(next);
  entries_.fetch_add(entry.entry_count() - old_count,
                     std::memory_order_relaxed);
}

// ---- HierCache --------------------------------------------------------------

namespace {

/// Cache key of one terminal group under one ECA: cluster id, group index,
/// the group's static port-signature digest, and the cluster selection
/// restricted to the group's subtree interfaces (which fully determines the
/// group's flat sub-problem).
using GroupKey = std::vector<std::uint32_t>;

GroupKey make_group_key(ClusterId cluster, std::uint32_t group_index,
                        const ClusterGroup& group, const Eca& eca) {
  GroupKey key;
  key.reserve(6 + 2 * group.subtree_interfaces.count());
  key.push_back(static_cast<std::uint32_t>(cluster.index()));
  key.push_back(group_index);
  key.push_back(static_cast<std::uint32_t>(group.signature));
  key.push_back(static_cast<std::uint32_t>(group.signature >> 32));
  const std::size_t restriction_slot = key.size();
  key.push_back(0);  // patched below: number of restricted selection pairs
  std::uint32_t pairs = 0;
  for (const auto& [iface, cl] : eca.selection.key()) {
    if (!group.subtree_interfaces.test(iface)) continue;
    key.push_back(iface);
    key.push_back(cl);
    ++pairs;
  }
  key[restriction_slot] = pairs;
  return key;
}

/// One terminal group of the recursive decomposition of an ECA.
struct TerminalGroup {
  ClusterId cluster;
  std::uint32_t index = 0;  ///< position in the cluster's decomposition
  const ClusterGroup* group = nullptr;
};

/// Walks the decomposition under `eca.selection`: single-interface groups
/// whose selected alternative itself decomposes recurse into it; everything
/// else is terminal.  The terminal groups' subtree node sets partition the
/// active leaves of the flattening.
void collect_terminal_groups(const CompiledSpec& cs, const Eca& eca,
                             ClusterId cluster,
                             std::vector<TerminalGroup>& out) {
  const ClusterDecomposition& d = cs.decomposition(cluster);
  for (std::size_t gi = 0; gi < d.groups.size(); ++gi) {
    const ClusterGroup& g = d.groups[gi];
    if (g.single_interface) {
      const ClusterId alt = eca.selection.selected(g.items[0]);
      if (alt.valid() && cs.decomposition(alt).useful) {
        collect_terminal_groups(cs, eca, alt, out);
        continue;
      }
    }
    out.push_back(TerminalGroup{cluster, static_cast<std::uint32_t>(gi), &g});
  }
}

/// The group's slice of a full flattening: the vertices, edges and dense
/// attribute arrays restricted to `nodes`.  The decomposition contract
/// guarantees no flat edge crosses the slice boundary.
std::shared_ptr<const CompiledFlat> slice_flat(const CompiledFlat& full,
                                               const DynBitset& nodes) {
  auto sub = std::make_shared<CompiledFlat>();
  sub->index_of.assign(full.index_of.size(), CompiledFlat::npos);
  for (const NodeId v : full.graph.vertices) {
    if (!nodes.test(v.index())) continue;
    sub->index_of[v.index()] = sub->graph.vertices.size();
    sub->graph.vertices.push_back(v);
    const std::size_t fi = full.index_of[v.index()];
    sub->demand.push_back(full.demand[fi]);
    sub->footprint.push_back(full.footprint[fi]);
  }
  sub->adj.resize(sub->graph.vertices.size());
  for (const auto& [from, to] : full.graph.edges) {
    const bool in_from = nodes.test(from.index());
    const bool in_to = nodes.test(to.index());
    SDF_CHECK(in_from == in_to, "flat edge crosses a decomposition group");
    if (!in_from) continue;
    sub->graph.edges.emplace_back(from, to);
    const std::size_t i = sub->index_of[from.index()];
    const std::size_t j = sub->index_of[to.index()];
    sub->adj[i].push_back(j);
    if (j != i) sub->adj[j].push_back(i);
  }
  for (const ClusterId c : full.graph.active_clusters)
    sub->graph.active_clusters.push_back(c);
  for (const NodeId i : full.graph.active_interfaces)
    if (nodes.test(i.index())) sub->graph.active_interfaces.push_back(i);
  return sub;
}

/// The allocation as one terminal group sees it: its own unit share, plus —
/// under the one-hop model — every communication unit (bus reachability is
/// the only way a foreign unit can influence a group-local verdict).  Under
/// kAnyPath routes may thread through arbitrary allocated units, so the
/// projection is the identity.
AllocSet project_alloc(const CompiledSpec& cs, const AllocSet& alloc,
                       const ClusterGroup& group,
                       const SolverOptions& options) {
  if (options.comm_model == CommModel::kAnyPath) return alloc;
  AllocSet proj = group.subtree_units;
  if (options.comm_model == CommModel::kOneHopBus) proj |= cs.comm_units();
  proj &= alloc;
  return proj;
}

struct HierFeasibleEntry {
  DynBitset alloc;  ///< minimal known-feasible *projected* allocation
  Binding witness;  ///< feasible sub-binding over the group's processes
};

struct GroupEntry {
  /// The group's flat sub-problem (fixed by the key's restricted
  /// selection); sliced once, shared by every probe.
  std::shared_ptr<const CompiledFlat> sub_flat;
  std::vector<HierFeasibleEntry> minimal_feasible;
  std::vector<DynBitset> maximal_infeasible;

  [[nodiscard]] std::size_t entry_count() const {
    return minimal_feasible.size() + maximal_infeasible.size();
  }
};

}  // namespace

struct HierCache::Shard {
  std::mutex mutex;
  std::unordered_map<GroupKey, GroupEntry, EcaKeyHash> map;
};

HierCache::HierCache(std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

HierCache::~HierCache() = default;

HierCache::Shard& HierCache::shard_for(
    const std::vector<std::uint32_t>& key) const {
  return *shards_[hash_key(key) % shards_.size()];
}

std::optional<Binding> HierCache::solve(const CompiledSpec& cs,
                                        const AllocSet& alloc, const Eca& eca,
                                        const SolverOptions& options,
                                        SolverStats* stats) {
  SolverStats local;
  SolverStats& s = stats != nullptr ? *stats : local;
  s.aborted = false;
  s.outcome = SolveOutcome::kInfeasible;

  // The memoized flattening is still consulted once — it decides
  // flattenability exactly like the flat path and is the substrate terminal
  // groups are sliced from on a miss.  What the hierarchical path never does
  // is *search* the flat problem as a whole.
  const std::shared_ptr<const CompiledFlat> full = cs.flat(eca.selection);
  if (full == nullptr) {
    s.cache_entries = entries();
    return std::nullopt;
  }

  std::vector<TerminalGroup> terminals;
  collect_terminal_groups(cs, eca, cs.problem().root(), terminals);

  Binding combined;
  for (const TerminalGroup& t : terminals) {
    const ClusterGroup& g = *t.group;
    GroupKey key = make_group_key(t.cluster, t.index, g, eca);
    Shard& shard = shard_for(key);
    const AllocSet proj = project_alloc(cs, alloc, g, options);

    // Probe under the shard lock; the witness (if any) is copied out so the
    // lock is never held across a revalidation or a solve.
    std::shared_ptr<const CompiledFlat> sub_flat;
    std::optional<Binding> cached_witness;
    bool proven_infeasible = false;
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      if (const auto it = shard.map.find(key); it != shard.map.end()) {
        const GroupEntry& entry = it->second;
        sub_flat = entry.sub_flat;
        for (const HierFeasibleEntry& fe : entry.minimal_feasible) {
          if (fe.alloc.is_subset_of(proj)) {
            cached_witness = fe.witness;
            break;
          }
        }
        if (!cached_witness.has_value()) {
          for (const DynBitset& m : entry.maximal_infeasible) {
            if (proj.is_subset_of(m)) {
              proven_infeasible = true;
              break;
            }
          }
        }
      }
    }

    if (proven_infeasible) {
      // One infeasible group refutes the whole ECA; later groups are never
      // touched (the flat kernel would have searched across all of them).
      ++s.hier_hits;
      hits_infeasible_.fetch_add(1, std::memory_order_relaxed);
      s.cache_entries = entries();
      s.outcome = SolveOutcome::kInfeasible;
      return std::nullopt;
    }

    if (cached_witness.has_value()) {
      ++s.cache_revalidations;
      revalidations_.fetch_add(1, std::memory_order_relaxed);
      if (binding_feasible_flat(cs, proj, *sub_flat, *cached_witness,
                                options)) {
        ++s.hier_hits;
        hits_feasible_.fetch_add(1, std::memory_order_relaxed);
        for (const BindingAssignment& a : cached_witness->assignments())
          combined.assign(a);
        continue;
      }
      // Monotonicity guarantees revalidation cannot fail; stay sound anyway
      // by falling through to a real sub-solve.
    }

    if (sub_flat == nullptr) sub_flat = slice_flat(*full, g.subtree_nodes);

    ++s.hier_subsolves;
    subsolves_.fetch_add(1, std::memory_order_relaxed);
    SolverStats gs;
    const std::optional<Binding> solved =
        solve_binding_flat(cs, proj, *sub_flat, options, &gs);
    s.nodes += gs.nodes;
    s.backtracks += gs.backtracks;

    if (gs.outcome == SolveOutcome::kFeasible && solved.has_value()) {
      insert_group(shard, std::move(key), sub_flat, proj, *solved,
                   /*feasible=*/true);
      for (const BindingAssignment& a : solved->assignments())
        combined.assign(a);
      continue;
    }
    if (gs.outcome == SolveOutcome::kInfeasible) {
      insert_group(shard, std::move(key), sub_flat, proj, Binding{},
                   /*feasible=*/false);
      s.cache_entries = entries();
      s.outcome = SolveOutcome::kInfeasible;
      return std::nullopt;
    }
    // Budget / cancel / node-limit: proves nothing, cache nothing.
    s.aborted = true;
    s.outcome = gs.outcome;
    s.cache_entries = entries();
    return std::nullopt;
  }

  s.cache_entries = entries();
  s.outcome = SolveOutcome::kFeasible;
  return combined;
}

void HierCache::insert_group(Shard& shard, std::vector<std::uint32_t> key,
                             const std::shared_ptr<const CompiledFlat>& flat,
                             const AllocSet& proj, const Binding& witness,
                             bool feasible) {
  SDF_FAULT_POINT("hier_cache.insert");
  // Build the extended frontier aside, then swap it in: a fault while
  // building leaves the published entry untouched.
  const std::lock_guard<std::mutex> lock(shard.mutex);
  GroupEntry& entry = shard.map[key];
  if (entry.sub_flat == nullptr) entry.sub_flat = flat;
  const std::size_t old_count = entry.entry_count();
  if (feasible) {
    for (const HierFeasibleEntry& fe : entry.minimal_feasible)
      if (fe.alloc.is_subset_of(proj)) return;  // already implied
    std::vector<HierFeasibleEntry> next;
    next.reserve(entry.minimal_feasible.size() + 1);
    for (const HierFeasibleEntry& fe : entry.minimal_feasible)
      if (!proj.is_subset_of(fe.alloc)) next.push_back(fe);
    next.push_back(HierFeasibleEntry{proj, witness});
    SDF_FAULT_POINT("hier_cache.merge");
    entry.minimal_feasible.swap(next);
  } else {
    for (const DynBitset& m : entry.maximal_infeasible)
      if (proj.is_subset_of(m)) return;
    std::vector<DynBitset> next;
    next.reserve(entry.maximal_infeasible.size() + 1);
    for (const DynBitset& m : entry.maximal_infeasible)
      if (!m.is_subset_of(proj)) next.push_back(m);
    next.push_back(proj);
    SDF_FAULT_POINT("hier_cache.merge");
    entry.maximal_infeasible.swap(next);
  }
  entries_.fetch_add(entry.entry_count() - old_count,
                     std::memory_order_relaxed);
}

HierCacheStats HierCache::stats() const {
  HierCacheStats out;
  out.subsolves = subsolves_.load(std::memory_order_relaxed);
  out.hits_feasible = hits_feasible_.load(std::memory_order_relaxed);
  out.hits_infeasible = hits_infeasible_.load(std::memory_order_relaxed);
  out.revalidations = revalidations_.load(std::memory_order_relaxed);
  out.entries = entries_.load(std::memory_order_relaxed);
  return out;
}

void HierCache::clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->map.clear();
  }
  subsolves_.store(0, std::memory_order_relaxed);
  hits_feasible_.store(0, std::memory_order_relaxed);
  hits_infeasible_.store(0, std::memory_order_relaxed);
  revalidations_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
}

BindCacheStats BindCache::stats() const {
  BindCacheStats out;
  out.hits_feasible = hits_feasible_.load(std::memory_order_relaxed);
  out.hits_infeasible = hits_infeasible_.load(std::memory_order_relaxed);
  out.revalidations = revalidations_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.entries = entries_.load(std::memory_order_relaxed);
  return out;
}

void BindCache::clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->map.clear();
  }
  hits_feasible_.store(0, std::memory_order_relaxed);
  hits_infeasible_.store(0, std::memory_order_relaxed);
  revalidations_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
}

}  // namespace sdf
