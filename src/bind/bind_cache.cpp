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

/// Canonical node key.  The first word says what the node is: an ECA
/// solved as one group, an ECA split into terminal groups, or one terminal
/// group shared by every ECA that selects the same sub-tree.
using Key = std::vector<std::uint32_t>;
constexpr std::uint32_t kOneGroupEca = 0;
constexpr std::uint32_t kSplitEca = 1;
constexpr std::uint32_t kGroup = 2;

using SelectionKey = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// An ECA's key: the sorted cluster-selection pairs plus the activated
/// cluster ids.  Two ECAs with the same key flatten to the same
/// sub-problem, so their frontiers are interchangeable.
Key make_eca_key(const Eca& eca, bool split) {
  const SelectionKey selection = eca.selection.key();
  Key key;
  key.reserve(2 * selection.size() + eca.clusters.size() + 3);
  key.push_back(split ? kSplitEca : kOneGroupEca);
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

/// A terminal group's key: cluster id, group index, the group's static
/// port-signature digest, and the cluster selection restricted to the
/// group's subtree interfaces (which fully determines the group's flat
/// sub-problem).
Key make_group_key(ClusterId cluster, std::uint32_t group_index,
                   const ClusterGroup& group, const SelectionKey& selection) {
  Key key;
  key.reserve(7 + 2 * group.subtree_interfaces.count());
  key.push_back(kGroup);
  key.push_back(static_cast<std::uint32_t>(cluster.index()));
  key.push_back(group_index);
  key.push_back(static_cast<std::uint32_t>(group.signature));
  key.push_back(static_cast<std::uint32_t>(group.signature >> 32));
  const std::size_t restriction_slot = key.size();
  key.push_back(0);  // patched below: number of restricted selection pairs
  std::uint32_t pairs = 0;
  for (const auto& [iface, cl] : selection) {
    if (!group.subtree_interfaces.test(iface)) continue;
    key.push_back(iface);
    key.push_back(cl);
    ++pairs;
  }
  key[restriction_slot] = pairs;
  return key;
}

std::size_t hash_key(const Key& key) {
  // FNV-1a over the words.
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint32_t w : key) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

struct KeyHash {
  std::size_t operator()(const Key& key) const { return hash_key(key); }
};

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

/// Antichain frontier of one binding sub-problem: the minimal allocations
/// proven feasible (each with its witness) and the maximal ones proven
/// infeasible.  Guarded by the owning shard's mutex.
struct Frontier {
  struct Feasible {
    DynBitset alloc;  ///< minimal known-feasible allocation
    Binding witness;  ///< a feasible binding using only units in `alloc`
  };
  std::vector<Feasible> minimal_feasible;
  std::vector<DynBitset> maximal_infeasible;

  [[nodiscard]] std::size_t size() const {
    return minimal_feasible.size() + maximal_infeasible.size();
  }

  /// A stored witness proven under a subset of `alloc`, or null.
  [[nodiscard]] const Binding* witness_for(const AllocSet& alloc) const {
    for (const Feasible& fe : minimal_feasible)
      if (fe.alloc.is_subset_of(alloc)) return &fe.witness;
    return nullptr;
  }

  /// True when `alloc` lies below a proven-infeasible allocation.
  [[nodiscard]] bool refutes(const AllocSet& alloc) const {
    for (const DynBitset& m : maximal_infeasible)
      if (alloc.is_subset_of(m)) return true;
    return false;
  }

  /// Records a proven verdict on `alloc` (`witness` null = infeasible).
  /// The extended antichain is built aside, then swapped in, so a fault
  /// while building leaves the frontier untouched.
  void add(const AllocSet& alloc, const Binding* witness) {
    if (witness != nullptr) {
      // Redundancy check under the lock: a concurrent worker may have
      // proven a subset already.
      if (witness_for(alloc) != nullptr) return;
      // Keep only entries not dominated by the new one (strict supersets
      // are no longer minimal).
      std::vector<Feasible> next;
      next.reserve(minimal_feasible.size() + 1);
      for (const Feasible& fe : minimal_feasible)
        if (!alloc.is_subset_of(fe.alloc)) next.push_back(fe);
      next.push_back(Feasible{alloc, *witness});
      SDF_FAULT_POINT("bind_cache.merge");
      minimal_feasible.swap(next);
    } else {
      if (refutes(alloc)) return;
      std::vector<DynBitset> next;
      next.reserve(maximal_infeasible.size() + 1);
      for (const DynBitset& m : maximal_infeasible)
        if (!m.is_subset_of(alloc)) next.push_back(m);
      next.push_back(alloc);
      SDF_FAULT_POINT("bind_cache.merge");
      maximal_infeasible.swap(next);
    }
  }
};

}  // namespace

/// One group of an ECA: the node holding its frontier and sub-problem, and
/// the decomposition group its allocation view is projected onto (null for
/// a one-group ECA, which sees the whole allocation).
struct BindCache::Group {
  Shard* shard = nullptr;  ///< guards `node->frontier`
  Node* node = nullptr;
  const ClusterGroup* part = nullptr;
};

/// A cache node: one binding sub-problem and its frontier.  A terminal
/// group's node holds its slice of a flattening in `flat`.  An ECA node
/// lists its groups and their sub-problems in `parts`; a one-group ECA's
/// only group is the node itself, with the ECA's flattening pinned in
/// `flat`.  Everything but the frontier is set before the node is published
/// and never changes; the frontier is guarded by the shard mutex.
struct BindCache::Node {
  std::shared_ptr<const CompiledFlat> flat;
  Frontier frontier;
  std::vector<Group> groups;
  std::vector<const CompiledFlat*> parts;
};

struct BindCache::Shard {
  std::mutex mutex;
  /// Node-based map: node addresses stay valid while the map grows, so
  /// slots and groups can keep pointing at their nodes.
  std::unordered_map<Key, Node, KeyHash> map;
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

BindCache::Group BindCache::group_node(std::vector<std::uint32_t> key,
                                       const CompiledFlat& full,
                                       const ClusterGroup& part) {
  Shard& shard = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const auto it = shard.map.find(key); it != shard.map.end())
      return Group{&shard, &it->second, &part};
  }
  // Slice outside the lock; a racing worker's identical slice may win.
  std::shared_ptr<const CompiledFlat> sub =
      slice_flat(full, part.subtree_nodes);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto [it, inserted] = shard.map.try_emplace(std::move(key));
  if (inserted) it->second.flat = std::move(sub);
  return Group{&shard, &it->second, &part};
}

BindCache::Slot BindCache::pin(const CompiledSpec& cs, const Eca& eca,
                               bool split) {
  Key key = make_eca_key(eca, split);
  Shard& shard = shard_for(key);
  Slot slot;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
      slot.entry_ = &it->second;
      slot.parts_ = it->second.parts;
      return slot;
    }
  }
  // First sight of this ECA: flatten and split it outside the shard lock
  // (the flatten cache synchronizes itself, and each group node is found or
  // created under its own shard's lock).  A worker racing on the same ECA
  // may publish first; its entry is equivalent and wins.
  Node fresh;
  std::shared_ptr<const CompiledFlat> flat = cs.flat(eca.selection);
  if (split && flat != nullptr) {
    std::vector<TerminalGroup> terminals;
    collect_terminal_groups(cs, eca, cs.problem().root(), terminals);
    const SelectionKey selection = eca.selection.key();
    fresh.groups.reserve(terminals.size());
    for (const TerminalGroup& t : terminals) {
      fresh.groups.push_back(group_node(
          make_group_key(t.cluster, t.index, *t.group, selection), *flat,
          *t.group));
      fresh.parts.push_back(fresh.groups.back().node->flat.get());
    }
  } else if (flat != nullptr) {
    fresh.parts.push_back(flat.get());
    fresh.flat = std::move(flat);
  }
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto [it, inserted] =
      shard.map.try_emplace(std::move(key), std::move(fresh));
  Node& node = it->second;
  // An unsplit ECA (or one with an unflattenable selection) is its own
  // single group.
  if (inserted && node.groups.empty())
    node.groups.push_back(Group{&shard, &node, nullptr});
  slot.entry_ = &node;
  slot.parts_ = node.parts;
  return slot;
}

std::optional<Binding> BindCache::solve(const CompiledSpec& cs,
                                        const AllocSet& alloc, const Eca& eca,
                                        const SolverOptions& options,
                                        SolverStats* stats) {
  return solve(cs, alloc, pin(cs, eca, cs.hier_useful()), options, stats);
}

std::optional<Binding> BindCache::solve(const CompiledSpec& cs,
                                        const AllocSet& alloc,
                                        const Slot& slot,
                                        const SolverOptions& options,
                                        SolverStats* stats) {
  SolverStats local;
  SolverStats& s = stats != nullptr ? *stats : local;
  s.aborted = false;
  const std::vector<Group>& groups = slot.entry_->groups;
  if (groups.front().part == nullptr) {
    // One group: the whole ECA under the whole allocation.
    std::optional<Binding> got = solve_group(cs, alloc, groups.front(),
                                             options, s);
    s.cache_entries = entries();
    return got;
  }

  Binding combined;
  AllocSet projected;
  for (const Group& g : groups) {
    // The allocation as this group sees it: its own unit share, plus —
    // under the one-hop model — every communication unit (bus reachability
    // is the only way a foreign unit can influence a group-local verdict).
    // Under kAnyPath routes may thread through arbitrary allocated units,
    // so the view is the whole allocation.
    const AllocSet* view = &alloc;
    if (options.comm_model != CommModel::kAnyPath) {
      projected = g.part->subtree_units;
      if (options.comm_model == CommModel::kOneHopBus)
        projected |= cs.comm_units();
      projected &= alloc;
      view = &projected;
    }
    std::optional<Binding> got = solve_group(cs, *view, g, options, s);
    if (!got.has_value()) {
      // One infeasible (or abandoned) group decides the whole ECA; later
      // groups are never touched.
      s.cache_entries = entries();
      return std::nullopt;
    }
    // Groups own disjoint processes: the witness is their union.  The first
    // group's witness is shared, not copied.
    if (combined.size() == 0) {
      combined = std::move(*got);
    } else {
      for (const BindingAssignment& a : got->assignments()) combined.assign(a);
    }
  }
  s.cache_entries = entries();
  return combined;
}

std::optional<Binding> BindCache::solve_group(const CompiledSpec& cs,
                                              const AllocSet& view,
                                              const Group& g,
                                              const SolverOptions& options,
                                              SolverStats& s) {
  const bool split = g.part != nullptr;
  // Probe under the shard lock; the witness (if any) is copied out — a
  // reference-count bump — so the lock is never held across a revalidation
  // or a solve.
  std::optional<Binding> witness;
  bool refuted = false;
  {
    const std::lock_guard<std::mutex> lock(g.shard->mutex);
    const Frontier& frontier = g.node->frontier;
    if (const Binding* w = frontier.witness_for(view)) {
      witness = *w;
    } else {
      refuted = frontier.refutes(view);
    }
  }
  if (refuted) {
    ++(split ? s.hier_hits : s.cache_hits_infeasible);
    hits_infeasible_.fetch_add(1, std::memory_order_relaxed);
    s.outcome = SolveOutcome::kInfeasible;
    return std::nullopt;
  }

  const CompiledFlat* sub = g.node->flat.get();
  if (witness.has_value()) {
    ++s.cache_revalidations;
    revalidations_.fetch_add(1, std::memory_order_relaxed);
    if (sub != nullptr &&
        binding_feasible_flat(cs, view, *sub, *witness, options)) {
      ++(split ? s.hier_hits : s.cache_hits_feasible);
      hits_feasible_.fetch_add(1, std::memory_order_relaxed);
      s.outcome = SolveOutcome::kFeasible;
      return witness;
    }
    // Monotonicity guarantees revalidation cannot fail; stay sound anyway
    // by falling through to a real solve.
  }

  if (split) ++s.hier_subsolves;
  misses_.fetch_add(1, std::memory_order_relaxed);
  std::optional<Binding> solved;
  if (sub == nullptr) {
    // An unflattenable selection has no binding: `solve_binding`'s verdict.
    s.outcome = SolveOutcome::kInfeasible;
  } else if (!split) {
    solved = solve_binding_flat(cs, view, *sub, options, &s);
  } else {
    // Each group is its own search: the caller's stats only accumulate its
    // work.
    SolverStats ks;
    solved = solve_binding_flat(cs, view, *sub, options, &ks);
    s.nodes += ks.nodes;
    s.backtracks += ks.backtracks;
    s.outcome = ks.outcome;
    s.aborted = ks.aborted;
  }
  if (s.outcome == SolveOutcome::kFeasible) {
    insert(g, view, &*solved);
  } else if (s.outcome == SolveOutcome::kInfeasible) {
    insert(g, view, nullptr);
  }
  // kNodeLimit / kBudgetExceeded / kCancelled: the solver gave up — that
  // verdict proves nothing and must never enter the frontier.
  return solved;
}

void BindCache::insert(const Group& group, const AllocSet& alloc,
                       const Binding* witness) {
  SDF_FAULT_POINT("bind_cache.insert");
  const std::lock_guard<std::mutex> lock(group.shard->mutex);
  Frontier& frontier = group.node->frontier;
  const std::size_t old_count = frontier.size();
  frontier.add(alloc, witness);
  entries_.fetch_add(frontier.size() - old_count, std::memory_order_relaxed);
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
