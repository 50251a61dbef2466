// Tests for the EXPLORE algorithm and its baselines.
//
// The anchor is the paper's case study (§5): the Set-Top box specification
// has exactly six Pareto-optimal implementations —
//   ($100,2) ($120,3) ($230,4) ($290,5) ($360,7) ($430,8)
// with the published resource and cluster sets.  EXPLORE must find exactly
// that front, and the exhaustive baseline must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "explore/allocation_enum.hpp"
#include "explore/evolutionary.hpp"
#include "explore/exhaustive.hpp"
#include "explore/explorer.hpp"
#include "explore/uncertain.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "moo/indicators.hpp"
#include "spec/builder.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "util/strings.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

std::string cluster_names(const SpecificationGraph& spec,
                          const Implementation& impl) {
  std::vector<std::string> names;
  for (ClusterId c : impl.leaf_clusters(spec.problem()))
    names.push_back(spec.problem().cluster(c).name);
  return join(names, ", ");
}

// ---- allocation enumeration ------------------------------------------------------

TEST(CostOrderedAllocations, EmitsInNonDecreasingCost) {
  const SpecificationGraph& spec = settop();
  CostOrderedAllocations stream(spec);
  double last = -1.0;
  for (int i = 0; i < 500; ++i) {
    const auto a = stream.next();
    ASSERT_TRUE(a.has_value());
    const double cost = spec.allocation_cost(*a);
    EXPECT_GE(cost, last - 1e-9);
    last = cost;
  }
}

TEST(CostOrderedAllocations, EnumeratesEverySubsetOnce) {
  const SpecificationGraph& spec = models::make_tv_decoder_spec();  // 7 units
  CostOrderedAllocations stream(spec);
  std::set<std::string> seen;
  while (const auto a = stream.next()) seen.insert(a->to_string());
  EXPECT_EQ(seen.size(), std::size_t{1} << 7);
}

TEST(CostOrderedAllocations, BranchBoundPrunesSubtrees) {
  const SpecificationGraph& spec = models::make_tv_decoder_spec();
  CostOrderedAllocations stream(spec);
  stream.set_branch_bound([](const AllocSet&) { return false; });
  std::size_t emitted = 0;
  while (stream.next()) ++emitted;
  EXPECT_EQ(emitted, 1u);  // only the empty set escapes
  EXPECT_GT(stream.pruned(), 0u);
}

// ---- golden stream order ----------------------------------------------------
//
// `ReferenceStream` is the eager vector-state stream that the flat one
// replaced: one heap state per frontier entry holding its member list, in a
// std::*_heap ordered by (cost, lexicographic member list).  The flat stream
// must reproduce it step by step: the emitted subsets, the counters, the
// frontier size and the canonical cursor.

class ReferenceStream {
 public:
  ReferenceStream(const CompiledSpec& cs, AllocSet base)
      : base_(std::move(base)) {
    for (const AllocUnit& u : cs.units())
      unit_cost_.push_back(base_.test(u.id.index()) ? -1.0 : u.cost);
    heap_.push_back(State{0.0, {}, static_cast<std::uint32_t>(-1)});
  }

  void set_branch_bound(CostOrderedAllocations::BranchBound keep) {
    keep_ = std::move(keep);
  }

  std::optional<AllocSet> next() {
    if (heap_.empty()) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), Greater{});
    State state = std::move(heap_.back());
    heap_.pop_back();
    const std::uint32_t begin =
        state.max_index == static_cast<std::uint32_t>(-1) ? 0
                                                          : state.max_index + 1;
    bool expand = true;
    if (keep_ && begin < unit_cost_.size()) {
      AllocSet potential = to_set(state.members);
      for (std::uint32_t j = begin; j < unit_cost_.size(); ++j)
        potential.set(j);
      if (!keep_(potential)) {
        expand = false;
        ++pruned_;
      }
    }
    if (expand) {
      for (std::uint32_t j = begin; j < unit_cost_.size(); ++j) {
        if (unit_cost_[j] < 0.0) continue;
        State child{state.cost + unit_cost_[j], state.members, j};
        child.members.push_back(j);
        heap_.push_back(std::move(child));
        std::push_heap(heap_.begin(), heap_.end(), Greater{});
      }
    }
    ++emitted_;
    return to_set(state.members);
  }

  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t pruned() const { return pruned_; }
  [[nodiscard]] std::size_t frontier_size() const { return heap_.size(); }

  [[nodiscard]] EnumCursor cursor() const {
    EnumCursor c;
    c.frontier = heap_;
    std::sort(c.frontier.begin(), c.frontier.end(),
              [](const State& a, const State& b) { return Greater{}(b, a); });
    c.emitted = emitted_;
    c.pruned = pruned_;
    return c;
  }

 private:
  using State = EnumCursor::State;
  struct Greater {
    bool operator()(const State& a, const State& b) const {
      if (a.cost != b.cost) return a.cost > b.cost;
      return a.members > b.members;
    }
  };

  [[nodiscard]] AllocSet to_set(
      const std::vector<std::uint32_t>& members) const {
    AllocSet s = base_;
    for (std::uint32_t i : members) s.set(i);
    return s;
  }

  AllocSet base_;
  std::vector<double> unit_cost_;
  std::vector<State> heap_;
  CostOrderedAllocations::BranchBound keep_;
  std::uint64_t emitted_ = 0;
  std::uint64_t pruned_ = 0;
};

void expect_same_cursor(const EnumCursor& got, const EnumCursor& want) {
  ASSERT_EQ(got.emitted, want.emitted);
  ASSERT_EQ(got.pruned, want.pruned);
  ASSERT_EQ(got.frontier.size(), want.frontier.size());
  for (std::size_t k = 0; k < got.frontier.size(); ++k) {
    SCOPED_TRACE("frontier state " + std::to_string(k));
    // Bitwise equal costs: both sum in ascending insertion order.
    ASSERT_EQ(got.frontier[k].cost, want.frontier[k].cost);
    ASSERT_EQ(got.frontier[k].members, want.frontier[k].members);
    ASSERT_EQ(got.frontier[k].max_index, want.frontier[k].max_index);
  }
}

/// Pops both streams in lockstep (at most `max_pops` times, 0 = until dry)
/// and compares every step; the cursors are compared every
/// `cursor_every` pops and at the end.
void expect_same_stream(CostOrderedAllocations& flat, ReferenceStream& ref,
                        std::uint64_t max_pops, std::uint64_t cursor_every) {
  for (std::uint64_t pop = 1; max_pops == 0 || pop <= max_pops; ++pop) {
    const std::optional<AllocSet> got = flat.next();
    const std::optional<AllocSet> want = ref.next();
    ASSERT_EQ(got.has_value(), want.has_value()) << "pop " << pop;
    if (!got.has_value()) break;
    ASSERT_TRUE(*got == *want) << "pop " << pop << ": " << got->to_string()
                               << " vs " << want->to_string();
    ASSERT_EQ(flat.pruned(), ref.pruned()) << "pop " << pop;
    ASSERT_EQ(flat.frontier_size(), ref.frontier_size()) << "pop " << pop;
    if (pop % cursor_every == 0) {
      SCOPED_TRACE("cursor after pop " + std::to_string(pop));
      expect_same_cursor(flat.cursor(), ref.cursor());
    }
  }
  EXPECT_EQ(flat.emitted(), ref.emitted());
  expect_same_cursor(flat.cursor(), ref.cursor());
}

/// One process mappable onto `costs.size()` processors with these costs.
SpecificationGraph units_with_costs(const std::vector<double>& costs) {
  SpecBuilder b("costs");
  const NodeId p = b.process("p");
  for (std::size_t i = 0; i < costs.size(); ++i)
    b.map(p, b.resource("r" + std::to_string(i), costs[i]), 1.0);
  return b.build();
}

void expect_golden_order(const SpecificationGraph& spec,
                         std::uint64_t cursor_every) {
  const CompiledSpec& cs = spec.compiled();
  CostOrderedAllocations flat(cs);
  ReferenceStream ref(cs, cs.make_alloc_set());
  expect_same_stream(flat, ref, 0, cursor_every);
}

TEST(CostOrderedAllocationsGolden, PaperModels) {
  {
    SCOPED_TRACE("settop");
    expect_golden_order(settop(), 997);
  }
  {
    SCOPED_TRACE("decoder");
    expect_golden_order(models::make_tv_decoder_spec(), 7);
  }
}

TEST(CostOrderedAllocationsGolden, RepeatedAndZeroCosts) {
  std::uint64_t rng = 0x5eed;
  auto draw = [&rng](std::uint64_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % bound;
  };
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<double> costs(3 + draw(10));
    // Few distinct values, zero among them: many ties at every cost.
    for (double& c : costs) c = static_cast<double>(draw(4) * 10);
    expect_golden_order(units_with_costs(costs), 61);
  }
}

TEST(CostOrderedAllocationsGolden, FractionalCostsWhoseSumsCollide) {
  // 0.1 + 0.2 != 0.3 in binary floating point, while 0.1 + 0.2 summed in
  // either order is the same double: both streams must agree on every such
  // near-tie and exact tie.
  expect_golden_order(
      units_with_costs({0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.6, 0.4, 0.5, 0.7, 0.3}),
      53);
}

TEST(CostOrderedAllocationsGolden, FrozenBaseUpgradeStream) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  AllocSet base = cs.make_alloc_set();
  for (std::size_t i = 0; i < base.size(); i += 3) base.set(i);
  CostOrderedAllocations flat(cs, base);
  ReferenceStream ref(cs, base);
  expect_same_stream(flat, ref, 0, 101);
}

TEST(CostOrderedAllocationsGolden, BranchBound) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  // Both streams must ask the bound about the same potentials in the same
  // order, so a bound that counts its calls prunes identically too.
  auto bound = [](std::uint64_t& calls) {
    return [&calls](const AllocSet& potential) {
      ++calls;
      return (potential.hash() ^ calls) % 5 != 0;
    };
  };
  std::uint64_t flat_calls = 0;
  std::uint64_t ref_calls = 0;
  CostOrderedAllocations flat(cs);
  ReferenceStream ref(cs, cs.make_alloc_set());
  flat.set_branch_bound(bound(flat_calls));
  ref.set_branch_bound(bound(ref_calls));
  expect_same_stream(flat, ref, 0, 211);
  EXPECT_EQ(flat_calls, ref_calls);
  EXPECT_GT(flat.pruned(), 0u);
}

TEST(CostOrderedAllocationsGolden, TwoWordUniverse) {
  // 70 units: members straddle the 64-bit word boundary.  Cheap units sit
  // at high indices (in the second word), so the first pops mix both words
  // while the frontier stays small.
  std::vector<double> costs(70);
  for (std::size_t j = 0; j < costs.size(); ++j)
    costs[j] = 1.0 + static_cast<double>((costs.size() - 1 - j) / 3);
  const SpecificationGraph spec = units_with_costs(costs);
  const CompiledSpec& cs = spec.compiled();
  ASSERT_EQ(cs.unit_count(), 70u);
  CostOrderedAllocations flat(cs);
  ReferenceStream ref(cs, cs.make_alloc_set());
  expect_same_stream(flat, ref, 200000, 50000);
}

TEST(CostOrderedAllocationsGolden, CursorRoundTripContinuesIdentically) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  CostOrderedAllocations source(cs);
  for (int i = 0; i < 1234; ++i) ASSERT_TRUE(source.next().has_value());
  CostOrderedAllocations resumed(cs);
  resumed.restore(source.cursor());
  EXPECT_EQ(resumed.emitted(), source.emitted());
  EXPECT_EQ(resumed.frontier_size(), source.frontier_size());
  expect_same_cursor(resumed.cursor(), source.cursor());
  for (;;) {
    const std::optional<AllocSet> a = source.next();
    const std::optional<AllocSet> b = resumed.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    ASSERT_TRUE(*a == *b);
    ASSERT_EQ(source.frontier_size(), resumed.frontier_size());
  }
  EXPECT_EQ(resumed.emitted(), source.emitted());
}

// ---- golden skipping pop ----------------------------------------------------
//
// `reference_dominated` is the §5 filter as it was written on `AllocSet`s
// before the word-level `DominanceContext` test replaced it.  The skipping
// pop must equal `next()` of the reference stream filtered by it, call by
// call: the same survivor, the same skip count, the same counters and
// frontier.

bool reference_dominated(const CompiledSpec& cs, const AllocSet& alloc,
                         const AllocSet* scope) {
  const auto& units = cs.units();
  DynBitset functional_tops(cs.architecture().node_count());
  alloc.for_each([&](std::size_t i) {
    if (!units[i].is_comm) functional_tops.set(units[i].top.index());
  });
  bool dominated = false;
  alloc.for_each([&](std::size_t i) {
    if (dominated || (scope != nullptr && !scope->test(i))) return;
    if (units[i].is_comm) {
      std::size_t endpoints = 0;
      for (NodeId other : cs.comm_neighbor_tops(AllocUnitId{i}))
        if (functional_tops.test(other.index())) ++endpoints;
      dominated = endpoints < 2;
    } else {
      dominated = !cs.mappable_units().test(i);
    }
  });
  return dominated;
}

/// Calls `next_undominated` on `flat` until both streams run dry (or
/// `flat` has emitted `max_pops` subsets, 0 = no limit), cycling the skip
/// limit, and checks each call against `ref`.  Adds the skips to `skipped`.
void expect_same_skipping(const CompiledSpec& cs, const AllocSet& base,
                          CostOrderedAllocations& flat, ReferenceStream& ref,
                          std::uint64_t max_pops, std::uint64_t& skipped) {
  const DominanceContext ctx(cs);
  const std::uint64_t limits[] = {1024, 1, 3, UINT64_MAX, 2, 64};
  for (std::uint64_t call = 0; max_pops == 0 || flat.emitted() < max_pops;
       ++call) {
    const std::uint64_t limit = limits[call % std::size(limits)];
    std::uint64_t got_skipped = 0;
    const std::optional<AllocSet> got =
        flat.next_undominated(ctx, limit, got_skipped);
    std::optional<AllocSet> want;
    std::uint64_t want_skipped = 0;
    while (want_skipped < limit && (want = ref.next()).has_value()) {
      const AllocSet added = *want - base;
      if (!reference_dominated(cs, *want, base.any() ? &added : nullptr))
        break;
      want.reset();
      ++want_skipped;
    }
    ASSERT_EQ(got_skipped, want_skipped) << "call " << call;
    ASSERT_EQ(got.has_value(), want.has_value()) << "call " << call;
    if (got.has_value()) {
      ASSERT_TRUE(*got == *want) << "call " << call << ": " << got->to_string()
                                 << " vs " << want->to_string();
    }
    ASSERT_EQ(flat.emitted(), ref.emitted()) << "call " << call;
    ASSERT_EQ(flat.pruned(), ref.pruned()) << "call " << call;
    ASSERT_EQ(flat.frontier_size(), ref.frontier_size()) << "call " << call;
    skipped += got_skipped;
    if (!got.has_value() && flat.frontier_size() == 0) break;
  }
}

/// `units_with_costs` plus §5 structure: unit i is a bus joining units i - 1
/// and i - 3 when i % 4 == 3, and a resource no process maps to when
/// i % 4 == 2.
SpecificationGraph units_with_buses(const std::vector<double>& costs) {
  SpecBuilder b("buses");
  const NodeId p = b.process("p");
  std::vector<NodeId> node;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const std::string name = std::to_string(i);
    if (i % 4 == 3) {
      node.push_back(b.bus("b" + name, costs[i], {node[i - 1], node[i - 3]}));
      continue;
    }
    node.push_back(b.resource("r" + name, costs[i]));
    if (i % 4 != 2) b.map(p, node.back(), 1.0);
  }
  return b.build();
}

void expect_golden_skipping(const SpecificationGraph& spec,
                            std::uint64_t max_pops = 0) {
  const CompiledSpec& cs = spec.compiled();
  CostOrderedAllocations flat(cs);
  ReferenceStream ref(cs, cs.make_alloc_set());
  std::uint64_t skipped = 0;
  expect_same_skipping(cs, cs.make_alloc_set(), flat, ref, max_pops, skipped);
  EXPECT_GT(skipped, 0u) << "the filter never fired";
}

TEST(SkippingPopGolden, PaperModels) {
  {
    SCOPED_TRACE("settop");
    expect_golden_skipping(settop());
  }
  {
    SCOPED_TRACE("decoder");
    expect_golden_skipping(models::make_tv_decoder_spec());
  }
}

TEST(SkippingPopGolden, FractionalCostsWhoseSumsCollide) {
  expect_golden_skipping(units_with_buses(
      {0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.6, 0.4, 0.5, 0.7, 0.3, 0.2}));
}

TEST(SkippingPopGolden, FrozenBaseUpgradeStream) {
  // The scope is the added units: a base unit that dangles on its own
  // (a bus, an unmappable unit) must not reject its supersets.
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  AllocSet base = cs.make_alloc_set();
  for (std::size_t i = 0; i < base.size(); i += 3) base.set(i);
  ASSERT_TRUE(reference_dominated(cs, base, nullptr));
  CostOrderedAllocations flat(cs, base);
  ReferenceStream ref(cs, base);
  std::uint64_t skipped = 0;
  expect_same_skipping(cs, base, flat, ref, 0, skipped);
  EXPECT_GT(skipped, 0u);
}

TEST(SkippingPopGolden, TwoWordUniverse) {
  std::vector<double> costs(70);
  for (std::size_t j = 0; j < costs.size(); ++j)
    costs[j] = 1.0 + static_cast<double>((costs.size() - 1 - j) / 3);
  const SpecificationGraph spec = units_with_buses(costs);
  ASSERT_EQ(spec.compiled().unit_count(), 70u);
  expect_golden_skipping(spec, 100000);
}

TEST(SkippingPopGolden, BranchBound) {
  const SpecificationGraph& spec = settop();
  const CompiledSpec& cs = spec.compiled();
  // The bound must be asked about the same potentials in the same order
  // whether a popped subset is skipped or returned.
  auto bound = [](std::uint64_t& calls) {
    return [&calls](const AllocSet& potential) {
      ++calls;
      return (potential.hash() ^ calls) % 5 != 0;
    };
  };
  std::uint64_t flat_calls = 0;
  std::uint64_t ref_calls = 0;
  CostOrderedAllocations flat(cs);
  ReferenceStream ref(cs, cs.make_alloc_set());
  flat.set_branch_bound(bound(flat_calls));
  ref.set_branch_bound(bound(ref_calls));
  std::uint64_t skipped = 0;
  expect_same_skipping(cs, cs.make_alloc_set(), flat, ref, 0, skipped);
  EXPECT_EQ(flat_calls, ref_calls);
  EXPECT_GT(flat.pruned(), 0u);
  EXPECT_GT(skipped, 0u);
}

TEST(SkippingPopGolden, WordTestAgreesWithReferenceOnEveryPreset) {
  std::uint64_t rng = 0xd0d0;
  auto draw = [&rng](std::uint64_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % bound;
  };
  std::uint64_t verdicts[2] = {0, 0};
  for (const PlatformPreset preset :
       {PlatformPreset::kSetTopBox, PlatformPreset::kAutomotiveEcu,
        PlatformPreset::kBasebandDsp, PlatformPreset::kNestedS,
        PlatformPreset::kNestedM, PlatformPreset::kNestedXl}) {
    SCOPED_TRACE(preset_name(preset));
    const SpecificationGraph spec = generate_preset(preset, 1);
    const CompiledSpec& cs = spec.compiled();
    const DominanceContext ctx(cs);
    for (int trial = 0; trial < 300; ++trial) {
      // From a handful of units to most of the universe.
      const std::uint64_t per_mille[] = {3, 20, 100, 400, 900};
      const std::uint64_t density = per_mille[trial % std::size(per_mille)];
      AllocSet alloc = cs.make_alloc_set();
      AllocSet scope = cs.make_alloc_set();
      for (std::size_t i = 0; i < cs.unit_count(); ++i) {
        if (draw(1000) < density) alloc.set(i);
        if (draw(2) == 0) scope.set(i);
      }
      const bool whole = reference_dominated(cs, alloc, nullptr);
      ASSERT_EQ(obviously_dominated(cs, ctx, alloc), whole)
          << "trial " << trial << ": " << alloc.to_string();
      ASSERT_EQ(obviously_dominated(cs, ctx, alloc, &scope),
                reference_dominated(cs, alloc, &scope))
          << "trial " << trial << ": " << alloc.to_string() << " in "
          << scope.to_string();
      ++verdicts[whole ? 1 : 0];
    }
  }
  EXPECT_GT(verdicts[0], 0u);
  EXPECT_GT(verdicts[1], 0u);
}

TEST(ObviouslyDominated, DanglingBusAndUselessUnit) {
  const SpecificationGraph& spec = settop();
  auto alloc = [&](std::initializer_list<const char*> names) {
    AllocSet a = spec.make_alloc_set();
    for (const char* n : names) a.set(spec.find_unit(n).index());
    return a;
  };
  // C1 connects uP2 and the FPGA: with only uP2 allocated it dangles.
  EXPECT_TRUE(obviously_dominated(spec, alloc({"uP2", "C1"})));
  EXPECT_FALSE(obviously_dominated(spec, alloc({"uP2", "G1", "C1"})));
  // C2 (uP2-A1) dangles without A1.
  EXPECT_TRUE(obviously_dominated(spec, alloc({"uP2", "G1", "C1", "C2"})));
  EXPECT_FALSE(obviously_dominated(spec, alloc({"uP2", "A1", "C2"})));
  EXPECT_FALSE(obviously_dominated(spec, alloc({"uP2"})));
}

TEST(EnumeratePossibleAllocations, DecoderListStartsLikeThePaper) {
  // §4's example list A starts with the bare processor and grows by cheap
  // additions; every element must admit a complete problem activation.
  const SpecificationGraph& spec = models::make_tv_decoder_spec();
  const auto pras = enumerate_possible_allocations(spec);
  ASSERT_FALSE(pras.empty());
  // Cheapest possible allocation: uP alone (every interface coverable).
  EXPECT_EQ(spec.allocation_names(pras.front()), "uP");
  // All contain a unit covering Pa/Pc (the uP).
  for (const AllocSet& a : pras)
    EXPECT_TRUE(a.test(spec.find_unit("uP").index()));
  // Ascending cost.
  double last = 0.0;
  for (const AllocSet& a : pras) {
    const double c = spec.allocation_cost(a);
    EXPECT_GE(c, last - 1e-9);
    last = c;
  }
  // The filter removes dangling-bus variants and shrinks the list.
  const auto filtered = enumerate_possible_allocations(spec, true);
  EXPECT_LT(filtered.size(), pras.size());
}

// ---- EXPLORE on the case study -----------------------------------------------------

TEST(Explore, ReproducesPaperParetoFront) {
  const SpecificationGraph& spec = settop();
  const ExploreResult result = explore(spec);

  EXPECT_EQ(result.max_flexibility, 8.0);
  const auto& expected = models::settop_expected_front();
  ASSERT_EQ(result.front.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(strprintf("row %zu", i + 1));
    EXPECT_EQ(result.front[i].cost, expected[i].cost);
    EXPECT_EQ(result.front[i].flexibility, expected[i].flexibility);
    EXPECT_EQ(spec.allocation_names(result.front[i].units),
              expected[i].resources);
    EXPECT_EQ(cluster_names(spec, result.front[i]), expected[i].clusters);
  }
}

TEST(Explore, StatsShowMassivePruning) {
  const SpecificationGraph& spec = settop();
  const ExploreResult result = explore(spec);
  const ExploreStats& s = result.stats;

  EXPECT_EQ(s.universe, 13u);
  EXPECT_EQ(s.raw_design_points, std::pow(2.0, 13.0));
  // The §5 shape: only a tiny fraction of the raw space reaches the solver.
  EXPECT_GT(s.candidates_generated, 0u);
  EXPECT_GT(s.possible_allocations, 0u);
  EXPECT_LT(static_cast<double>(s.implementation_attempts),
            0.05 * s.raw_design_points);
  EXPECT_LE(s.implementation_attempts, s.possible_allocations);
  EXPECT_GE(s.flexibility_estimations, s.possible_allocations);
  EXPECT_GT(s.solver_calls, 0u);
  // Early termination: the stream was not exhausted.
  EXPECT_FALSE(s.exhausted);
}

TEST(Explore, MatchesExhaustiveBaseline) {
  const SpecificationGraph& spec = settop();
  const ExploreResult fast = explore(spec);
  const ExhaustiveResult brute = explore_exhaustive(spec);

  ASSERT_EQ(fast.front.size(), brute.front.size());
  for (std::size_t i = 0; i < fast.front.size(); ++i) {
    EXPECT_EQ(fast.front[i].cost, brute.front[i].cost);
    EXPECT_EQ(fast.front[i].flexibility, brute.front[i].flexibility);
  }
  // And EXPLORE attempts far fewer implementations.
  EXPECT_LT(fast.stats.implementation_attempts,
            brute.stats.implementation_attempts / 5);
}

TEST(Explore, TradeoffCurveUsesReciprocalFlexibility) {
  const ExploreResult result = explore(settop());
  const auto curve = result.tradeoff_curve();
  ASSERT_EQ(curve.size(), 6u);
  EXPECT_EQ(curve.front().x, 100.0);
  EXPECT_EQ(curve.front().y, 0.5);
  EXPECT_EQ(curve.back().x, 430.0);
  EXPECT_EQ(curve.back().y, 0.125);
  // Strictly decreasing 1/f along ascending cost: a valid Pareto front.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].x, curve[i - 1].x);
    EXPECT_LT(curve[i].y, curve[i - 1].y);
  }
}

TEST(Explore, AblationWithoutFlexibilityBound) {
  // Disabling the estimate bound must not change the front, only the work.
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.use_flexibility_bound = false;
  const ExploreResult ablated = explore(spec, options);
  const ExploreResult normal = explore(spec);
  ASSERT_EQ(ablated.front.size(), normal.front.size());
  for (std::size_t i = 0; i < normal.front.size(); ++i)
    EXPECT_EQ(ablated.front[i].cost, normal.front[i].cost);
  EXPECT_GT(ablated.stats.implementation_attempts,
            normal.stats.implementation_attempts);
}

TEST(Explore, AblationWithoutDominanceFilter) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.prune_dominated_allocations = false;
  const ExploreResult ablated = explore(spec, options);
  ASSERT_EQ(ablated.front.size(), 6u);
  EXPECT_EQ(ablated.front.back().flexibility, 8.0);
  EXPECT_EQ(ablated.stats.dominated_skipped, 0u);
}

TEST(Explore, AblationWithoutBranchBound) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.use_branch_bound = false;
  const ExploreResult ablated = explore(spec, options);
  ASSERT_EQ(ablated.front.size(), 6u);
  EXPECT_EQ(ablated.stats.branches_pruned, 0u);
}

TEST(Explore, DecoderSpecFront) {
  // The Fig. 2 decoder has no game/browser alternatives: max flexibility is
  // (3 + 2) - 1 = 4 and the front ends there.
  const SpecificationGraph& spec = models::make_tv_decoder_spec();
  const ExploreResult result = explore(spec);
  EXPECT_EQ(result.max_flexibility, 4.0);
  ASSERT_FALSE(result.front.empty());
  EXPECT_EQ(result.front.back().flexibility, 4.0);
  // Cheapest point: the bare uP implements gD1/gU1 -> f = 1.
  EXPECT_EQ(result.front.front().cost, 50.0);
  EXPECT_EQ(result.front.front().flexibility, 1.0);
  // Strictly improving front.
  for (std::size_t i = 1; i < result.front.size(); ++i) {
    EXPECT_GT(result.front[i].cost, result.front[i - 1].cost);
    EXPECT_GT(result.front[i].flexibility, result.front[i - 1].flexibility);
  }
}

TEST(Explore, CollectEquivalentsFindsAlternativeAllocations) {
  // §5's Pareto table lists one allocation per point, but the $230 / f=4
  // point has equal-cost alternatives ({uP2, U2, D3, C1} also implements
  // f=4 at $230).  collect_equivalents surfaces them.
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.collect_equivalents = true;
  const ExploreResult result = explore(spec, options);

  // The primary front is unchanged.
  ASSERT_EQ(result.front.size(), 6u);
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    EXPECT_EQ(result.front[i].cost,
              models::settop_expected_front()[i].cost);
    EXPECT_EQ(result.front[i].flexibility,
              models::settop_expected_front()[i].flexibility);
  }

  // The $230/f=4 point has at least one equivalent allocation.
  const Implementation& row3 = result.front[2];
  ASSERT_FALSE(row3.equivalents.empty());
  for (const Implementation& eq : row3.equivalents) {
    EXPECT_EQ(eq.cost, row3.cost);
    EXPECT_EQ(eq.flexibility, row3.flexibility);
    EXPECT_FALSE(eq.units == row3.units);
  }
  bool found_u2d3 = false;
  for (const Implementation& eq : row3.equivalents)
    if (spec.allocation_names(eq.units) == "uP2, C1, U2, D3")
      found_u2d3 = true;
  EXPECT_TRUE(found_u2d3);

  // Without the flag, no equivalents are collected.
  const ExploreResult plain = explore(spec);
  for (const Implementation& impl : plain.front)
    EXPECT_TRUE(impl.equivalents.empty());

  // The branch bound must not eat equivalent points: disabling it finds
  // the same equivalents.
  ExploreOptions no_bb = options;
  no_bb.use_branch_bound = false;
  const ExploreResult reference = explore(spec, no_bb);
  ASSERT_EQ(reference.front.size(), result.front.size());
  for (std::size_t i = 0; i < result.front.size(); ++i)
    EXPECT_EQ(result.front[i].equivalents.size(),
              reference.front[i].equivalents.size())
        << "row " << i;
}

TEST(Explore, MaxCandidatesCapStopsEarly) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.max_candidates = 10;
  const ExploreResult result = explore(spec, options);
  EXPECT_LE(result.stats.candidates_generated, 11u);
}

TEST(Explore, ExhaustedFlagSemantics) {
  const SpecificationGraph& spec = settop();
  // Early stop at maximal flexibility: not exhausted.
  const ExploreResult early = explore(spec);
  EXPECT_FALSE(early.stats.exhausted);
  // Forcing a full walk: exhausted.
  ExploreOptions full;
  full.stop_at_max_flexibility = false;
  const ExploreResult walked = explore(spec, full);
  EXPECT_TRUE(walked.stats.exhausted);
  EXPECT_GE(walked.stats.candidates_generated,
            early.stats.candidates_generated);
  // The front is the same either way.
  ASSERT_EQ(walked.front.size(), early.front.size());
  for (std::size_t i = 0; i < walked.front.size(); ++i)
    EXPECT_EQ(walked.front[i].cost, early.front[i].cost);
}

TEST(Explore, BudgetAbandonedIsCountedNotReportedInfeasible) {
  // An allocation whose evaluation the run budget aborts mid-solve has an
  // *unknown* outcome: it must show up in `budget_abandoned`, and its
  // attempt/solver charges must be rolled back — as if it had never been
  // touched — rather than being silently filed as infeasible.
  const SpecificationGraph& spec = settop();
  ExploreOptions full;
  full.stop_at_max_flexibility = false;
  const ExploreResult reference = explore(spec, full);
  ASSERT_GT(reference.stats.solver_nodes, 4u);

  ExploreOptions budgeted = full;
  budgeted.budget.max_solver_nodes = reference.stats.solver_nodes / 2;
  const ExploreResult partial = explore(spec, budgeted);
  ASSERT_TRUE(partial.status.ok());
  EXPECT_EQ(partial.stats.stop_reason, StopReason::kSolverNodes);
  EXPECT_EQ(partial.stats.budget_abandoned, 1u);
  // Rolled back: no dangling attempt for the abandoned candidate, so
  // attempts seen so far are a strict subset of the uninterrupted run's.
  EXPECT_LT(partial.stats.implementation_attempts,
            reference.stats.implementation_attempts);
  // The abandoned allocation is carried in the checkpoint for resumption —
  // the opposite of being discarded as infeasible.
  ASSERT_TRUE(partial.checkpoint.has_value());
  EXPECT_FALSE(partial.checkpoint->pending.empty());
}

TEST(UncertainVsCrisp, StatsComparable) {
  // The uncertain explorer at zero uncertainty does the same amount of
  // PRA work as the crisp one (its stopping rule is interval-based but
  // collapses to the crisp rule).
  const SpecificationGraph& spec = settop();
  const UncertainExploreResult u = explore_uncertain(spec);
  EXPECT_GT(u.stats.possible_allocations, 0u);
  EXPECT_EQ(u.max_flexibility, 8.0);
}

// ---- evolutionary baseline ---------------------------------------------------------

TEST(Evolutionary, FindsFeasiblePointsOnCaseStudy) {
  const SpecificationGraph& spec = settop();
  EaOptions options;
  options.seed = 42;
  options.population = 24;
  options.generations = 20;
  const EaResult result = explore_evolutionary(spec, options);
  ASSERT_FALSE(result.front.empty());
  EXPECT_GT(result.stats.evaluations, 0u);
  EXPECT_GT(result.stats.feasible_evaluations, 0u);
  // Archive is mutually non-dominated and sorted by cost.
  for (std::size_t i = 1; i < result.front.size(); ++i) {
    EXPECT_GE(result.front[i].cost, result.front[i - 1].cost);
    EXPECT_GT(result.front[i].flexibility, result.front[i - 1].flexibility);
  }
  // Every EA point is weakly dominated by the exact front (no EA point can
  // beat a complete exact front).
  const ExploreResult exact = explore(spec);
  for (const Implementation& impl : result.front) {
    bool covered = false;
    for (const Implementation& e : exact.front)
      if (e.cost <= impl.cost && e.flexibility >= impl.flexibility)
        covered = true;
    EXPECT_TRUE(covered) << impl.cost << " f=" << impl.flexibility;
  }
}

TEST(Evolutionary, DeterministicForSeed) {
  const SpecificationGraph& spec = settop();
  EaOptions options;
  options.seed = 7;
  options.population = 16;
  options.generations = 10;
  const EaResult a = explore_evolutionary(spec, options);
  const EaResult b = explore_evolutionary(spec, options);
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].cost, b.front[i].cost);
    EXPECT_EQ(a.front[i].flexibility, b.front[i].flexibility);
  }
}

// ---- synthetic specifications -------------------------------------------------------

TEST(Explore, SyntheticSpecAgreesWithExhaustive) {
  GeneratorParams params;
  params.seed = 5;
  params.applications = 2;
  params.processors = 2;
  params.accelerators = 1;
  params.fpga_configs = 1;
  const SpecificationGraph spec = generate_spec(params);
  ASSERT_TRUE(spec.validate().ok());
  ASSERT_LE(spec.alloc_units().size(), 16u);

  const ExploreResult fast = explore(spec);
  const ExhaustiveResult brute = explore_exhaustive(spec);
  ASSERT_EQ(fast.front.size(), brute.front.size());
  for (std::size_t i = 0; i < fast.front.size(); ++i) {
    EXPECT_EQ(fast.front[i].cost, brute.front[i].cost);
    EXPECT_EQ(fast.front[i].flexibility, brute.front[i].flexibility);
  }
}

class ExploreSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExploreSeedSweep, FrontIsValidAndMatchesExhaustive) {
  GeneratorParams params;
  params.seed = GetParam();
  params.applications = 2;
  params.processors = 2;
  params.accelerators = 1;
  params.fpga_configs = 1;
  params.interfaces_per_app_max = 1;
  const SpecificationGraph spec = generate_spec(params);
  ASSERT_TRUE(spec.validate().ok());

  const ExploreResult fast = explore(spec);
  // Property 1: strictly improving (cost, flexibility) along the front.
  for (std::size_t i = 1; i < fast.front.size(); ++i) {
    EXPECT_GT(fast.front[i].cost, fast.front[i - 1].cost);
    EXPECT_GT(fast.front[i].flexibility, fast.front[i - 1].flexibility);
  }
  // Property 2: flexibility never exceeds the specification maximum.
  for (const Implementation& impl : fast.front)
    EXPECT_LE(impl.flexibility, fast.max_flexibility);
  // Property 3: exact agreement with brute force when tractable.
  if (spec.alloc_units().size() <= 14) {
    const ExhaustiveResult brute = explore_exhaustive(spec);
    ASSERT_EQ(fast.front.size(), brute.front.size());
    for (std::size_t i = 0; i < fast.front.size(); ++i) {
      EXPECT_EQ(fast.front[i].cost, brute.front[i].cost);
      EXPECT_EQ(fast.front[i].flexibility, brute.front[i].flexibility);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExploreSeedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace sdf
