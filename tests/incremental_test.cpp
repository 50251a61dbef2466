// Tests for the incremental (platform-upgrade) explorer.
#include <gtest/gtest.h>

#include "explore/explorer.hpp"
#include "explore/incremental.hpp"
#include "gen/spec_generator.hpp"
#include "spec/paper_models.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

AllocSet alloc_of(const SpecificationGraph& spec,
                  std::initializer_list<const char*> names) {
  AllocSet a = spec.make_alloc_set();
  for (const char* n : names) a.set(spec.find_unit(n).index());
  return a;
}

TEST(Incremental, BaselineFlexibilityReported) {
  const UpgradeResult r =
      explore_upgrades(settop(), alloc_of(settop(), {"uP2"}));
  EXPECT_EQ(r.baseline_flexibility, 2.0);
  EXPECT_EQ(r.max_flexibility, 8.0);
}

TEST(Incremental, UpgradePathFromUp2) {
  // Starting from the deployed $100 uP2 box, the cheapest upgrades retrace
  // the case-study front (uP2-rooted rows) at incremental prices.
  const SpecificationGraph& spec = settop();
  const UpgradeResult r = explore_upgrades(spec, alloc_of(spec, {"uP2"}));
  ASSERT_FALSE(r.front.empty());

  // Every step strictly improves flexibility over the baseline and costs
  // strictly more than the previous step.
  double last_cost = 0.0;
  double last_f = r.baseline_flexibility;
  for (const Upgrade& u : r.front) {
    EXPECT_GT(u.upgrade_cost, last_cost);
    EXPECT_GT(u.implementation.flexibility, last_f);
    last_cost = u.upgrade_cost;
    last_f = u.implementation.flexibility;
    // The upgrade keeps the existing platform.
    EXPECT_TRUE(u.implementation.units.test(spec.find_unit("uP2").index()));
  }
  // The path reaches full flexibility.
  EXPECT_EQ(r.front.back().implementation.flexibility, 8.0);
  // Known cheapest full upgrade from uP2: A1 + C2 + D3 + C1 = 330.
  EXPECT_EQ(r.front.back().upgrade_cost, 330.0);
}

TEST(Incremental, UpgradeCostIsDifferenceOfAllocationCosts) {
  const SpecificationGraph& spec = settop();
  const UpgradeResult r = explore_upgrades(spec, alloc_of(spec, {"uP2"}));
  for (const Upgrade& u : r.front) {
    EXPECT_NEAR(u.upgrade_cost,
                spec.allocation_cost(u.implementation.units) - 100.0, 1e-9);
  }
}

TEST(Incremental, DifferentBaselinesDifferentPaths) {
  const SpecificationGraph& spec = settop();
  const UpgradeResult from_up1 =
      explore_upgrades(spec, alloc_of(spec, {"uP1"}));
  EXPECT_EQ(from_up1.baseline_flexibility, 3.0);
  ASSERT_FALSE(from_up1.front.empty());
  // uP1 has no ASIC bus, so reaching f=8 requires buying uP2 as well — the
  // full upgrade is more expensive than uP2's 330.
  EXPECT_EQ(from_up1.front.back().implementation.flexibility, 8.0);
  EXPECT_GT(from_up1.front.back().upgrade_cost, 330.0);
}

TEST(Incremental, FullPlatformHasNoUpgrades) {
  const SpecificationGraph& spec = settop();
  AllocSet all = spec.make_alloc_set();
  for (std::size_t i = 0; i < spec.alloc_units().size(); ++i) all.set(i);
  const UpgradeResult r = explore_upgrades(spec, all);
  EXPECT_EQ(r.baseline_flexibility, 8.0);
  EXPECT_TRUE(r.front.empty());
}

TEST(Incremental, EmptyBaselineMatchesPlainExploreFront) {
  // Upgrading from nothing is ordinary exploration: same (cost, f) points,
  // reached with the same work.
  const SpecificationGraph& spec = settop();
  const UpgradeResult up = explore_upgrades(spec, spec.make_alloc_set());
  const ExploreResult plain = explore(spec);
  ASSERT_EQ(up.front.size(), plain.front.size());
  for (std::size_t i = 0; i < up.front.size(); ++i) {
    EXPECT_EQ(up.front[i].upgrade_cost, plain.front[i].cost);
    EXPECT_EQ(up.front[i].implementation.flexibility,
              plain.front[i].flexibility);
  }
  EXPECT_EQ(up.baseline_flexibility, 0.0);
  EXPECT_EQ(up.stats.universe, plain.stats.universe);
  EXPECT_EQ(up.stats.candidates_generated, plain.stats.candidates_generated);
  EXPECT_EQ(up.stats.dominated_skipped, plain.stats.dominated_skipped);
  EXPECT_EQ(up.stats.possible_allocations, plain.stats.possible_allocations);
  EXPECT_EQ(up.stats.flexibility_estimations,
            plain.stats.flexibility_estimations);
  EXPECT_EQ(up.stats.bound_skipped, plain.stats.bound_skipped);
  EXPECT_EQ(up.stats.implementation_attempts,
            plain.stats.implementation_attempts);
  EXPECT_EQ(up.stats.solver_calls, plain.stats.solver_calls);
  EXPECT_EQ(up.stats.solver_nodes, plain.stats.solver_nodes);
  EXPECT_EQ(up.stats.branches_pruned, plain.stats.branches_pruned);
}

TEST(Incremental, SunkResourcesAreNotPenalized) {
  // A deployed platform with a dangling bus (C5 without uP1) must still be
  // upgradable: the dominance filter only judges the added units.
  const SpecificationGraph& spec = settop();
  const UpgradeResult r =
      explore_upgrades(spec, alloc_of(spec, {"uP2", "C5"}));
  EXPECT_EQ(r.baseline_flexibility, 2.0);
  ASSERT_FALSE(r.front.empty());
  EXPECT_EQ(r.front.back().implementation.flexibility, 8.0);
}

TEST(Incremental, WorksOnSyntheticSpecs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    GeneratorParams params;
    params.seed = seed;
    params.applications = 2;
    params.accelerators = 1;
    params.fpga_configs = 1;
    const SpecificationGraph spec = generate_spec(params);

    // Deploy the cheapest Pareto platform, then upgrade.
    const ExploreResult plain = explore(spec);
    ASSERT_FALSE(plain.front.empty()) << "seed " << seed;
    const UpgradeResult up =
        explore_upgrades(spec, plain.front.front().units);
    EXPECT_EQ(up.baseline_flexibility, plain.front.front().flexibility);
    for (const Upgrade& u : up.front) {
      EXPECT_GT(u.implementation.flexibility, up.baseline_flexibility);
      EXPECT_TRUE(
          plain.front.front().units.is_subset_of(u.implementation.units));
    }
  }
}

}  // namespace
}  // namespace sdf
