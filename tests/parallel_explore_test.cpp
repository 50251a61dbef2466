// Tests for the parallel cost-band EXPLORE engine and its thread pool.
//
// The contract under test is strong: for ANY thread count and band capacity,
// `parallel_explore` must return a result bit-identical to `explore` (the
// same engine at one thread, one candidate per band) — same Pareto points
// in the same order, same allocations, same equivalents, same exhausted
// flag; at one thread also every deterministic work counter.  Everything
// here asserts that identity on the paper's case study and on generated
// platforms.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "explore/allocation_enum.hpp"
#include "explore/explorer.hpp"
#include "explore/parallel_explorer.hpp"
#include "flex/activatability.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "spec/paper_models.hpp"
#include "util/thread_pool.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

void expect_identical(const ExploreResult& seq, const ExploreResult& par) {
  EXPECT_EQ(seq.max_flexibility, par.max_flexibility);
  EXPECT_EQ(seq.stats.exhausted, par.stats.exhausted);
  ASSERT_EQ(seq.front.size(), par.front.size());
  for (std::size_t i = 0; i < seq.front.size(); ++i) {
    SCOPED_TRACE("front row " + std::to_string(i));
    EXPECT_EQ(seq.front[i].cost, par.front[i].cost);
    EXPECT_EQ(seq.front[i].flexibility, par.front[i].flexibility);
    EXPECT_TRUE(seq.front[i].units == par.front[i].units);
    ASSERT_EQ(seq.front[i].equivalents.size(), par.front[i].equivalents.size());
    for (std::size_t j = 0; j < seq.front[i].equivalents.size(); ++j) {
      SCOPED_TRACE("equivalent " + std::to_string(j));
      EXPECT_TRUE(seq.front[i].equivalents[j].units ==
                  par.front[i].equivalents[j].units);
      EXPECT_EQ(seq.front[i].equivalents[j].cost,
                par.front[i].equivalents[j].cost);
      EXPECT_EQ(seq.front[i].equivalents[j].flexibility,
                par.front[i].equivalents[j].flexibility);
    }
  }
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::vector<std::atomic<int>> hits(257);
  ASSERT_TRUE(pool.parallel_for(hits.size(),
                                [&](std::size_t i) { hits[i].fetch_add(1); })
                  .ok());
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SubmitFromWithinTasksAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &sum] {
      sum.fetch_add(1);
      // Nested submission from a worker thread (goes to its own deque).
      pool.submit([&sum] { sum.fetch_add(10); });
    });
  }
  ASSERT_TRUE(pool.wait_idle().ok());
  EXPECT_EQ(sum.load(), 8 + 80);
  // The pool is reusable after an idle barrier.
  ASSERT_TRUE(
      pool.parallel_for(5, [&sum](std::size_t) { sum.fetch_add(100); }).ok());
  EXPECT_EQ(sum.load(), 88 + 500);
}

TEST(ThreadPool, UnevenTaskDurationsAreStolen) {
  // One long task plus many short ones: with stealing, the short tasks
  // finish on other workers and the total equals the submitted count.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  const Status st = pool.parallel_for(64, [&](std::size_t i) {
    if (i == 0) {
      volatile int spin = 0;
      while (spin < 2000000) spin = spin + 1;
    }
    done.fetch_add(1);
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(done.load(), 64);
}

// ---- identity with explore() ------------------------------------------------

class ParallelThreadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelThreadSweep, SetTopFrontIdenticalToSequential) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.num_threads = GetParam();
  const ExploreResult seq = explore(spec, options);
  const ExploreResult par = parallel_explore(spec, options);
  expect_identical(seq, par);
  EXPECT_EQ(par.stats.threads, GetParam());
  EXPECT_GT(par.stats.bands, 0u);
  EXPECT_GT(par.stats.peak_band_size, 0u);
}

TEST_P(ParallelThreadSweep, SetTopEquivalentsIdenticalToSequential) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.collect_equivalents = true;
  options.num_threads = GetParam();
  const ExploreResult seq = explore(spec, options);
  const ExploreResult par = parallel_explore(spec, options);
  expect_identical(seq, par);
  // The $230/f=4 tie really is exercised (see explore_test).
  ASSERT_GE(seq.front.size(), 3u);
  EXPECT_FALSE(par.front[2].equivalents.empty());
}

TEST_P(ParallelThreadSweep, SetTopFullWalkIdenticalToSequential) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.stop_at_max_flexibility = false;
  options.num_threads = GetParam();
  const ExploreResult seq = explore(spec, options);
  const ExploreResult par = parallel_explore(spec, options);
  expect_identical(seq, par);
  EXPECT_TRUE(par.stats.exhausted);
}

TEST_P(ParallelThreadSweep, PresetSpecsIdenticalToSequential) {
  for (const PlatformPreset preset :
       {PlatformPreset::kSetTopBox, PlatformPreset::kAutomotiveEcu,
        PlatformPreset::kBasebandDsp}) {
    SCOPED_TRACE(preset_name(preset));
    const SpecificationGraph spec = generate_preset(preset, 17);
    ASSERT_TRUE(spec.validate().ok());
    ExploreOptions options;
    options.num_threads = GetParam();
    const ExploreResult seq = explore(spec, options);
    const ExploreResult par = parallel_explore(spec, options);
    expect_identical(seq, par);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelThreadSweep,
                         ::testing::Values(1, 2, 8));

TEST(ParallelExplore, LargeGeneratedSpecIdenticalToSequential) {
  // A platform with >= 14 allocatable units: big enough that bands overlap
  // several cost levels and the shared bound actually skips work.
  GeneratorParams params;
  params.seed = 23;
  params.applications = 3;
  params.processors = 4;
  params.accelerators = 3;
  params.fpga_configs = 2;
  const SpecificationGraph spec = generate_spec(params);
  ASSERT_TRUE(spec.validate().ok());
  ASSERT_GE(spec.alloc_units().size(), 14u);

  const ExploreResult seq = explore(spec);
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExploreOptions options;
    options.num_threads = threads;
    expect_identical(seq, parallel_explore(spec, options));
  }
}

TEST(ParallelExplore, OneThreadMatchesExploreInEveryCounter) {
  // At one thread `parallel_explore` evaluates one candidate per band, so
  // it is `explore()` step for step: not only the front but every work
  // counter must agree (a wider band would draw extra candidates past the
  // point where the stream is cut short, and prune branches differently).
  for (const PlatformPreset preset :
       {PlatformPreset::kSetTopBox, PlatformPreset::kAutomotiveEcu}) {
    for (const bool equivalents : {false, true}) {
      SCOPED_TRACE(std::string(preset_name(preset)) +
                   " equivalents=" + std::to_string(equivalents));
      const SpecificationGraph spec =
          generate_preset(preset, preset == PlatformPreset::kSetTopBox ? 1 : 17);
      ExploreOptions options;
      options.collect_equivalents = equivalents;
      options.num_threads = 1;
      const ExploreResult seq = explore(spec, options);
      const ExploreResult par = parallel_explore(spec, options);
      expect_identical(seq, par);
      const ExploreStats& a = seq.stats;
      const ExploreStats& b = par.stats;
      EXPECT_EQ(a.candidates_generated, b.candidates_generated);
      EXPECT_EQ(a.dominated_skipped, b.dominated_skipped);
      EXPECT_EQ(a.possible_allocations, b.possible_allocations);
      EXPECT_EQ(a.flexibility_estimations, b.flexibility_estimations);
      EXPECT_EQ(a.bound_skipped, b.bound_skipped);
      EXPECT_EQ(a.implementation_attempts, b.implementation_attempts);
      EXPECT_EQ(a.solver_calls, b.solver_calls);
      EXPECT_EQ(a.solver_nodes, b.solver_nodes);
      EXPECT_EQ(a.cache_hits_feasible, b.cache_hits_feasible);
      EXPECT_EQ(a.cache_hits_infeasible, b.cache_hits_infeasible);
      EXPECT_EQ(a.cache_revalidations, b.cache_revalidations);
      EXPECT_EQ(a.analysis_pruned, b.analysis_pruned);
      EXPECT_EQ(a.branches_pruned, b.branches_pruned);
      EXPECT_EQ(a.frontier_remaining, b.frontier_remaining);
      // Only the band block tells the entry points apart.
      EXPECT_EQ(a.threads, 0u);
      EXPECT_EQ(a.bands, 0u);
      EXPECT_EQ(b.threads, 1u);
      EXPECT_EQ(b.bands, b.candidates_generated);
      EXPECT_EQ(b.peak_band_size, 1u);
      EXPECT_EQ(b.band_capacity_last, 1u);
    }
  }
}

TEST(ParallelExplore, BandCapacityDoesNotChangeTheResult) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.collect_equivalents = true;
  const ExploreResult seq = explore(spec, options);
  for (const std::size_t capacity : {1u, 3u, 1000u}) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    ExploreOptions par_options = options;
    par_options.num_threads = 4;
    par_options.band_capacity = capacity;
    expect_identical(seq, parallel_explore(spec, par_options));
  }
}

TEST(ParallelExplore, AdaptiveControllerGrowsMostlyFilteredBands) {
  // Most settop bands attempt fewer implementations than the setpoint, so
  // the controller must double the capacity beyond its starting size; a
  // pinned band_capacity must disable the controller entirely.
  const SpecificationGraph& spec = settop();
  ExploreOptions adaptive;
  adaptive.stop_at_max_flexibility = false;
  adaptive.num_threads = 2;
  const ExploreResult grown = parallel_explore(spec, adaptive);
  ASSERT_TRUE(grown.status.ok());
  EXPECT_GT(grown.stats.bands_grown, 0u);
  EXPECT_GT(grown.stats.band_capacity_last,
            std::max<std::size_t>(adaptive.num_threads * 8, 16));

  ExploreOptions pinned = adaptive;
  pinned.band_capacity = 8;
  const ExploreResult fixed = parallel_explore(spec, pinned);
  ASSERT_TRUE(fixed.status.ok());
  EXPECT_EQ(fixed.stats.bands_grown, 0u);
  EXPECT_EQ(fixed.stats.bands_shrunk, 0u);
  EXPECT_EQ(fixed.stats.band_capacity_last, 8u);
  EXPECT_LE(fixed.stats.peak_band_size, 8u);
  expect_identical(grown, fixed);
}

TEST(ParallelExplore, AdaptiveControllerShrinksAttemptHeavyBands) {
  // The controller's step: the setpoint is max(2 * threads, 8) attempts
  // per band.  A band attempting more than twice that halves the capacity
  // (never below max(threads, 4)); one attempting under half of it doubles
  // the capacity (never above max(8 * threads, 4096)); anything between
  // keeps it.
  EXPECT_EQ(next_band_capacity(64, 17, 2), 32u);
  EXPECT_EQ(next_band_capacity(64, 65, 16), 32u);
  EXPECT_EQ(next_band_capacity(6, 100, 2), 4u);
  EXPECT_EQ(next_band_capacity(4, 100, 2), 4u);
  EXPECT_EQ(next_band_capacity(32, 100, 16), 16u);
  EXPECT_EQ(next_band_capacity(16, 100, 16), 16u);
  EXPECT_EQ(next_band_capacity(16, 3, 2), 32u);
  EXPECT_EQ(next_band_capacity(4096, 0, 2), 4096u);
  EXPECT_EQ(next_band_capacity(8192, 0, 1024), 8192u);
  EXPECT_EQ(next_band_capacity(16, 4, 2), 16u);
  EXPECT_EQ(next_band_capacity(16, 16, 2), 16u);
  EXPECT_EQ(next_band_capacity(64, 16, 8), 64u);
  EXPECT_EQ(next_band_capacity(64, 7, 8), 128u);

  // And on a run: without the flexibility bound every possible allocation
  // is attempted (so the per-band yield does not depend on the schedule),
  // and the settop stream is dense enough in them that grown bands
  // overshoot and shrink, still without touching the front.
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.stop_at_max_flexibility = false;
  options.use_flexibility_bound = false;
  options.num_threads = 2;
  const ExploreResult shrunk = parallel_explore(spec, options);
  ASSERT_TRUE(shrunk.status.ok());
  EXPECT_GT(shrunk.stats.bands_shrunk, 0u);
  EXPECT_GE(shrunk.stats.band_capacity_last,
            std::max<std::size_t>(options.num_threads, 4));
  expect_identical(explore(spec, options), shrunk);
}

TEST(ParallelExplore, AblationsIdenticalToSequential) {
  const SpecificationGraph& spec = settop();
  for (const bool flex_bound : {false, true}) {
    for (const bool branch_bound : {false, true}) {
      SCOPED_TRACE("flex_bound=" + std::to_string(flex_bound) +
                   " branch_bound=" + std::to_string(branch_bound));
      ExploreOptions options;
      options.use_flexibility_bound = flex_bound;
      options.use_branch_bound = branch_bound;
      options.num_threads = 4;
      const ExploreResult seq = explore(spec, options);
      const ExploreResult par = parallel_explore(spec, options);
      expect_identical(seq, par);
    }
  }
}

// ---- max_candidates budget semantics ---------------------------------------

TEST(ParallelExplore, MaxCandidatesCountsOnlyNonEmptyCandidates) {
  // Regression: the empty base allocation used to eat one unit of the
  // candidate budget, so a budget sized to reach exactly the first possible
  // allocation fell one candidate short and inspected nothing useful.
  const SpecificationGraph& spec = models::make_tv_decoder_spec();
  // Size the budget to the first root-activatable candidate in cost order
  // (the bare uP, $50/f=1 — see explore_test's DecoderSpecFront).
  std::uint64_t budget = 0;
  {
    CostOrderedAllocations stream(spec);
    while (std::optional<AllocSet> a = stream.next()) {
      if (a->none()) continue;
      ++budget;
      if (Activatability(spec, *a).root_activatable()) break;
    }
  }
  ASSERT_GT(budget, 0u);

  ExploreOptions options;
  options.max_candidates = budget;
  options.prune_dominated_allocations = false;  // keep the count exact
  const ExploreResult seq = explore(spec, options);
  ASSERT_EQ(seq.front.size(), 1u);
  EXPECT_EQ(seq.front.front().cost, 50.0);
  EXPECT_EQ(seq.front.front().flexibility, 1.0);
  EXPECT_EQ(seq.stats.possible_allocations, 1u);
  // The engine counts the candidate that trips the cap before breaking.
  EXPECT_EQ(seq.stats.candidates_generated, budget + 1);

  options.num_threads = 2;
  const ExploreResult par = parallel_explore(spec, options);
  expect_identical(seq, par);
}

TEST(ParallelExplore, MaxCandidatesCapStopsEarly) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.max_candidates = 10;
  options.num_threads = 4;
  const ExploreResult result = parallel_explore(spec, options);
  EXPECT_LE(result.stats.candidates_generated, 11u);
}

// ---- stats plausibility ----------------------------------------------------

TEST(ParallelExplore, PhaseBreakdownCoversTheWork) {
  const SpecificationGraph& spec = settop();
  ExploreOptions options;
  options.num_threads = 2;
  const ExploreResult result = parallel_explore(spec, options);
  const ExploreStats& s = result.stats;
  EXPECT_EQ(s.threads, 2u);
  EXPECT_GT(s.candidates_generated, 0u);
  EXPECT_GT(s.possible_allocations, 0u);
  EXPECT_GT(s.implementation_attempts, 0u);
  EXPECT_GE(s.wall_seconds, 0.0);
  EXPECT_GE(s.enumerate_seconds, 0.0);
  EXPECT_GE(s.evaluate_seconds, 0.0);
  EXPECT_GE(s.merge_seconds, 0.0);
  // CPU time summed over workers is at least the implement wall share.
  EXPECT_GE(s.filter_cpu_seconds, 0.0);
  EXPECT_GE(s.implement_cpu_seconds, 0.0);
  EXPECT_LE(s.bands * 1u, s.candidates_generated + 1u);
  EXPECT_LE(s.peak_band_size,
            options.band_capacity == 0 ? 1000u : options.band_capacity);
}

}  // namespace
}  // namespace sdf
