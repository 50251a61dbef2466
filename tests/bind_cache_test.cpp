// Tests for the cross-allocation binding cache (BindCache) and the solver
// stats per-call reset contract it depends on.
//
// The load-bearing property is allocation-lattice monotonicity:
//   feasible(A)   ⇒ feasible(A ∪ {u})    (witness still valid, more comm)
//   infeasible(A) ⇒ infeasible(A \ {u})  (fewer units can't help)
// which the property tests check against the raw solver on generated specs,
// and which the cache tests rely on for superset/subset hits.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "bind/bind_cache.hpp"
#include "bind/eca.hpp"
#include "bind/solver.hpp"
#include "explore/explorer.hpp"
#include "explore/parallel_explorer.hpp"
#include "flex/activatability.hpp"
#include "gen/spec_generator.hpp"
#include "spec/compiled.hpp"
#include "spec/paper_models.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace sdf {
namespace {

const SpecificationGraph& settop() {
  static const SpecificationGraph spec = models::make_settop_spec();
  return spec;
}

const SpecificationGraph& decoder() {
  static const SpecificationGraph spec = models::make_tv_decoder_spec();
  return spec;
}

/// A nested-tile spec: two independent tiles of a three-level hierarchy, so
/// the cache splits every ECA into per-tile terminal groups.
SpecificationGraph make_nested_tiles_spec() {
  GeneratorParams p;
  p.seed = 7;
  p.tiles = 2;
  p.max_depth = 3;
  p.tile_processors = 2;
  p.tile_alternatives = 2;
  p.tile_processes = 2;
  p.tile_bus = true;
  return generate_spec(p);
}

const SpecificationGraph& nested_tiles() {
  static const SpecificationGraph spec = make_nested_tiles_spec();
  return spec;
}

AllocSet full_alloc(const CompiledSpec& cs) {
  AllocSet a = cs.make_alloc_set();
  for (std::size_t i = 0; i < a.size(); ++i) a.set(i);
  return a;
}

/// ECAs reachable under the full allocation (every cluster activatable).
std::vector<Eca> full_ecas(const CompiledSpec& cs, std::size_t limit = 0) {
  const Activatability act(cs, full_alloc(cs));
  return enumerate_ecas(cs.problem(), act.clusters(), limit);
}

/// An ECA whose uncached solve visits at least two nodes, so a
/// `node_limit = 1` run genuinely aborts instead of finishing.
const Eca* find_hard_eca(const CompiledSpec& cs, const std::vector<Eca>& ecas,
                         const AllocSet& alloc) {
  for (const Eca& eca : ecas) {
    SolverStats st;
    (void)solve_binding(cs, alloc, eca, {}, &st);
    if (st.outcome == SolveOutcome::kFeasible && st.nodes >= 2) return &eca;
  }
  return nullptr;
}

void expect_fronts_equal(const ExploreResult& a, const ExploreResult& b) {
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    SCOPED_TRACE("front row " + std::to_string(i));
    EXPECT_EQ(a.front[i].cost, b.front[i].cost);
    EXPECT_EQ(a.front[i].flexibility, b.front[i].flexibility);
    EXPECT_TRUE(a.front[i].units == b.front[i].units);
  }
}

// ---------------------------------------------------------------------------
// SolverStats per-call reset (regression: a reused stats object must not
// leak the previous call's verdict or abort flag).
// ---------------------------------------------------------------------------

TEST(SolverStatsReuse, OutcomeAndAbortAreResetOnEveryCall) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);
  const Eca* hard = find_hard_eca(cs, ecas, full);
  ASSERT_NE(hard, nullptr);

  SolverStats st;  // one object, reused across all four calls

  // 1. Feasible call.
  ASSERT_TRUE(solve_binding(cs, full, *hard, {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kFeasible);
  EXPECT_FALSE(st.aborted);
  const std::uint64_t nodes_after_first = st.nodes;
  EXPECT_GE(nodes_after_first, 2u);

  // 2. Infeasible call (empty allocation): outcome must flip, nodes keep
  //    accumulating.
  EXPECT_FALSE(
      solve_binding(cs, cs.make_alloc_set(), *hard, {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kInfeasible);
  EXPECT_FALSE(st.aborted);
  EXPECT_GE(st.nodes, nodes_after_first);  // cumulative, never reset

  // 3. Aborted call (node limit).
  SolverOptions limited;
  limited.node_limit = 1;
  EXPECT_FALSE(solve_binding(cs, full, *hard, limited, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kNodeLimit);
  EXPECT_TRUE(st.aborted);

  // 4. Feasible again: the stale abort flag and verdict must be cleared.
  ASSERT_TRUE(solve_binding(cs, full, *hard, {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kFeasible);
  EXPECT_FALSE(st.aborted);
}

TEST(SolverStatsReuse, CacheSolveResetsPerCallFieldsToo) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  BindCache cache;
  SolverStats st;
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kFeasible);
  EXPECT_FALSE(
      cache.solve(cs, cs.make_alloc_set(), ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kInfeasible);
  EXPECT_FALSE(st.aborted);
  // Second feasible query is a hit and must still report kFeasible.
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kFeasible);
}

// ---------------------------------------------------------------------------
// BindCache frontier mechanics.
// ---------------------------------------------------------------------------

TEST(BindCacheTest, IdenticalQueryIsAFeasibleHitWithAValidWitness) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  BindCache cache;
  SolverStats st;
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_GE(cache.entries(), 1u);

  const std::optional<Binding> again = cache.solve(cs, full, ecas[0], {}, &st);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(cache.stats().hits_feasible, 1u);
  EXPECT_EQ(cache.stats().revalidations, 1u);
  EXPECT_EQ(st.cache_hits_feasible, 1u);
  EXPECT_EQ(st.cache_revalidations, 1u);
  EXPECT_EQ(st.cache_entries, cache.entries());
  EXPECT_TRUE(binding_feasible(cs, full, ecas[0], *again));
}

TEST(BindCacheTest, SupersetQueryReusesASubsetWitness) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  // Find a proper subset that is still feasible for ecas[0].
  AllocSet sub = cs.make_alloc_set();
  bool found = false;
  for (std::size_t u = 0; u < full.size() && !found; ++u) {
    AllocSet candidate = full;
    candidate.reset(u);
    SolverStats st;
    if (solve_binding(cs, candidate, ecas[0], {}, &st).has_value()) {
      sub = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no feasible proper subset of the full allocation";

  BindCache cache;
  SolverStats st;
  ASSERT_TRUE(cache.solve(cs, sub, ecas[0], {}, &st).has_value());
  // The full allocation is a strict superset: the subset's witness must be
  // revalidated and returned without a search.
  const std::uint64_t nodes_before = st.nodes;
  const std::optional<Binding> hit = cache.solve(cs, full, ecas[0], {}, &st);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.stats().hits_feasible, 1u);
  EXPECT_EQ(st.nodes, nodes_before);  // no search nodes spent on the hit
  EXPECT_TRUE(binding_feasible(cs, full, ecas[0], *hit));
}

TEST(BindCacheTest, FeasibleHitsShareTheStoredWitness) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  BindCache cache;
  SolverStats st;
  const std::optional<Binding> solved = cache.solve(cs, full, ecas[0], {}, &st);
  const std::optional<Binding> hit1 = cache.solve(cs, full, ecas[0], {}, &st);
  const std::optional<Binding> hit2 = cache.solve(cs, full, ecas[0], {}, &st);
  ASSERT_TRUE(solved.has_value() && hit1.has_value() && hit2.has_value());
  EXPECT_EQ(cache.stats().hits_feasible, 2u);
  // Both hits and the solved binding read the frontier's one witness.
  EXPECT_EQ(&hit1->assignments(), &hit2->assignments());
  EXPECT_EQ(&hit1->assignments(), &solved->assignments());
  // Writing to a hit never reaches the stored witness.
  Binding edited = *hit1;
  edited.assign(hit1->assignments().front());
  const std::optional<Binding> hit3 = cache.solve(cs, full, ecas[0], {}, &st);
  ASSERT_TRUE(hit3.has_value());
  EXPECT_EQ(hit3->size(), hit1->size());
  EXPECT_TRUE(binding_feasible(cs, full, ecas[0], *hit3));
}

TEST(BindCacheTest, PinHandsOutOneFlatteningPerEca) {
  const CompiledSpec cs(settop());
  cs.set_flat_cache_budget(1, 0);
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_GE(ecas.size(), 2u);

  BindCache cache;
  const BindCache::Slot first = cache.pin(cs, ecas[0], false);
  ASSERT_EQ(first.parts().size(), 1u);
  for (const Eca& eca : ecas) (void)cache.pin(cs, eca, false);  // evicts ecas[0]
  const std::uint64_t evictions = cs.flat_cache_evictions();
  // Re-pinning returns the pinned flattening without touching the LRU.
  EXPECT_EQ(cache.pin(cs, ecas[0], false).parts().front(),
            first.parts().front());
  EXPECT_EQ(cs.flat_cache_evictions(), evictions);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(BindCacheTest, SubsetOfAnInfeasibleAllocationIsAProofHit) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());

  // Find a single-unit allocation that is provably infeasible.
  AllocSet bad = cs.make_alloc_set();
  bool found = false;
  for (std::size_t u = 0; u < bad.size() && !found; ++u) {
    AllocSet candidate = cs.make_alloc_set();
    candidate.set(u);
    SolverStats st;
    (void)solve_binding(cs, candidate, ecas[0], {}, &st);
    if (st.outcome == SolveOutcome::kInfeasible) {
      bad = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "every single-unit allocation was feasible";

  BindCache cache;
  SolverStats st;
  EXPECT_FALSE(cache.solve(cs, bad, ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kInfeasible);

  // The empty allocation is a subset: proof transfers, no solve.
  const std::uint64_t nodes_before = st.nodes;
  EXPECT_FALSE(
      cache.solve(cs, cs.make_alloc_set(), ecas[0], {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kInfeasible);
  EXPECT_EQ(cache.stats().hits_infeasible, 1u);
  EXPECT_EQ(st.cache_hits_infeasible, 1u);
  EXPECT_EQ(st.nodes, nodes_before);
}

TEST(BindCacheTest, InsertPrunesEntriesDominatedByTheNewOne) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  AllocSet sub = cs.make_alloc_set();
  bool found = false;
  for (std::size_t u = 0; u < full.size() && !found; ++u) {
    AllocSet candidate = full;
    candidate.reset(u);
    SolverStats st;
    if (solve_binding(cs, candidate, ecas[0], {}, &st).has_value()) {
      sub = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  BindCache cache;
  SolverStats st;
  // Insert the superset first, then the (dominating) subset: the frontier
  // keeps only the minimal entry.
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_EQ(cache.entries(), 1u);
  ASSERT_TRUE(cache.solve(cs, sub, ecas[0], {}, &st).has_value());
  EXPECT_EQ(cache.entries(), 1u);  // full-allocation entry pruned
  // The surviving minimal entry still answers the superset query.
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_EQ(cache.stats().hits_feasible, 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(BindCacheTest, AbortedSolvesAreNeverCached) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);
  const Eca* hard = find_hard_eca(cs, ecas, full);
  ASSERT_NE(hard, nullptr);

  BindCache cache;
  SolverStats st;
  SolverOptions limited;
  limited.node_limit = 1;
  EXPECT_FALSE(cache.solve(cs, full, *hard, limited, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kNodeLimit);
  EXPECT_TRUE(st.aborted);
  EXPECT_EQ(cache.entries(), 0u) << "a budget abort proves nothing";

  // The unlimited retry must be a genuine solve (miss) with the real
  // verdict — never an infeasibility "hit" fabricated from the abort.
  ASSERT_TRUE(cache.solve(cs, full, *hard, {}, &st).has_value());
  EXPECT_EQ(st.outcome, SolveOutcome::kFeasible);
  EXPECT_EQ(cache.stats().hits_infeasible, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(BindCacheTest, ClearEmptiesFrontiersAndCounters) {
  const CompiledSpec& cs = decoder().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  BindCache cache;
  SolverStats st;
  for (const Eca& eca : ecas)
    (void)cache.solve(cs, full_alloc(cs), eca, {}, &st);
  ASSERT_GE(cache.entries(), 1u);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  // Still usable after clear.
  ASSERT_TRUE(cache.solve(cs, full_alloc(cs), ecas[0], {}, &st).has_value());
}

TEST(BindCacheTest, ShardCountZeroIsClampedToOneShard) {
  // Regression: BindCache(0) used to be accepted unclamped, making every
  // key hash a modulo-by-zero.  A zero shard count must behave exactly
  // like a single-shard cache.
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  BindCache cache(0);
  SolverStats st;
  for (const Eca& eca : ecas)
    (void)cache.solve(cs, full, eca, {}, &st);
  EXPECT_GE(cache.entries(), 1u);
  ASSERT_TRUE(cache.solve(cs, full, ecas[0], {}, &st).has_value());
  EXPECT_GE(cache.stats().hits_feasible, 1u);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrent readers and writers on the sharded frontiers.  Run under TSan
// by scripts/check_all.sh / scripts/check_tsan.sh: readers probe and copy
// out witnesses while writers keep extending the same frontiers.
// ---------------------------------------------------------------------------

TEST(BindCacheConcurrency, ReadersScanWhileWritersPublish) {
  const CompiledSpec& cs = settop().compiled();
  const std::vector<Eca> ecas = full_ecas(cs);
  ASSERT_FALSE(ecas.empty());
  const AllocSet full = full_alloc(cs);

  // Pre-compute the raw verdict for every (allocation, ECA) pair so worker
  // threads can check agreement without calling the solver under race.
  std::vector<AllocSet> allocs;
  allocs.push_back(full);
  allocs.push_back(cs.make_alloc_set());
  for (std::size_t u = 0; u < full.size(); ++u) {
    AllocSet one = cs.make_alloc_set();
    one.set(u);
    allocs.push_back(one);
    AllocSet without = full;
    without.reset(u);
    allocs.push_back(without);
  }
  std::vector<std::vector<bool>> expected(ecas.size());
  for (std::size_t e = 0; e < ecas.size(); ++e) {
    expected[e].resize(allocs.size());
    for (std::size_t a = 0; a < allocs.size(); ++a) {
      SolverStats st;
      expected[e][a] =
          solve_binding(cs, allocs[a], ecas[e], {}, &st).has_value();
    }
  }

  // Few shards concentrate the lock contention the test wants to provoke.
  BindCache cache(2);
  std::atomic<std::uint64_t> disagreements{0};
  std::atomic<std::uint64_t> bad_witnesses{0};
  const std::size_t kThreads = 4;
  const int kRounds = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread walks the same query set from a different offset, so
      // at any moment some threads miss-and-insert (writers) while others
      // hit the frontier entries those inserts produced (readers).
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < ecas.size() * allocs.size(); ++i) {
          const std::size_t q =
              (i + t * 7) % (ecas.size() * allocs.size());
          const std::size_t e = q / allocs.size();
          const std::size_t a = q % allocs.size();
          SolverStats st;
          const std::optional<Binding> got =
              cache.solve(cs, allocs[a], ecas[e], {}, &st);
          if (got.has_value() != expected[e][a])
            disagreements.fetch_add(1, std::memory_order_relaxed);
          if (got.has_value() &&
              !binding_feasible(cs, allocs[a], ecas[e], *got))
            bad_witnesses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(disagreements.load(), 0u) << "cached verdict diverged under race";
  EXPECT_EQ(bad_witnesses.load(), 0u) << "stale witness served under race";
  const BindCacheStats s = cache.stats();
  // Probe accounting holds exactly even under contention…
  EXPECT_EQ(s.misses + s.hits_feasible + s.hits_infeasible,
            kThreads * kRounds * ecas.size() * allocs.size());
  // …and the frontier converged: later rounds are all hits.
  EXPECT_GT(s.hits_feasible + s.hits_infeasible, s.misses);
}

// ---------------------------------------------------------------------------
// Lattice monotonicity on generated specs, and cached-vs-raw agreement.
// ---------------------------------------------------------------------------

GeneratorParams small_params(std::uint64_t seed) {
  GeneratorParams p;
  p.seed = seed;
  p.applications = 2;
  p.processes_per_app_max = 3;
  return p;
}

/// Random sub-allocations of the full unit set, always including the full
/// and empty sets so both lattice extremes are exercised.
std::vector<AllocSet> sample_allocs(const CompiledSpec& cs, Rng& rng,
                                    std::size_t n) {
  std::vector<AllocSet> out;
  out.push_back(full_alloc(cs));
  out.push_back(cs.make_alloc_set());
  for (std::size_t k = 0; k < n; ++k) {
    AllocSet a = cs.make_alloc_set();
    for (std::size_t u = 0; u < a.size(); ++u)
      if (rng.chance(0.6)) a.set(u);
    out.push_back(a);
  }
  return out;
}

TEST(LatticeMonotonicity, FeasibilityIsMonotoneOnGeneratedSpecs) {
  for (std::uint64_t seed : {1u, 7u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SpecificationGraph spec = generate_spec(small_params(seed));
    const CompiledSpec& cs = spec.compiled();
    const std::vector<Eca> ecas = full_ecas(cs, /*limit=*/4);
    if (ecas.empty()) continue;
    Rng rng(seed * 77 + 1);
    const std::vector<AllocSet> samples = sample_allocs(cs, rng, 6);

    for (const Eca& eca : ecas) {
      for (const AllocSet& a : samples) {
        SolverStats st;
        (void)solve_binding(cs, a, eca, {}, &st);
        if (st.outcome == SolveOutcome::kFeasible) {
          // Adding any unit must preserve feasibility.
          for (std::size_t u = 0; u < a.size(); ++u) {
            if (a.test(u)) continue;
            AllocSet up = a;
            up.set(u);
            SolverStats st2;
            EXPECT_TRUE(solve_binding(cs, up, eca, {}, &st2).has_value())
                << "feasible(A) but infeasible(A ∪ {" << u << "})";
          }
        } else {
          ASSERT_EQ(st.outcome, SolveOutcome::kInfeasible);
          // Removing any unit must preserve infeasibility.
          for (std::size_t u = 0; u < a.size(); ++u) {
            if (!a.test(u)) continue;
            AllocSet down = a;
            down.reset(u);
            SolverStats st2;
            EXPECT_FALSE(solve_binding(cs, down, eca, {}, &st2).has_value())
                << "infeasible(A) but feasible(A \\ {" << u << "})";
          }
        }
      }
    }
  }
}

TEST(LatticeMonotonicity, CachedVerdictsMatchTheRawSolverOnARandomStream) {
  for (std::uint64_t seed : {3u, 11u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SpecificationGraph spec = generate_spec(small_params(seed));
    const CompiledSpec& cs = spec.compiled();
    const std::vector<Eca> ecas = full_ecas(cs, /*limit=*/4);
    if (ecas.empty()) continue;
    Rng rng(seed * 31 + 5);

    BindCache cache;
    std::uint64_t queries = 0;
    for (int round = 0; round < 2; ++round) {  // round 2 replays → hits
      for (const Eca& eca : ecas) {
        for (const AllocSet& a : sample_allocs(cs, rng, 8)) {
          SolverStats raw_stats;
          const bool raw =
              solve_binding(cs, a, eca, {}, &raw_stats).has_value();
          SolverStats cached_stats;
          const std::optional<Binding> got =
              cache.solve(cs, a, eca, {}, &cached_stats);
          ++queries;
          EXPECT_EQ(got.has_value(), raw) << "cache verdict diverged";
          EXPECT_EQ(cached_stats.outcome, raw_stats.outcome);
          if (got.has_value()) {
            EXPECT_TRUE(binding_feasible(cs, a, eca, *got))
                << "cached witness fails full revalidation";
          }
        }
      }
    }
    const BindCacheStats cstats = cache.stats();
    EXPECT_EQ(cstats.misses + cstats.hits_feasible + cstats.hits_infeasible,
              queries);
    EXPECT_GT(cstats.hits_feasible + cstats.hits_infeasible, 0u);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: explore with the cache on and off must produce bit-identical
// fronts and pruning-relevant stats; the cache only saves solver nodes.
// ---------------------------------------------------------------------------

void expect_pruning_stats_equal(const ExploreStats& on,
                                const ExploreStats& off) {
  EXPECT_EQ(on.candidates_generated, off.candidates_generated);
  EXPECT_EQ(on.dominated_skipped, off.dominated_skipped);
  EXPECT_EQ(on.possible_allocations, off.possible_allocations);
  EXPECT_EQ(on.flexibility_estimations, off.flexibility_estimations);
  EXPECT_EQ(on.bound_skipped, off.bound_skipped);
  EXPECT_EQ(on.implementation_attempts, off.implementation_attempts);
  EXPECT_EQ(on.solver_calls, off.solver_calls);
  EXPECT_EQ(on.branches_pruned, off.branches_pruned);
}

TEST(BindCacheExplore, SettopFrontAndPruningStatsMatchCacheOff) {
  ExploreOptions with_cache;
  ExploreOptions without_cache;
  without_cache.implementation.use_bind_cache = false;

  const ExploreResult on = explore(settop(), with_cache);
  const ExploreResult off = explore(settop(), without_cache);
  ASSERT_TRUE(on.status.ok());
  ASSERT_TRUE(off.status.ok());

  expect_fronts_equal(on, off);
  expect_pruning_stats_equal(on.stats, off.stats);
  EXPECT_EQ(on.stats.solver_calls, 148u);  // pinned seed value

  EXPECT_GT(on.stats.cache_hits_feasible + on.stats.cache_hits_infeasible, 0u);
  EXPECT_GT(on.stats.cache_entries, 0u);
  EXPECT_LT(on.stats.solver_nodes, off.stats.solver_nodes);
  EXPECT_EQ(off.stats.cache_hits_feasible, 0u);
  EXPECT_EQ(off.stats.cache_hits_infeasible, 0u);
  EXPECT_EQ(off.stats.cache_revalidations, 0u);
  EXPECT_EQ(off.stats.cache_entries, 0u);
}

TEST(BindCacheExplore, DecoderFrontAndPruningStatsMatchCacheOff) {
  ExploreOptions with_cache;
  with_cache.stop_at_max_flexibility = false;
  ExploreOptions without_cache = with_cache;
  without_cache.implementation.use_bind_cache = false;

  const ExploreResult on = explore(decoder(), with_cache);
  const ExploreResult off = explore(decoder(), without_cache);
  ASSERT_TRUE(on.status.ok());
  ASSERT_TRUE(off.status.ok());

  expect_fronts_equal(on, off);
  expect_pruning_stats_equal(on.stats, off.stats);
  EXPECT_LE(on.stats.solver_nodes, off.stats.solver_nodes);
}

TEST(BindCacheExplore, ParallelSharedCacheFrontMatchesSequential) {
  ExploreOptions options;
  options.num_threads = 4;
  ExploreOptions no_cache = options;
  no_cache.implementation.use_bind_cache = false;

  const ExploreResult par_on = parallel_explore(settop(), options);
  const ExploreResult par_off = parallel_explore(settop(), no_cache);
  const ExploreResult seq = explore(settop(), ExploreOptions{});
  ASSERT_TRUE(par_on.status.ok());
  ASSERT_TRUE(par_off.status.ok());
  ASSERT_TRUE(seq.status.ok());

  expect_fronts_equal(par_on, par_off);
  expect_fronts_equal(par_on, seq);
  // No counter assertions between the two parallel runs: the in-band
  // flexibility bound reads sibling results as they land, so parallel work
  // counters are schedule-dependent (see docs/ROBUSTNESS.md) — only the
  // front is deterministic.
  EXPECT_GT(par_on.stats.cache_hits_feasible +
                par_on.stats.cache_hits_infeasible,
            0u);
  EXPECT_EQ(par_off.stats.cache_hits_feasible, 0u);
  EXPECT_EQ(par_off.stats.cache_hits_infeasible, 0u);
}

TEST(BindCacheExplore, GeneratedSpecFrontMatchesCacheOff) {
  const SpecificationGraph spec = generate_spec(small_params(42));
  ExploreOptions with_cache;
  with_cache.stop_at_max_flexibility = false;
  ExploreOptions without_cache = with_cache;
  without_cache.implementation.use_bind_cache = false;

  const ExploreResult on = explore(spec, with_cache);
  const ExploreResult off = explore(spec, without_cache);
  ASSERT_TRUE(on.status.ok());
  ASSERT_TRUE(off.status.ok());
  expect_fronts_equal(on, off);
  expect_pruning_stats_equal(on.stats, off.stats);
  EXPECT_LE(on.stats.solver_nodes, off.stats.solver_nodes);
}

// Regression: with a one-entry flatten LRU every query used to re-flatten
// its ECA (once for the analyzer prefilter, once for the witness
// revalidation), so cycling ECAs evicted on nearly every query.  The bind
// cache pins each ECA's flattening, so a run flattens each distinct
// selection at most once whatever the budget — and changes nothing else.
void expect_no_flatten_thrash(SpecificationGraph (*make_spec)(),
                              const ExploreOptions& options) {
  const SpecificationGraph tight = make_spec();
  tight.compiled().set_flat_cache_budget(/*max_entries=*/1, /*max_bytes=*/0);
  const SpecificationGraph unlimited = make_spec();
  unlimited.compiled().set_flat_cache_budget(0, 0);

  const ExploreResult a = explore(tight, options);
  const ExploreResult b = explore(unlimited, options);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  expect_fronts_equal(a, b);
  const ExploreStats& x = a.stats;
  const ExploreStats& y = b.stats;
  EXPECT_EQ(x.candidates_generated, y.candidates_generated);
  EXPECT_EQ(x.dominated_skipped, y.dominated_skipped);
  EXPECT_EQ(x.possible_allocations, y.possible_allocations);
  EXPECT_EQ(x.flexibility_estimations, y.flexibility_estimations);
  EXPECT_EQ(x.bound_skipped, y.bound_skipped);
  EXPECT_EQ(x.implementation_attempts, y.implementation_attempts);
  EXPECT_EQ(x.solver_calls, y.solver_calls);
  EXPECT_EQ(x.solver_nodes, y.solver_nodes);
  EXPECT_EQ(x.cache_hits_feasible, y.cache_hits_feasible);
  EXPECT_EQ(x.cache_hits_infeasible, y.cache_hits_infeasible);
  EXPECT_EQ(x.cache_revalidations, y.cache_revalidations);
  EXPECT_EQ(x.cache_entries, y.cache_entries);
  EXPECT_EQ(x.branches_pruned, y.branches_pruned);
  EXPECT_EQ(x.analysis_pruned, y.analysis_pruned);
  EXPECT_EQ(x.hier_subsolves, y.hier_subsolves);
  EXPECT_EQ(x.hier_hits, y.hier_hits);
  EXPECT_EQ(x.exhausted, y.exhausted);
  EXPECT_EQ(x.stop_reason, y.stop_reason);
  EXPECT_EQ(x.frontier_remaining, y.frontier_remaining);
  EXPECT_EQ(y.flat_cache_evictions, 0u);

  std::set<std::vector<std::pair<std::uint32_t, std::uint32_t>>> selections;
  for (const Eca& eca : full_ecas(tight.compiled()))
    selections.insert(eca.selection.key());
  EXPECT_GT(x.solver_calls, selections.size());  // ECAs do repeat
  EXPECT_LE(x.flat_cache_evictions, selections.size());
}

TEST(BindCacheExplore, SettopOneEntryFlattenBudgetDoesNotThrash) {
  expect_no_flatten_thrash(&models::make_settop_spec, ExploreOptions{});
}

TEST(BindCacheExplore, DecoderOneEntryFlattenBudgetDoesNotThrash) {
  ExploreOptions options;
  options.stop_at_max_flexibility = false;
  expect_no_flatten_thrash(&models::make_tv_decoder_spec, options);
}

TEST(BindCacheExplore, NestedTilesOneEntryFlattenBudgetDoesNotThrash) {
  // The split path pins the ECA's flattening too: its prefilter and group
  // slices never go back to the flatten cache.
  ASSERT_TRUE(nested_tiles().compiled().hier_useful());
  expect_no_flatten_thrash(&make_nested_tiles_spec, ExploreOptions{});
}

// ---------------------------------------------------------------------------
// Fault injection: a throw mid-insert must leave the cache sound (at worst
// with a redundant frontier entry) and a parallel run resumable.
// ---------------------------------------------------------------------------

#ifdef SDF_FAULT_INJECTION

struct DisarmGuard {
  DisarmGuard() { FaultInjector::disarm_all(); }
  ~DisarmGuard() { FaultInjector::disarm_all(); }
};

/// The first ECA that is feasible under the full allocation.
const Eca* find_feasible_eca(const CompiledSpec& cs,
                             const std::vector<Eca>& ecas,
                             const AllocSet& alloc) {
  for (const Eca& eca : ecas)
    if (solve_binding(cs, alloc, eca).has_value()) return &eca;
  return nullptr;
}

/// Both inputs of the fault tests: settop solves each ECA as one group,
/// the nested-tile spec splits each ECA into several terminal groups whose
/// inserts carry the same fault sites.
std::vector<const SpecificationGraph*> fault_specs() {
  return {&settop(), &nested_tiles()};
}

TEST(BindCacheFaults, InsertFaultPropagatesAndLeavesTheCacheUsable) {
  DisarmGuard guard;
  for (const SpecificationGraph* spec : fault_specs()) {
    const CompiledSpec& cs = spec->compiled();
    SCOPED_TRACE(cs.hier_useful() ? "split ECA" : "one-group ECA");
    const std::vector<Eca> ecas = full_ecas(cs, /*limit=*/64);
    const AllocSet full = full_alloc(cs);
    const Eca* eca = find_feasible_eca(cs, ecas, full);
    ASSERT_NE(eca, nullptr);

    BindCache cache;
    SolverStats st;
    FaultInjector::arm("bind_cache.insert", FaultKind::kThrow, 1);
    EXPECT_THROW((void)cache.solve(cs, full, *eca, {}, &st),
                 FaultInjectedError);
    FaultInjector::disarm_all();

    // The fault fired before any mutation: nothing was stored.
    EXPECT_EQ(cache.entries(), 0u);
    // The cache is still fully usable and agrees with the raw solver.
    const std::optional<Binding> got = cache.solve(cs, full, *eca, {}, &st);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(binding_feasible(cs, full, *eca, *got));
    // One stored fact per group: the ECA itself, or each terminal group.
    if (cs.hier_useful()) {
      EXPECT_GT(cache.entries(), 1u);
    } else {
      EXPECT_EQ(cache.entries(), 1u);
    }
    EXPECT_EQ(cache.stats().misses, 1 + cache.entries());
  }
}

TEST(BindCacheFaults, MergeFaultIsBuildAsideOrNothing) {
  DisarmGuard guard;
  for (const SpecificationGraph* spec : fault_specs()) {
    const CompiledSpec& cs = spec->compiled();
    SCOPED_TRACE(cs.hier_useful() ? "split ECA" : "one-group ECA");
    const std::vector<Eca> ecas = full_ecas(cs, /*limit=*/64);
    const AllocSet full = full_alloc(cs);
    const Eca* eca = find_feasible_eca(cs, ecas, full);
    ASSERT_NE(eca, nullptr);

    BindCache cache;
    SolverStats st;
    // The merge fault fires after the extended frontier is built aside but
    // before the swap: the exception escapes and the stored frontier is
    // untouched — no fact stored, no torn frontier.
    FaultInjector::arm("bind_cache.merge", FaultKind::kThrow, 1);
    EXPECT_THROW((void)cache.solve(cs, full, *eca, {}, &st),
                 FaultInjectedError);
    FaultInjector::disarm_all();
    EXPECT_EQ(cache.entries(), 0u);  // build-aside discarded with the throw

    // The next query re-solves every group (misses, not a fabricated hit)
    // and stores one fact per group.
    const std::optional<Binding> got = cache.solve(cs, full, *eca, {}, &st);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(binding_feasible(cs, full, *eca, *got));
    const std::uint64_t groups = cache.entries();
    if (cs.hier_useful()) {
      EXPECT_GT(groups, 1u);
    } else {
      EXPECT_EQ(groups, 1u);
    }
    EXPECT_EQ(cache.stats().misses, 1 + groups);

    // ...and the published facts serve hits again.
    const std::optional<Binding> hit = cache.solve(cs, full, *eca, {}, &st);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(binding_feasible(cs, full, *eca, *hit));
    EXPECT_EQ(cache.stats().hits_feasible, groups);
  }
}

TEST(BindCacheFaults, CacheFaultInAParallelRunIsResumable) {
  DisarmGuard guard;
  const SpecificationGraph spec = models::make_settop_spec();
  ExploreOptions options;
  options.num_threads = 2;

  FaultInjector::arm("bind_cache.insert", FaultKind::kThrow, 5);
  const ExploreResult broken = parallel_explore(spec, options);
  FaultInjector::disarm_all();

  ASSERT_FALSE(broken.status.ok());
  EXPECT_EQ(broken.stats.stop_reason, StopReason::kWorkerError);
  ASSERT_TRUE(broken.checkpoint.has_value());

  // The cache is derived data: the resumed run starts with a cold cache
  // and must still reproduce the uninterrupted front bit-identically.
  ExploreOptions resumed_options = options;
  resumed_options.resume = &*broken.checkpoint;
  const ExploreResult finished = parallel_explore(spec, resumed_options);
  ASSERT_TRUE(finished.status.ok()) << finished.status.error().message;
  EXPECT_EQ(finished.stats.stop_reason, StopReason::kCompleted);

  const ExploreResult uninterrupted = parallel_explore(spec, options);
  expect_fronts_equal(finished, uninterrupted);
}

#endif  // SDF_FAULT_INJECTION

}  // namespace
}  // namespace sdf
