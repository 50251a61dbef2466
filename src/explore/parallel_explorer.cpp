// The one cost-ordered EXPLORE engine behind `explore()`,
// `parallel_explore()` and `explore_upgrades()`; see parallel_explorer.hpp.
#include "explore/parallel_explorer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>
#include <vector>

#include "analysis/analysis.hpp"
#include "bind/bind_cache.hpp"
#include "explore/allocation_enum.hpp"
#include "explore/incremental.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "spec/compiled.hpp"
#include "util/fault_injection.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace sdf {
namespace {

using Clock = std::chrono::steady_clock;

/// Most dominated candidates one `next_undominated` call may drop: the
/// deadline and cancel state are sampled once per run of skips.
constexpr std::uint64_t kSkipChunk = 1024;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Monotone shared maximum (flexibilities are non-negative).
class AtomicMax {
 public:
  void update(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_release,
                          std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double get() const {
    return value_.load(std::memory_order_acquire);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// One band slot: the candidate, its evaluation outcome, and the work
/// counters accumulated while evaluating it (reduced into ExploreStats on
/// the merge thread — workers never touch shared stats).
struct BandCandidate {
  AllocSet alloc;
  double cost = 0.0;
  std::size_t level = 0;  ///< contiguous equal-cost group within the band
  std::optional<Implementation> impl;
  /// The run budget tripped before/while this candidate was evaluated; its
  /// outcome is unknown and it must be re-evaluated (never merged, never
  /// reported infeasible).
  bool budget_aborted = false;

  std::uint64_t possible_allocations = 0;
  std::uint64_t flexibility_estimations = 0;
  std::uint64_t bound_skipped = 0;
  std::uint64_t implementation_attempts = 0;
  ImplementationStats istats;
  double filter_seconds = 0.0;
  double implement_seconds = 0.0;
};

/// Run-wide state every band worker reads (the tracker is synchronized).
struct EvalContext {
  const CompiledSpec& cs;
  const ExploreOptions& options;
  const ImplementationOptions& impl;
  /// Non-null iff the analyzer's allocation bound filters candidates.
  const SpecAnalysis* bound_analysis;
  BudgetTracker& tracker;
  /// Read the per-candidate phase timers (only worth it with > 1 thread).
  bool timed;
};

/// The cheap filters after §5 dominance (applied at band assembly) in the
/// paper's order — the opt-in analysis bound, activatability, the
/// flexibility-estimate bound.  True iff the candidate reaches the binding
/// construction.  `committed_f` is the incumbent after the last merged
/// band; `level_best` shares implemented flexibilities between concurrent
/// workers, per cost level.
bool passes_filters(const EvalContext& ctx, double committed_f,
                    const std::vector<AtomicMax>& level_best,
                    BandCandidate& cand) {
  if (ctx.bound_analysis != nullptr &&
      ctx.bound_analysis->allocation_infeasible(cand.alloc)) {
    // Sound proof that no activation of this allocation can be bound.
    ++cand.istats.analysis_pruned;
    return false;
  }
  const Activatability act(ctx.cs, cand.alloc);
  if (!act.root_activatable()) return false;
  ++cand.possible_allocations;
  const std::optional<double> est = act.estimated_flexibility();
  ++cand.flexibility_estimations;
  SDF_CHECK(est.has_value(), "possible allocation without estimate");
  if (!ctx.options.use_flexibility_bound) return true;

  // Everything that precedes this candidate's cost level in stream order
  // (merged bands, lower levels of this band) bounds it the same way the
  // one-at-a-time incumbent would — that incumbent is at least as large as
  // any value read here.
  double preceding = committed_f;
  for (std::size_t l = 0; l < cand.level; ++l)
    preceding = std::max(preceding, level_best[l].get());
  const bool below_preceding =
      ctx.options.collect_equivalents ? *est < preceding : *est <= preceding;
  // Within the own (equal-cost) level the comparison must stay strict in
  // both modes: a sibling implementation with strictly higher flexibility
  // pops this cost from the front at merge whatever the stream order, but
  // a tie must survive (it may be the winner or an equivalent).
  const bool below_level = *est < level_best[cand.level].get();
  if (below_preceding || below_level) {
    ++cand.bound_skipped;
    return false;
  }
  return true;
}

/// The per-candidate work of EXPLORE, minus every front/incumbent mutation
/// (those happen at merge).
void evaluate_candidate(const EvalContext& ctx, double committed_f,
                        std::vector<AtomicMax>& level_best,
                        BandCandidate& cand) {
  SDF_FAULT_POINT("parallel_explore.evaluate");
  if (ctx.tracker.exhausted()) {
    // Wind the band down fast: unevaluated slots go back to the pending
    // queue and are re-drawn after resume.
    cand.budget_aborted = true;
    return;
  }
  const auto t0 = ctx.timed ? Clock::now() : Clock::time_point{};
  const bool survives = passes_filters(ctx, committed_f, level_best, cand);
  if (ctx.timed) cand.filter_seconds = seconds_since(t0);
  if (!survives) return;

  const auto t1 = ctx.timed ? Clock::now() : Clock::time_point{};
  ++cand.implementation_attempts;
  std::optional<Implementation> impl =
      build_implementation(ctx.cs, cand.alloc, ctx.impl, &cand.istats);
  if (ctx.timed) cand.implement_seconds = seconds_since(t1);
  if (cand.istats.budget_exceeded()) {
    cand.budget_aborted = true;
    return;
  }
  if (!impl.has_value()) return;
  level_best[cand.level].update(impl->flexibility);
  cand.impl = std::move(*impl);
}

/// How an entry point drives the engine.
struct EngineRun {
  std::size_t threads = 1;
  /// Candidates per band; 0 = adaptive (see next_band_capacity).
  std::size_t band_capacity = 1;
  /// Fill the band block of ExploreStats (`parallel_explore` only).
  bool band_stats = false;
  /// Upgrade mode: the frozen deployed platform every candidate contains.
  /// Its implemented flexibility is the initial incumbent, costs are
  /// judged relative to it, and no checkpoint is built.
  const AllocSet* base = nullptr;
  /// Upgrade mode: receives the implemented flexibility of `base`.
  double* baseline_flexibility = nullptr;
};

ExploreResult run_engine(const SpecificationGraph& spec,
                         const ExploreOptions& options, const EngineRun& run) {
  const auto t0 = Clock::now();
  const std::size_t threads = run.threads;
  const bool timed = threads > 1;
  // Band sizing.  A fixed capacity pins the size (one candidate per band is
  // the classic one-at-a-time loop); otherwise next_band_capacity steers it
  // by the measured number of implementation attempts per band.  The merged
  // front is band-size invariant (the merge replays exact stream order), so
  // band sizing only shifts wall time, never results.
  const bool adaptive_bands = run.band_capacity == 0;
  std::size_t capacity = adaptive_bands
                             ? std::max<std::size_t>(threads * 8, 16)
                             : run.band_capacity;

  ExploreResult result;
  // Build (or revalidate) the compiled query index on the merge thread
  // before any worker reads it; workers only ever touch immutable state
  // (plus the internally synchronized flatten cache).
  const CompiledSpec& cs = spec.compiled();
  result.stats.index_build_seconds = seconds_since(t0);
  result.max_flexibility = max_flexibility(cs.problem());
  const AllocSet base =
      run.base != nullptr ? *run.base : cs.make_alloc_set();
  const double base_cost = cs.allocation_cost(base);
  result.stats.universe = cs.unit_count() - base.count();
  result.stats.raw_design_points =
      std::pow(2.0, static_cast<double>(result.stats.universe));

  BudgetTracker tracker(options.budget);
  // Workers charge every solver node to the shared tracker; the merge
  // thread charges allocations during band assembly.
  ImplementationOptions eval_impl = options.implementation;
  eval_impl.solver.budget = &tracker;
  // Run-local cache and analyzer, shared by all band workers and rebuilt
  // from scratch on resume (derived data, deliberately not checkpointed —
  // see docs/ROBUSTNESS.md).  The cache locks per shard and only skips
  // work whose outcome is already proven, and every analyzer query is
  // const, so the merged front is the same whatever the thread schedule.
  BindCache cache;
  if (eval_impl.use_bind_cache && eval_impl.bind_cache == nullptr)
    eval_impl.bind_cache = &cache;
  if (eval_impl.use_hier && eval_impl.hier_cache == nullptr)
    eval_impl.hier_cache = &cache;
  std::optional<SpecAnalysis> analysis_store;
  if (eval_impl.use_analysis && eval_impl.analysis == nullptr) {
    analysis_store.emplace(cs, AnalysisOptions{eval_impl.solver});
    eval_impl.analysis = &*analysis_store;
  }
  const SpecAnalysis* analysis =
      eval_impl.use_analysis ? eval_impl.analysis : nullptr;

  double f_cur = 0.0;          // committed incumbent: merged candidates only
  double max_tie_cost = -1.0;  // collect_equivalents end-of-search tie cost

  if (run.base != nullptr) {
    // The deployed platform costs no run budget; evaluating it also warms
    // the caches for its supersets.
    ImplementationOptions base_impl = eval_impl;
    base_impl.solver.budget = nullptr;
    if (const auto impl = build_implementation(cs, base, base_impl))
      f_cur = impl->flexibility;
    *run.baseline_flexibility = f_cur;
  }

  const DominanceContext dominance(cs);
  CostOrderedAllocations stream(cs, base);
  // Candidates a prior interrupted run drained but never evaluated; always
  // consumed before the stream (they precede it in stream order).
  std::deque<AllocSet> pending;

  if (options.resume != nullptr) {
    Result<ExploreResumeState> restored =
        restore_explore_checkpoint(*options.resume, spec, options, stream);
    if (!restored.ok()) {
      result.status = restored.error();
      return result;
    }
    ExploreResumeState& state = restored.value();
    result.front = std::move(state.front);
    for (AllocSet& alloc : state.pending)
      pending.push_back(std::move(alloc));
    if (!result.front.empty()) {
      f_cur = result.front.back().flexibility;
      if (options.stop_at_max_flexibility && options.collect_equivalents &&
          f_cur >= result.max_flexibility - 1e-9)
        max_tie_cost = result.front.back().cost;
    }
    apply_checkpoint_counters(state.counters, result.stats);
    result.stats.resumed = true;
  }

  const bool analysis_bound = options.use_analysis_bound && analysis != nullptr;
  if (options.use_branch_bound || analysis_bound) {
    // Runs on the merge thread during band assembly, against the committed
    // incumbent — a (possibly stale) lower bound on the one-at-a-time f_cur
    // at the same stream position, so it can only prune less, never wrongly.
    stream.set_branch_bound([&, analysis_bound,
                             branch_bound = options.use_branch_bound,
                             collect = options.collect_equivalents](
                                const AllocSet& potential) {
      // Relaxation bound (opt-in): infeasibility is monotone downward in
      // the allocation, so a proof on the optimistic completion covers
      // every descendant of this subtree.
      if (analysis_bound && analysis->allocation_infeasible(potential)) {
        ++result.stats.analysis_pruned;
        return false;
      }
      if (!branch_bound) return true;
      if (f_cur <= 0.0) return true;  // nothing to beat yet
      const std::optional<double> est = estimate_flexibility(cs, potential);
      if (!est.has_value()) return false;
      // Equivalent collection must keep subtrees that can still *tie* the
      // incumbent, not only beat it.
      return collect ? *est >= f_cur : *est > f_cur;
    });
  }

  const EvalContext ctx{cs, options, eval_impl,
                        analysis_bound ? analysis : nullptr, tracker, timed};
  // The §5 filter runs at band assembly: dominated candidates never take a
  // band slot.  Upgrades judge only the added units (the deployed platform
  // is a sunk cost and may hold resources the upgrade does not use), which
  // is also the scope `next_undominated` judges a popped subset with.
  const bool prune_dominated = options.prune_dominated_allocations;
  auto dominated = [&](const AllocSet& alloc) {
    if (run.base == nullptr) return obviously_dominated(cs, dominance, alloc);
    const AllocSet added = alloc - base;
    return obviously_dominated(cs, dominance, alloc, &added);
  };
  // The merge thread helps evaluate via ThreadPool::wait_idle, so the pool
  // holds one worker fewer than the requested thread count.
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads - 1);

  std::vector<BandCandidate> band;
  band.reserve(capacity);
  // Steers the next band's capacity by the implementation attempts of the
  // band just merged.
  auto adapt = [&](std::uint64_t attempted) {
    const std::size_t next = next_band_capacity(capacity, attempted, threads);
    if (next > capacity) ++result.stats.bands_grown;
    if (next < capacity) ++result.stats.bands_shrunk;
    capacity = next;
  };
  std::vector<AtomicMax> level_best;  // one shared maximum per cost level
  // Stream-order candidates the budget forced us to abandon: the band
  // suffix from the first aborted slot, plus the candidate whose
  // allocation charge was refused.  First entry bounds the certificate.
  std::vector<AllocSet> unprocessed;
  bool done = false;        // merge decided the search is over
  bool last_band = false;   // stream dry / candidate budget exhausted
  bool interrupted = false; // run budget tripped or a worker failed
  bool alloc_cap_hit = false; // cap detected pre-trip during assembly
  while (!done && !last_band && !interrupted) {
    // ---- assemble: drain candidates in stream order into one band --------
    const auto ta = timed ? Clock::now() : Clock::time_point{};
    band.clear();
    std::size_t levels = 0;
    // Candidates drawn into this band, dominated ones included: a band
    // spans `capacity` of them, so bands fall where they would if every
    // candidate took a slot, and a mostly-dominated stream is drawn no
    // further past the point where the search stops.
    std::size_t span = 0;
    while (band.empty() || span < capacity) {
      if (span == capacity) {
        // Every candidate of the band was dominated: there is nothing to
        // evaluate, and the next band starts here.  The controller still
        // counts it, with no implementation attempts.
        if (adaptive_bands) adapt(0);
        span = 0;
      }
      std::optional<AllocSet> a;
      bool judged = false;  // drawn through next_undominated
      if (!pending.empty()) {
        a = std::move(pending.front());
        pending.pop_front();
      } else if (prune_dominated && max_tie_cost < 0.0) {
        // Drop a run of dominated candidates inside the stream.  The run
        // stops short of every cap, so the candidate that meets a cap is
        // drawn by next() and takes the one-at-a-time path below, exactly
        // where drawing one candidate at a time would meet it; the chunk
        // keeps the deadline sampled, and a budget already spent draws
        // nothing more.  (The equivalents tie walk draws one at a time: it
        // ends at the first costlier candidate, dominated or not.)
        std::uint64_t limit =
            tracker.check() ? std::min(kSkipChunk, tracker.allocations_left())
                            : 0;
        if (options.max_candidates != 0) {
          const std::uint64_t cap = options.max_candidates;
          limit = std::min(
              limit, cap - std::min(cap, result.stats.candidates_generated));
        }
        // The controller needs every band boundary; a pinned capacity only
        // those of bands that hold a slot.
        if (adaptive_bands || !band.empty())
          limit = std::min<std::uint64_t>(limit, capacity - span);
        std::uint64_t skipped = 0;
        a = limit == 0 ? stream.next()
                       : stream.next_undominated(dominance, limit, skipped);
        judged = limit != 0;
        if (skipped > 0) {
          result.stats.candidates_generated += skipped;
          result.stats.dominated_skipped += skipped;
          span = adaptive_bands || !band.empty() ? span + skipped
                                                 : (span + skipped) % capacity;
          if (!tracker.charge_allocations(skipped)) {
            // Deadline or cancel.  The skipped candidates are settled; the
            // next one is refused like any candidate whose charge fails,
            // and carries the resume position.  A dry stream leaves
            // nothing unsettled.
            if (!a.has_value()) a = stream.next();
            if (!a.has_value()) {
              last_band = true;
              break;
            }
            unprocessed.push_back(std::move(*a));
            interrupted = true;
            break;
          }
        }
        if (!a.has_value() && stream.frontier_size() != 0) continue;
      } else {
        a = stream.next();
      }
      if (!a.has_value()) {
        last_band = true;
        break;
      }
      if (*a == base) continue;  // the stream's base costs no budget
      if (tracker.allocations_left() == 0) {
        // Probe the cap without tripping the (sticky) tracker: the band
        // assembled so far was already charged and must still evaluate.
        // The kAllocations trip is recorded after the merge.
        alloc_cap_hit = true;
        unprocessed.push_back(std::move(*a));
        interrupted = true;
        break;
      }
      if (!tracker.charge_allocation()) {
        unprocessed.push_back(std::move(*a));
        interrupted = true;
        break;
      }
      ++result.stats.candidates_generated;
      if (options.max_candidates != 0 &&
          result.stats.candidates_generated > options.max_candidates) {
        last_band = true;
        break;
      }
      // Costs group a band into levels and end an equivalents walk; a band
      // of one outside such a walk needs neither.
      const double cost = capacity > 1 || max_tie_cost >= 0.0
                              ? cs.allocation_cost(*a)
                              : 0.0;
      if (max_tie_cost >= 0.0 && cost > max_tie_cost) {
        last_band = true;
        break;
      }
      ++span;
      if (prune_dominated && !judged && dominated(*a)) {
        ++result.stats.dominated_skipped;
        continue;
      }
      // Levels group *consecutive* equal-cost candidates; the incumbent-
      // sharing rules in passes_filters rely on every lower level
      // preceding this one in stream order.
      if (band.empty() || cost != band.back().cost) ++levels;
      BandCandidate& cand = band.emplace_back();
      cand.alloc = std::move(*a);
      cand.cost = cost;
      cand.level = levels - 1;
    }
    if (timed) result.stats.enumerate_seconds += seconds_since(ta);
    if (band.empty()) break;
    if (run.band_stats) {
      ++result.stats.bands;
      result.stats.peak_band_size =
          std::max(result.stats.peak_band_size, band.size());
    }

    // ---- evaluate: all candidates of the band, concurrently --------------
    const auto te = timed ? Clock::now() : Clock::time_point{};
    if (level_best.size() < levels)
      level_best = std::vector<AtomicMax>(levels);
    for (std::size_t l = 0; l < levels; ++l) level_best[l].reset();
    const double committed = f_cur;
    Status eval_status;
    if (pool.has_value()) {
      eval_status = pool->parallel_for(band.size(), [&](std::size_t i) {
        evaluate_candidate(ctx, committed, level_best, band[i]);
      });
    } else {
      try {
        for (BandCandidate& cand : band)
          evaluate_candidate(ctx, committed, level_best, cand);
      } catch (const std::exception& e) {
        eval_status =
            Error{std::string("worker task failed: ") + e.what()};
      }
    }
    if (timed) result.stats.evaluate_seconds += seconds_since(te);

    // A failed worker makes every outcome of this band ambiguous (the pool
    // still ran the remaining tasks, but nothing may be trusted): merge
    // none of it, queue the whole band for re-evaluation, and surface the
    // error.  The committed front is untouched, so the run stays resumable.
    std::size_t cutoff = band.size();
    if (!eval_status.ok()) {
      tracker.note_worker_error();
      result.status = eval_status;
      cutoff = 0;
    } else {
      for (std::size_t i = 0; i < band.size(); ++i) {
        if (band[i].budget_aborted) {
          cutoff = i;
          break;
        }
      }
    }
    if (cutoff < band.size()) interrupted = true;

    // ---- merge: stream order, EXPLORE's acceptance rules -----------------
    // Only the band prefix up to the first abandoned candidate is merged;
    // the suffix (abandoned or not) keeps the merge gap-free in stream
    // order and is queued for re-evaluation, with its work charges rolled
    // back (the counters of unmerged slots are simply never accumulated).
    const auto tm = timed ? Clock::now() : Clock::time_point{};
    for (std::size_t i = 0; i < cutoff; ++i) {
      const BandCandidate& cand = band[i];
      ExploreStats& s = result.stats;
      s.possible_allocations += cand.possible_allocations;
      s.flexibility_estimations += cand.flexibility_estimations;
      s.bound_skipped += cand.bound_skipped;
      s.implementation_attempts += cand.implementation_attempts;
      s.solver_calls += cand.istats.solver_calls;
      s.solver_nodes += cand.istats.solver_nodes;
      s.cache_hits_feasible += cand.istats.cache_hits_feasible;
      s.cache_hits_infeasible += cand.istats.cache_hits_infeasible;
      s.cache_revalidations += cand.istats.cache_revalidations;
      s.analysis_pruned += cand.istats.analysis_pruned;
      s.hier_subsolves += cand.istats.hier_subsolves;
      s.hier_hits += cand.istats.hier_hits;
      s.filter_cpu_seconds += cand.filter_seconds;
      s.implement_cpu_seconds += cand.implement_seconds;
    }
    for (std::size_t i = 0; i < cutoff && !done; ++i) {
      BandCandidate& cand = band[i];
      if (max_tie_cost >= 0.0 && cand.cost > max_tie_cost) {
        done = true;
        break;
      }
      if (!cand.impl.has_value()) continue;
      Implementation impl = std::move(*cand.impl);
      if (impl.flexibility <= f_cur) {
        // Equivalent Pareto point: same cost and flexibility as the current
        // front point, different allocation.
        if (options.collect_equivalents && !result.front.empty() &&
            impl.flexibility == f_cur &&
            impl.cost == result.front.back().cost &&
            !(impl.units == result.front.back().units)) {
          result.front.back().equivalents.push_back(std::move(impl));
        }
        continue;
      }
      // Same-cost predecessors with lower flexibility are dominated now.
      while (!result.front.empty() &&
             result.front.back().cost >= impl.cost) {
        result.front.pop_back();
      }
      log_debug(strprintf("EXPLORE: new Pareto point cost=%s f=%s (%s)",
                          format_double(impl.cost).c_str(),
                          format_double(impl.flexibility).c_str(),
                          spec.allocation_names(impl.units).c_str()));
      f_cur = impl.flexibility;
      result.front.push_back(std::move(impl));

      if (options.stop_at_max_flexibility &&
          f_cur >= result.max_flexibility - 1e-9) {
        if (!options.collect_equivalents) {
          done = true;
          break;
        }
        // Keep walking only through the cost tie of the maximal point; the
        // stream is cost-ordered, so the first strictly costlier candidate
        // ends the search.
        max_tie_cost = result.front.back().cost;
      }
    }
    if (timed) result.stats.merge_seconds += seconds_since(tm);

    // ---- adapt: steer the next band's capacity by this band's yield ------
    if (adaptive_bands && eval_status.ok() && cutoff == band.size()) {
      std::uint64_t attempted = 0;
      for (const BandCandidate& cand : band)
        attempted += cand.implementation_attempts;
      adapt(attempted);
    }

    if (cutoff < band.size() && !done) {
      // Roll back the suffix's generation charges and queue it (in stream
      // order, ahead of the charge-refused candidate if any).
      result.stats.candidates_generated -= band.size() - cutoff;
      std::vector<AllocSet> tail;
      tail.reserve(band.size() - cutoff + unprocessed.size());
      for (std::size_t i = cutoff; i < band.size(); ++i) {
        if (band[i].budget_aborted) ++result.stats.budget_abandoned;
        tail.push_back(std::move(band[i].alloc));
      }
      for (AllocSet& a : unprocessed) tail.push_back(std::move(a));
      unprocessed = std::move(tail);
    }
  }

  // `done` wins over a late interruption: once the merge proves the search
  // over, leftover pending work is irrelevant.
  interrupted = interrupted && !done;
  result.stats.exhausted =
      !interrupted && (!options.stop_at_max_flexibility ||
                       f_cur < result.max_flexibility - 1e-9);
  result.stats.branches_pruned = stream.pruned();
  result.stats.frontier_remaining = stream.frontier_size();
  if (run.band_stats) {
    result.stats.threads = threads;
    result.stats.band_capacity_last = capacity;
  }

  if (interrupted) {
    // Leftover resume candidates follow the band/carry entries in stream
    // order.
    for (AllocSet& rest : pending) unprocessed.push_back(std::move(rest));
    SDF_CHECK(!unprocessed.empty(), "interrupted run without pending work");
    if (alloc_cap_hit) tracker.note_allocations_exhausted();
    result.stats.stop_reason = tracker.reason();
    // Completeness certificate: the first unprocessed candidate is the
    // cheapest one the run never finished, so the front is exact below it.
    result.stats.exact_up_to_cost =
        cs.allocation_cost(unprocessed.front()) - base_cost;
    if (run.base == nullptr && options.build_checkpoint) {
      Result<ExploreCheckpoint> ck =
          build_explore_checkpoint(spec, options, result.front, unprocessed,
                                   stream, checkpoint_counters(result.stats));
      if (!ck.ok()) {
        result.status = ck.error();
        result.stats.wall_seconds = seconds_since(t0);
        return result;
      }
      result.checkpoint = std::move(ck).value();
    }
    log_debug(strprintf(
        "EXPLORE: interrupted (%s) after %llu candidates; front exact below "
        "cost %s",
        stop_reason_name(result.stats.stop_reason),
        static_cast<unsigned long long>(result.stats.candidates_generated),
        format_double(result.stats.exact_up_to_cost).c_str()));
  }

  if (const BindCache* used = eval_impl.cache_for(cs); used != nullptr)
    result.stats.cache_entries = used->entries();
  result.stats.flat_cache_entries = cs.flat_cache_entries();
  result.stats.flat_cache_evictions = cs.flat_cache_evictions();

  result.stats.wall_seconds = seconds_since(t0);
  return result;
}

}  // namespace

std::size_t next_band_capacity(std::size_t capacity, std::uint64_t attempted,
                               std::size_t threads) {
  const std::uint64_t target = std::max<std::size_t>(threads * 2, 8);
  const std::size_t min_capacity = std::max<std::size_t>(threads, 4);
  const std::size_t max_capacity = std::max<std::size_t>(threads * 8, 4096);
  if (attempted * 2 < target) return std::min(capacity * 2, max_capacity);
  if (attempted > 2 * target) return std::max(capacity / 2, min_capacity);
  return capacity;
}

ExploreResult explore(const SpecificationGraph& spec,
                      const ExploreOptions& options) {
  return run_engine(spec, options, EngineRun{});
}

ExploreResult parallel_explore(const SpecificationGraph& spec,
                               const ExploreOptions& options) {
  EngineRun run;
  run.threads = options.num_threads != 0 ? options.num_threads
                                         : ThreadPool::hardware_threads();
  // One thread evaluates one candidate at a time: no band to fill.
  run.band_capacity = options.band_capacity != 0 ? options.band_capacity
                      : run.threads == 1         ? 1
                                                 : 0;
  run.band_stats = true;
  return run_engine(spec, options, run);
}

UpgradeResult explore_upgrades(const SpecificationGraph& spec,
                               const AllocSet& existing,
                               const ExploreOptions& options) {
  UpgradeResult result;
  EngineRun run;
  run.base = &existing;
  run.baseline_flexibility = &result.baseline_flexibility;
  ExploreOptions upgrade_options = options;
  upgrade_options.resume = nullptr;  // upgrades build no checkpoint
  ExploreResult explored = run_engine(spec, upgrade_options, run);
  if (!explored.status.ok())
    throw std::runtime_error(explored.status.error().message);

  // Includes any device interface newly brought in by an added
  // configuration (charged once, like allocation_cost itself).
  const double base_cost = spec.compiled().allocation_cost(existing);
  for (Implementation& impl : explored.front) {
    const double upgrade_cost = impl.cost - base_cost;
    result.front.push_back(Upgrade{std::move(impl), upgrade_cost});
  }
  result.max_flexibility = explored.max_flexibility;
  result.stats = explored.stats;
  return result;
}

}  // namespace sdf
