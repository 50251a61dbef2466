// The EXPLORE engine: cost-band evaluation with a deterministic merge.
//
// EXPLORE inspects candidates in (cost, lex) order; all of the
// per-candidate work — the §5 dominance filter, activatability,
// flexibility estimation, and the NP-complete binding construction — is
// independent between candidates.  This engine drains the
// `CostOrderedAllocations` stream in *bands* (batches of consecutive
// candidates, grouped into levels of equal allocation cost), evaluates a
// band concurrently on a work-stealing thread pool, and then merges the
// band's results on one thread in the original stream order, applying
// EXPLORE's acceptance rules.  The §5 filter runs while a band is drawn:
// dominated candidates are dropped inside the stream
// (`next_undominated`) and never take a band slot.  It is the only cost-ordered candidate loop:
// `explore()` runs it at one thread with a band of one (the paper's
// one-at-a-time loop), `parallel_explore()` at `num_threads`, and
// `explore_upgrades()` (incremental.hpp) at one thread over the stream
// with a frozen base.
//
// Determinism.  The merge is the only place the Pareto front, the
// equivalents lists and the incumbent f_cur are updated, and it always
// runs in stream order — so the front is bit-identical for any thread
// count and any band capacity.  Concurrency only decides *which*
// candidates get fully evaluated versus pruned early, and the pruning
// rules are chosen so that a candidate skipped in a band could never have
// contributed to the one-at-a-time front:
//   - the committed incumbent (merged bands and earlier levels of the
//     current band) precedes every candidate of the current level in
//     stream order, so the one-at-a-time incumbent at that candidate is at
//     least as large — the usual bound comparison applies;
//   - within one level (equal cost) the bound is applied *strictly*: a
//     concurrently found implementation with strictly higher flexibility
//     at the same cost always pops this candidate's point during the
//     merge, whatever the order, so skipping it is safe even in
//     `collect_equivalents` mode (ties are never skipped).
// The shared incumbents are plain atomic maxima; stale reads only cause
// extra implementation attempts, never a different front.
#pragma once

#include <cstddef>
#include <cstdint>

#include "explore/explorer.hpp"

namespace sdf {

/// Runs EXPLORE on `spec` with `options.num_threads` evaluation threads
/// (0 = one per hardware thread).  `front`, `equivalents`, `max_flexibility`
/// and `stats.exhausted` are bit-identical to `explore(spec, options)` at
/// any thread count.  At one thread every deterministic work counter is
/// identical too; with more, work counters (implementation attempts, bound
/// skips) may differ because workers prune against a slightly stale
/// incumbent.
[[nodiscard]] ExploreResult parallel_explore(const SpecificationGraph& spec,
                                             const ExploreOptions& options = {});

/// The adaptive band controller's step (more than one thread, no pinned
/// `band_capacity`): the capacity of the next band, given the capacity of
/// the band just merged and how many of its candidates reached an
/// implementation attempt.  The setpoint is max(2 * threads, 8) attempts
/// per band: mostly-filtered bands double the capacity so the merge
/// barrier stops dominating, attempt-heavy bands halve it so workers
/// evaluate against a fresher incumbent.  The result stays within
/// [max(threads, 4), max(8 * threads, 4096)].
[[nodiscard]] std::size_t next_band_capacity(std::size_t capacity,
                                             std::uint64_t attempted,
                                             std::size_t threads);

}  // namespace sdf
