// Run budgets and cooperative cancellation for anytime exploration.
//
// The binding problem at the heart of EXPLORE is NP-complete, so a
// production run must survive inputs it cannot finish.  A `RunBudget`
// bounds a run three ways — wall-clock deadline, total binding-solver
// search nodes, and evaluated candidate allocations — and carries a
// `CancelToken` another thread can trip at any time.  Engines construct
// one `BudgetTracker` per run and consult it cooperatively: once per
// candidate allocation on the driving thread and once per solver node
// inside the backtracking loop (workers included; all counters are
// atomic).  Exhaustion is *sticky*: the first limit to trip records the
// `StopReason` and every later check fails fast, so a tripped run winds
// down at every granularity without ever blocking.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace sdf {

/// Why a run stopped early; `kCompleted` means the budget never interfered.
enum class StopReason : std::uint8_t {
  kCompleted = 0,
  kDeadline,      ///< wall-clock deadline expired
  kSolverNodes,   ///< solver-node budget exhausted
  kAllocations,   ///< candidate-allocation budget exhausted
  kCancelled,     ///< CancelToken tripped
  kWorkerError,   ///< a worker task failed (see ExploreResult::status)
};

[[nodiscard]] const char* stop_reason_name(StopReason reason);

/// Shared-state cancellation handle.  Copies observe the same flag, so the
/// caller can keep one copy and hand another to a long-running engine;
/// `request_cancel()` is safe from any thread (e.g. a signal-watching or
/// UI thread) and is permanent for the lifetime of the token's state.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() const { flag_->store(true, std::memory_order_release); }
  [[nodiscard]] bool cancel_requested() const {
    return flag_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Limits for one exploration run.  Zero means unlimited; the default
/// budget never interrupts anything.
struct RunBudget {
  /// Wall-clock deadline, measured from `BudgetTracker` construction.
  double deadline_seconds = 0.0;
  /// Total binding-solver decision nodes across every solver call.
  std::uint64_t max_solver_nodes = 0;
  /// Candidate allocations drained from the enumeration stream.
  std::uint64_t max_allocations = 0;
  /// Cooperative cancellation; checked at the same points as the limits.
  CancelToken cancel;

  [[nodiscard]] bool limited() const {
    return deadline_seconds > 0.0 || max_solver_nodes != 0 ||
           max_allocations != 0;
  }
};

/// Live accounting of one run against its `RunBudget`.  Thread-safe: the
/// solver charges nodes from worker threads while the driving thread
/// charges allocations.  All charge/check calls return false once any
/// limit has tripped (sticky).
class BudgetTracker {
 public:
  explicit BudgetTracker(const RunBudget& budget);

  /// Charges one solver decision node.  O(1): an atomic increment plus a
  /// relaxed flag load; the deadline clock is sampled every 1024 nodes.
  bool charge_solver_node();

  /// Charges one candidate allocation (driving thread, once per candidate).
  /// Also samples the deadline/cancellation state.
  bool charge_allocation() { return charge_allocations(1); }

  /// Charges `n` candidate allocations at once, sampling the deadline and
  /// cancellation state once per call (runs of candidates the §5 filter
  /// drops inside the stream are charged this way).
  bool charge_allocations(std::uint64_t n);

  /// Re-checks deadline and cancellation without charging anything.
  bool check();

  [[nodiscard]] bool exhausted() const {
    return reason_.load(std::memory_order_acquire) != StopReason::kCompleted;
  }
  /// First limit that tripped; `kCompleted` while none has.
  [[nodiscard]] StopReason reason() const {
    return reason_.load(std::memory_order_acquire);
  }
  /// Marks the run stopped because a worker task failed.
  void note_worker_error() { trip(StopReason::kWorkerError); }

  /// Allocations the cap still admits (UINT64_MAX without a cap).  Unlike
  /// `charge_allocation` this neither charges nor trips: band-based engines
  /// probe the cap *before* drawing the candidate that would exceed it, so
  /// the already-charged band can still be evaluated (a tripped tracker is
  /// sticky and would abort every in-flight solve).
  [[nodiscard]] std::uint64_t allocations_left() const {
    if (max_allocations_ == 0) return UINT64_MAX;
    const std::uint64_t used = allocations_.load(std::memory_order_relaxed);
    return used < max_allocations_ ? max_allocations_ - used : 0;
  }
  /// Records the allocation-cap stop detected via `allocations_left`
  /// (after the in-flight band has been merged).
  void note_allocations_exhausted() { trip(StopReason::kAllocations); }

  [[nodiscard]] std::uint64_t solver_nodes_charged() const {
    return nodes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t allocations_charged() const {
    return allocations_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Records the first stop reason (later trips keep the original) and
  /// returns false for tail-calling from the charge methods.
  bool trip(StopReason reason);
  bool deadline_or_cancel_tripped();

  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::uint64_t max_nodes_ = 0;
  std::uint64_t max_allocations_ = 0;
  CancelToken cancel_;

  std::atomic<std::uint64_t> nodes_{0};
  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<StopReason> reason_{StopReason::kCompleted};
};

}  // namespace sdf
