#include "util/run_budget.hpp"

namespace sdf {

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kCompleted: return "completed";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kSolverNodes: return "solver_nodes";
    case StopReason::kAllocations: return "allocations";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kWorkerError: return "worker_error";
  }
  return "?";
}

BudgetTracker::BudgetTracker(const RunBudget& budget)
    : max_nodes_(budget.max_solver_nodes),
      max_allocations_(budget.max_allocations),
      cancel_(budget.cancel) {
  if (budget.deadline_seconds > 0.0) {
    has_deadline_ = true;
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       budget.deadline_seconds));
  }
}

bool BudgetTracker::trip(StopReason reason) {
  StopReason expected = StopReason::kCompleted;
  reason_.compare_exchange_strong(expected, reason, std::memory_order_acq_rel,
                                  std::memory_order_acquire);
  return false;
}

bool BudgetTracker::deadline_or_cancel_tripped() {
  if (cancel_.cancel_requested()) return !trip(StopReason::kCancelled);
  if (has_deadline_ && Clock::now() >= deadline_)
    return !trip(StopReason::kDeadline);
  return false;
}

bool BudgetTracker::charge_solver_node() {
  const std::uint64_t n = nodes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (exhausted()) return false;
  if (max_nodes_ != 0 && n > max_nodes_) return trip(StopReason::kSolverNodes);
  // Sampling the clock / cancel flag every node would dominate the solver's
  // inner loop; once per 1024 nodes bounds the overshoot to microseconds.
  if ((n & 1023u) == 0 && deadline_or_cancel_tripped()) return false;
  return true;
}

bool BudgetTracker::charge_allocations(std::uint64_t n) {
  const std::uint64_t total =
      allocations_.fetch_add(n, std::memory_order_relaxed) + n;
  if (exhausted()) return false;
  if (max_allocations_ != 0 && total > max_allocations_)
    return trip(StopReason::kAllocations);
  if (deadline_or_cancel_tripped()) return false;
  return true;
}

bool BudgetTracker::check() {
  if (exhausted()) return false;
  return !deadline_or_cancel_tripped();
}

}  // namespace sdf
