// A small work-stealing thread pool.
//
// Built for the parallel EXPLORE engine: a band of expensive, independent
// candidate evaluations is fanned out with `parallel_for`, whose iterations
// vary wildly in cost (a dominance-filtered candidate returns in
// microseconds, a binding solve can take milliseconds).  Its participants
// — the caller plus one queued task per worker — each claim the next index
// from a shared counter, so a slow iteration never strands the rest and a
// fast one costs one atomic increment.  Tasks queued with `submit()` go to
// per-worker deques; a worker pops its own work LIFO (cache-warm) and
// steals FIFO from its siblings when it runs dry.
//
// Exception safety: a throwing task never deadlocks or leaks the pool.  The
// worker catches the exception, keeps draining, and the first captured
// error is surfaced as a `Status` from `wait_idle()` / `parallel_for()` —
// remaining tasks still run (expected-failure paths in the library use
// Result<T>; an exception here is exceptional, e.g. an injected fault or
// bad_alloc, and the caller decides how to wind down).
//
// The pool is deliberately minimal: no futures, no task graph, no
// priorities.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.hpp"

namespace sdf {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 means one per hardware thread.
  explicit ThreadPool(std::size_t workers = 0);
  /// Drains remaining work, then joins all workers.  A pending task error
  /// that was never collected is logged and dropped (destructors cannot
  /// return a Status).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Enqueues one task.  Callable from any thread, including workers.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.  The calling thread
  /// helps execute queued work while it waits instead of idling.  Returns
  /// the first error any task threw since the last collection (the error
  /// slot is cleared), or Ok.
  [[nodiscard]] Status wait_idle();

  /// Runs `fn(0) .. fn(n-1)` across the pool and blocks until all complete.
  /// Up to `worker_count() + 1` participants (the caller included) claim
  /// indices from a shared counter, so the cost per index is one atomic
  /// increment, not one queued task.  Iterations are independent; no
  /// ordering is guaranteed.  A throwing iteration does not stop the
  /// others; the first error is returned.
  [[nodiscard]] Status parallel_for(std::size_t n,
                                    const std::function<void(std::size_t)>& fn);

  /// `std::thread::hardware_concurrency()` with a sane floor of 1.
  [[nodiscard]] static std::size_t hardware_threads();

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  /// Pops from `self`'s back (LIFO) or steals from another queue's front
  /// (FIFO).  Returns an empty function when no work is available.
  std::function<void()> take_task(std::size_t self);
  /// Queues `task` without the per-task fault site `submit()` adds.
  void enqueue(std::function<void()> task);
  /// Keeps `error` unless an earlier task error is still uncollected.
  void record_error(std::exception_ptr error);
  void worker_loop(std::size_t index);
  bool run_one(std::size_t self);  ///< executes one task if available
  /// Swaps out the first captured task error and renders it as a Status.
  [[nodiscard]] Status collect_error();

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex idle_mu_;
  std::condition_variable work_cv_;   ///< wakes sleeping workers
  std::condition_variable idle_cv_;   ///< wakes wait_idle()
  std::size_t in_flight_ = 0;         ///< submitted but not finished
  std::size_t queued_ = 0;            ///< sitting in a deque, not yet taken
  std::size_t next_queue_ = 0;        ///< round-robin for external submits
  bool stop_ = false;
  std::exception_ptr first_error_;    ///< first uncaught task exception
};

}  // namespace sdf
