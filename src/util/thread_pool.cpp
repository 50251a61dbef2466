#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/fault_injection.hpp"
#include "util/log.hpp"

namespace sdf {
namespace {

constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);

// Which pool (if any) the current thread belongs to, and its index there.
// Lets submit() from inside a task go to the submitting worker's own deque.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_index = kNoWorker;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = hardware_threads();
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  if (Status s = wait_idle(); !s.ok())
    log_warn("thread pool destroyed with uncollected task error: " +
             s.error().message);
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void ThreadPool::submit(std::function<void()> task) {
  enqueue([task = std::move(task)] {
    SDF_FAULT_POINT("thread_pool.task");
    task();
  });
}

void ThreadPool::enqueue(std::function<void()> task) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    ++in_flight_;
    ++queued_;
    target = (tl_pool == this) ? tl_index : next_queue_++ % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
  idle_cv_.notify_all();  // a helping wait_idle() caller may want this task
}

void ThreadPool::record_error(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(idle_mu_);
  if (!first_error_) first_error_ = std::move(error);
}

std::function<void()> ThreadPool::take_task(std::size_t self) {
  auto pop = [](WorkerQueue& q, bool lifo) -> std::function<void()> {
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.tasks.empty()) return {};
    std::function<void()> task;
    if (lifo) {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
    } else {
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
    }
    return task;
  };
  auto book = [this](std::function<void()> task) {
    std::lock_guard<std::mutex> lock(idle_mu_);
    --queued_;
    return task;
  };

  // Own deque first, newest task (LIFO: it is the cache-warm one).
  if (self != kNoWorker)
    if (std::function<void()> task = pop(*queues_[self], /*lifo=*/true))
      return book(std::move(task));
  // Steal the oldest task (FIFO) from a sibling.
  const std::size_t n = queues_.size();
  const std::size_t start = self == kNoWorker ? 0 : self + 1;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == self) continue;
    if (std::function<void()> task = pop(*queues_[victim], /*lifo=*/false))
      return book(std::move(task));
  }
  return {};
}

bool ThreadPool::run_one(std::size_t self) {
  std::function<void()> task = take_task(self);
  if (!task) return false;
  // The in_flight_ decrement below runs on EVERY path out of the task —
  // a throwing task must never strand wait_idle() or deadlock the pool.
  try {
    task();
  } catch (...) {
    record_error(std::current_exception());
  }
  bool idle;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    idle = --in_flight_ == 0;
  }
  if (idle) idle_cv_.notify_all();
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_index = index;
  for (;;) {
    if (run_one(index)) continue;
    std::unique_lock<std::mutex> lock(idle_mu_);
    // queued_ may be stale by the time we re-scan the deques (another worker
    // stole first); waking spuriously just loops back to run_one.
    work_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
    if (stop_) return;
  }
}

Status ThreadPool::collect_error() {
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    std::swap(err, first_error_);
  }
  if (!err) return Status::Ok();
  try {
    std::rethrow_exception(err);
  } catch (const std::bad_alloc&) {
    return Error{"worker task failed: allocation failure (bad_alloc)"};
  } catch (const std::exception& e) {
    return Error{std::string("worker task failed: ") + e.what()};
  } catch (...) {
    return Error{"worker task failed with a non-standard exception"};
  }
}

Status ThreadPool::wait_idle() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(idle_mu_);
      if (in_flight_ == 0) break;
    }
    // Help: execute queued work instead of blocking the caller's core.
    if (run_one(tl_pool == this ? tl_index : kNoWorker)) continue;
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock,
                  [this] { return in_flight_ == 0 || queued_ > 0; });
    if (in_flight_ == 0) break;
  }
  return collect_error();
}

Status ThreadPool::parallel_for(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return Status::Ok();
  // Every participant claims the next index from one shared counter, one
  // index at a time: a band mixes sub-microsecond filter rejections with
  // millisecond solves, so any larger chunk could strand the slow ones
  // behind one participant.  Each index catches its own error, so the
  // others still run.
  std::atomic<std::size_t> next{0};
  auto drain = [this, n, &next, &fn] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        SDF_FAULT_POINT("thread_pool.task");
        fn(i);
      } catch (...) {
        record_error(std::current_exception());
      }
    }
  };
  // The caller is one participant; wait_idle() keeps this frame (and so
  // `next`) alive until every helper has returned.
  const std::size_t helpers = std::min(n, workers_.size() + 1) - 1;
  for (std::size_t k = 0; k < helpers; ++k) enqueue(drain);
  drain();
  return wait_idle();
}

}  // namespace sdf
