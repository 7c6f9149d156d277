#include "src/exec/task_pool.h"

#include <cassert>
#include <chrono>
#include <stdexcept>

namespace wasabi {

namespace {
// Set around every task call (RunTask), read by task bodies that key
// per-worker state (e.g. interpreter arenas).
thread_local int current_worker = 0;
}  // namespace

int TaskPool::CurrentWorker() { return current_worker; }

int DefaultJobCount() {
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

uint64_t TaskPoolStats::total_tasks() const {
  uint64_t total = 0;
  for (const Worker& worker : workers) {
    total += worker.tasks;
  }
  return total;
}

uint64_t TaskPoolStats::total_steals() const {
  uint64_t total = 0;
  for (const Worker& worker : workers) {
    total += worker.steals;
  }
  return total;
}

int64_t TaskPoolStats::total_busy_us() const {
  int64_t total = 0;
  for (const Worker& worker : workers) {
    total += worker.busy_us;
  }
  return total;
}

TaskPool::TaskPool(int workers) {
  worker_count_ = workers <= 0 ? DefaultJobCount() : workers;
  slots_ = std::vector<Slot>(static_cast<size_t>(worker_count_));
  counters_ = std::vector<WorkerCounters>(static_cast<size_t>(worker_count_));
  threads_.reserve(static_cast<size_t>(worker_count_ - 1));
  for (int w = 1; w < worker_count_; ++w) {
    threads_.emplace_back([this, w] { WorkLoop(w); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

bool TaskPool::PopOwn(int worker, size_t* index) {
  std::atomic<uint64_t>& range = slots_[static_cast<size_t>(worker)].range;
  uint64_t bits = range.load(std::memory_order_acquire);
  while (true) {
    uint32_t next = RangeNext(bits);
    uint32_t end = RangeEnd(bits);
    if (next >= end) {
      return false;
    }
    if (range.compare_exchange_weak(bits, Pack(next + 1, end), std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      *index = next;
      return true;
    }
  }
}

bool TaskPool::Steal(int worker, size_t* index) {
  for (int offset = 1; offset < worker_count_; ++offset) {
    int victim = (worker + offset) % worker_count_;
    std::atomic<uint64_t>& range = slots_[static_cast<size_t>(victim)].range;
    uint64_t bits = range.load(std::memory_order_acquire);
    while (true) {
      uint32_t next = RangeNext(bits);
      uint32_t end = RangeEnd(bits);
      if (next >= end) {
        break;  // Victim is empty; try the next one.
      }
      // Take the back half (rounded up, so a 1-element range is stealable).
      uint32_t take = (end - next + 1) / 2;
      uint32_t split = end - take;
      if (!range.compare_exchange_weak(bits, Pack(next, split), std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        continue;  // Lost a race against the owner or another thief; re-read.
      }
      // Own the stolen range [split, end). Our own slot is empty (Steal only
      // runs after PopOwn failed) and only this thread installs into it, so a
      // plain store is safe; other thieves may immediately steal from it.
      slots_[static_cast<size_t>(worker)].range.store(Pack(split + 1, end),
                                                      std::memory_order_release);
      *index = split;
      return true;
    }
  }
  return false;
}

// Executes fn(index) as `worker`, restoring the thread's previous worker index
// afterwards: a task may itself run a nested pool's job on this thread, and
// the enclosing task's next CurrentWorker() must still name its own worker.
void TaskPool::RunTask(int worker, const std::function<void(size_t)>& fn, size_t index,
                       std::exception_ptr* error) {
  using Clock = std::chrono::steady_clock;
  WorkerCounters& counters = counters_[static_cast<size_t>(worker)];
  const int outer_worker = current_worker;
  current_worker = worker;
  Clock::time_point task_start = Clock::now();
  try {
    fn(index);
  } catch (...) {
    // Keep the failure's identity: index `index` runs exactly once, so this
    // slot write races with nothing.
    *error = std::current_exception();
  }
  counters.busy_us +=
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - task_start).count();
  ++counters.tasks;
  current_worker = outer_worker;
}

// Runs tasks until PopOwn and Steal both fail, then leaves at once. With every
// slot empty, the only unfinished indices are ones already executing or the
// range a thief has taken off its victim but not yet installed in its own
// slot — and that thief runs the range itself before it leaves. So leaving on
// empty never strands work, and an idle worker never spins.
//
// Counter writes happen before a helper's job_helpers_active_ fetch_sub
// (release), and ParallelForCaptured returns only after reading 0 (acquire),
// so a post-join Stats() read races with nothing.
void TaskPool::RunJob(int worker) {
  size_t index;
  while (true) {
    const bool own = PopOwn(worker, &index);
    if (!own && !Steal(worker, &index)) {
      return;
    }
    if (!own) {
      ++counters_[static_cast<size_t>(worker)].steals;
    }
    RunTask(worker, *job_fn_, index, &(*job_errors_)[index]);
  }
}

void TaskPool::WorkLoop(int worker) {
  uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_cv_.wait(lock, [&] { return shutdown_ || job_generation_ != seen_generation; });
      if (shutdown_) {
        return;
      }
      seen_generation = job_generation_;
    }
    RunJob(worker);
    // The last helper out wakes the caller blocked in ParallelForCaptured.
    if (job_helpers_active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      job_helpers_active_.notify_one();
    }
  }
}

void TaskPool::ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
  std::vector<std::exception_ptr> errors = ParallelForCaptured(count, fn);
  // Rethrow the lowest-index failure so the escaping exception is the same
  // one a serial loop would have raised first.
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

std::vector<std::exception_ptr> TaskPool::ParallelForCaptured(
    size_t count, const std::function<void(size_t)>& fn) {
  std::vector<std::exception_ptr> errors(count);
  if (count == 0) {
    return errors;
  }
  if (worker_count_ == 1) {
    // Strictly serial on the calling thread; no scheduling at all. Counters
    // are still maintained so --jobs 1 metrics stay meaningful.
    for (size_t i = 0; i < count; ++i) {
      RunTask(0, fn, i, &errors[i]);
    }
    return errors;
  }
  assert(count <= UINT32_MAX);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_fn_ = &fn;
    job_errors_ = &errors;
    job_helpers_active_.store(worker_count_ - 1, std::memory_order_relaxed);
    // One contiguous chunk per worker; the imbalance is what stealing fixes.
    size_t base = count / static_cast<size_t>(worker_count_);
    size_t remainder = count % static_cast<size_t>(worker_count_);
    size_t begin = 0;
    for (int w = 0; w < worker_count_; ++w) {
      size_t length = base + (static_cast<size_t>(w) < remainder ? 1 : 0);
      slots_[static_cast<size_t>(w)].range.store(
          Pack(static_cast<uint32_t>(begin), static_cast<uint32_t>(begin + length)),
          std::memory_order_release);
      begin += length;
    }
    ++job_generation_;
  }
  job_cv_.notify_all();
  RunJob(0);  // The caller is worker 0; returns once no slot holds work.
  // Block until every helper has left RunJob: only then has every index run
  // (see job_helpers_active_).
  for (int active = job_helpers_active_.load(std::memory_order_acquire); active > 0;
       active = job_helpers_active_.load(std::memory_order_acquire)) {
    job_helpers_active_.wait(active, std::memory_order_acquire);
  }
  return errors;
}

TaskPoolStats TaskPool::Stats() const {
  TaskPoolStats stats;
  stats.workers.reserve(counters_.size());
  for (const WorkerCounters& counters : counters_) {
    TaskPoolStats::Worker worker;
    worker.tasks = counters.tasks;
    worker.steals = counters.steals;
    worker.busy_us = counters.busy_us;
    stats.workers.push_back(std::move(worker));
  }
  return stats;
}

void TaskPool::ResetStats() {
  for (WorkerCounters& counters : counters_) {
    counters.tasks = 0;
    counters.steals = 0;
    counters.busy_us = 0;
  }
}

}  // namespace wasabi
