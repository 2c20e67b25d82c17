#include "util/work_pool.h"

#include <cstdlib>

#include "util/flight_recorder.h"
#include "util/log.h"
#include "util/metrics.h"

namespace flexio::util {

namespace {

metrics::Counter& pool_tasks_counter() {
  static metrics::Counter& c = metrics::counter("flexio.pool.tasks");
  return c;
}
metrics::Histogram& pool_queue_hist() {
  static metrics::Histogram& h = metrics::histogram("flexio.pool.queue_ns");
  return h;
}
metrics::Histogram& pool_exec_hist() {
  static metrics::Histogram& h = metrics::histogram("flexio.pool.exec_ns");
  return h;
}

}  // namespace

WorkPool::WorkPool(int workers) {
  threads_.reserve(workers > 0 ? static_cast<std::size_t>(workers) : 0);
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkPool::~WorkPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // Stop wins over queued detached work in worker_loop, so tasks may still
  // be queued after the join; run them here -- "submitted implies executed"
  // holds through shutdown. A drained task that re-submits just appends to
  // the same queue and runs in this loop.
  for (;;) {
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (detached_.empty()) break;
      fn = std::move(detached_.front().fn);
      detached_.pop_front();
    }
    fn();
  }
  // Shutdown-while-busy: a batch published from another thread keeps its
  // caller draining after the workers exit; wait for it to unpublish so
  // the mutex and condvars are never destroyed under a live run_batch.
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return batch_ == nullptr; });
}

void WorkPool::submit(std::function<void()> fn) {
  bool inline_run = threads_.empty();
  if (!inline_run) {
    std::optional<std::uint64_t> submit_ns;
    if (metrics::enabled()) submit_ns = metrics::now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      inline_run = true;  // racing shutdown: the destructor may already be
                          // past its queue drain, so do not enqueue
    } else {
      detached_.push_back(Detached{std::move(fn), submit_ns});
    }
  }
  if (inline_run) {
    fn();
    return;
  }
  work_cv_.notify_one();
}

void WorkPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || !detached_.empty() ||
             (batch_ != nullptr && generation_ != seen_generation);
    });
    // Stop wins: the batch's caller keeps draining (shutdown-while-busy
    // never deadlocks) and the destructor drains leftover detached tasks.
    if (stop_) return;
    if (!detached_.empty()) {
      Detached task = std::move(detached_.front());
      detached_.pop_front();
      lock.unlock();
      const std::uint64_t claim_ns = metrics::now_ns();
      if (task.submit_ns) {
        pool_queue_hist().record(claim_ns - *task.submit_ns);
      }
      task.fn();
      pool_exec_hist().record(metrics::now_ns() - claim_ns);
      pool_tasks_counter().inc();
      flight::maybe_sample();
      lock.lock();
      continue;
    }
    Batch* batch = batch_;
    seen_generation = generation_;
    ++batch->active_workers;
    lock.unlock();
    drain(batch);
    flight::maybe_sample();
    lock.lock();
    if (--batch->active_workers == 0 && batch->remaining == 0) {
      done_cv_.notify_all();
    }
  }
}

void WorkPool::drain(Batch* batch) {
  const std::size_t count = batch->tasks->size();
  for (;;) {
    const std::size_t i =
        batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    const std::uint64_t claim_ns = metrics::now_ns();
    pool_queue_hist().record(claim_ns - batch->publish_ns);
    try {
      (*batch->statuses)[i] = (*batch->tasks)[i]();
    } catch (...) {
      (*batch->exceptions)[i] = std::current_exception();
    }
    pool_exec_hist().record(metrics::now_ns() - claim_ns);
    pool_tasks_counter().inc();
    std::lock_guard<std::mutex> lock(mutex_);
    if (--batch->remaining == 0 && batch->active_workers == 0) {
      done_cv_.notify_all();
    }
  }
}

Status WorkPool::run_batch(std::vector<Task> tasks) {
  if (tasks.empty()) return Status::ok();
  std::vector<Status> statuses(tasks.size(), Status::ok());
  std::vector<std::exception_ptr> exceptions(tasks.size());
  Batch batch;
  batch.tasks = &tasks;
  batch.statuses = &statuses;
  batch.exceptions = &exceptions;
  batch.remaining = tasks.size();
  batch.publish_ns = metrics::now_ns();

  if (threads_.empty()) {
    // Inline fallback: drain on the caller in submission order. remaining
    // is only touched by this thread, so the mutex traffic inside drain()
    // is uncontended.
    drain(&batch);
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      batch_ = &batch;
      ++generation_;
    }
    work_cv_.notify_all();
    // The caller is a full participant: with W workers the batch runs at
    // concurrency W+1, and a pool whose workers are momentarily busy still
    // makes progress on the submitting thread.
    drain(&batch);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return batch.remaining == 0 && batch.active_workers == 0;
    });
    // Unpublish before the stack-owned batch state goes away. Workers that
    // wake late see batch_ == nullptr (or an unchanged generation) and go
    // back to waiting; a destructor blocked on shutdown-while-busy wakes.
    batch_ = nullptr;
    done_cv_.notify_all();
  }

  for (std::size_t i = 0; i < exceptions.size(); ++i) {
    if (exceptions[i]) std::rethrow_exception(exceptions[i]);
  }
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    if (!statuses[i].is_ok()) return statuses[i];
  }
  return Status::ok();
}

namespace {

int env_threads(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || n < 1 || n > 256) {
    FLEXIO_LOG(kWarn) << "ignoring " << name << "=" << v
                      << " (must be an integer in [1, 256])";
    return fallback;
  }
  return static_cast<int>(n);
}

}  // namespace

int WorkPool::env_pack_threads(int fallback) {
  return env_threads("FLEXIO_PACK_THREADS", fallback);
}

int WorkPool::env_read_threads(int fallback) {
  return env_threads("FLEXIO_READ_THREADS", fallback);
}

}  // namespace flexio::util
