// Shared fixed-size worker pool for batch-parallel data-path work.
//
// The pool runs *batches*: run_batch() publishes a vector of tasks, the
// calling thread drains them alongside the workers (so a pool constructed
// with zero workers degrades to inline, submission-order execution -- the
// serial code path, not a special case), and returns once every task has
// finished. Tasks are claimed by atomic index, so a batch of N tasks is
// executed exactly once each, in submission order whenever execution is
// inline.
//
// Error semantics (DESIGN.md "Parallel pack"): every task runs to
// completion regardless of earlier failures -- by the time one task fails,
// its siblings are already in flight, and the writer's tolerated-loss
// handling must see each reader's own outcome. run_batch() returns the
// Status of the lowest-indexed failing task (first-error-wins,
// deterministic across interleavings). A task that throws has its
// exception captured on the executing thread and the lowest-indexed one
// rethrown on the caller after the join, so gtest assertions and logic
// errors surface where the batch was submitted.
//
// The pool is the process's only packing thread family: workers poll the
// flight recorder's cooperative sampling hook between tasks
// (flight::maybe_sample()), so a cooperative-mode recorder keeps sampling
// while a long pack batch runs without a second sampler thread.
//
// Metrics: flexio.pool.tasks counts tasks executed; flexio.pool.queue_ns
// (batch publish or submit -> claim) and flexio.pool.exec_ns (claim ->
// finish) histograms attribute where task wall-clock goes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "util/status.h"

namespace flexio::util {

class WorkPool {
 public:
  using Task = std::function<Status()>;

  /// Spawns `workers` threads (0 is valid: run_batch executes inline).
  explicit WorkPool(int workers);

  /// Joins the workers. A batch in flight is finished by its caller (which
  /// owns the batch state and keeps draining), never abandoned.
  ~WorkPool();

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Run every task to completion; the calling thread participates in the
  /// drain. Returns the lowest-indexed task failure (ok when all passed).
  /// Rethrows the lowest-indexed captured exception after the batch joins.
  Status run_batch(std::vector<Task> tasks);

  /// Detached execution: enqueue `fn` to run on a worker when one frees up;
  /// the caller does not wait. A zero-worker pool runs it inline before
  /// returning (the serial degenerate case, mirroring run_batch), as does a
  /// submit that races pool shutdown -- "submitted implies executed" holds
  /// unconditionally, and the destructor drains any tasks still queued.
  /// Detached tasks report failure through their own channels (they out-
  /// live the call site); they must not throw.
  void submit(std::function<void()> fn);

  /// FLEXIO_PACK_THREADS, or `fallback` when unset/invalid. The value is
  /// the total packing concurrency including the submitting thread, so a
  /// caller wanting a pool passes (value - 1) workers.
  static int env_pack_threads(int fallback);

  /// FLEXIO_READ_THREADS: the reader-side unpack mirror of
  /// env_pack_threads, same range and total-concurrency semantics.
  static int env_read_threads(int fallback);

 private:
  struct Batch {
    std::vector<Task>* tasks = nullptr;
    std::vector<Status>* statuses = nullptr;          // pre-sized, slot per task
    std::vector<std::exception_ptr>* exceptions = nullptr;
    std::atomic<std::size_t> next{0};  // claim cursor
    std::size_t remaining = 0;         // guarded by pool mutex
    int active_workers = 0;            // workers inside drain(), pool mutex
    std::uint64_t publish_ns = 0;
  };

  struct Detached {
    std::function<void()> fn;
    // Enqueue time for flexio.pool.queue_ns; stamped only with metrics on.
    std::optional<std::uint64_t> submit_ns;
  };

  void worker_loop();
  void drain(Batch* batch);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait here for work / stop
  std::condition_variable done_cv_;  // run_batch waits here for completion
  Batch* batch_ = nullptr;           // guarded by mutex_
  std::deque<Detached> detached_;    // guarded by mutex_
  std::uint64_t generation_ = 0;     // bumped per published batch
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace flexio::util
