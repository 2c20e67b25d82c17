// Unit battery for util::WorkPool, the writer-side parallel-pack pool:
// inline (zero-worker) ordering, deterministic first-error-wins across
// interleavings, exception capture + lowest-index rethrow, the
// shutdown-while-busy contract (destruction blocks until an in-flight
// batch finishes; tasks are never abandoned), the cooperative
// flight-recorder hook on worker threads, the flexio.pool.* metrics, and
// the trace TaskContext/TaskScope plumbing that nests pool-task spans
// under the submitting span. Runs under TSan via the concurrency label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <vector>

#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"
#include "util/work_pool.h"

namespace flexio::util {
namespace {

using namespace std::chrono_literals;

TEST(WorkPoolTest, ZeroWorkersRunsInlineInSubmissionOrder) {
  WorkPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  std::vector<int> order;
  std::vector<WorkPool::Task> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&order, i] {
      order.push_back(i);  // no synchronization: inline means this thread
      return Status::ok();
    });
  }
  ASSERT_TRUE(pool.run_batch(std::move(tasks)).is_ok());
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkPoolTest, EveryTaskRunsExactlyOnceAcrossThreads) {
  WorkPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> runs(kTasks);
  for (int round = 0; round < 5; ++round) {
    std::vector<WorkPool::Task> tasks;
    for (int i = 0; i < kTasks; ++i) {
      tasks.push_back([&runs, i] {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        return Status::ok();
      });
    }
    ASSERT_TRUE(pool.run_batch(std::move(tasks)).is_ok());
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_EQ(runs[i].load(), round + 1) << "task " << i;
    }
  }
}

TEST(WorkPoolTest, FirstErrorWinsByIndexNotByTiming) {
  WorkPool pool(4);
  // The higher-indexed failure finishes long before the lower-indexed one,
  // but aggregation is positional: index 3 must win every time.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    std::vector<WorkPool::Task> tasks;
    for (int i = 0; i < 12; ++i) {
      tasks.push_back([&ran, i]() -> Status {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i == 3) {
          std::this_thread::sleep_for(2ms);
          return make_error(ErrorCode::kInternal, "slow low-index failure");
        }
        if (i == 9) {
          return make_error(ErrorCode::kUnavailable, "fast high-index failure");
        }
        return Status::ok();
      });
    }
    const Status st = pool.run_batch(std::move(tasks));
    EXPECT_EQ(st.code(), ErrorCode::kInternal) << st.to_string();
    // All-run semantics: a failure never suppresses sibling tasks.
    EXPECT_EQ(ran.load(), 12);
  }
}

TEST(WorkPoolTest, InlineErrorsAlsoRunEveryTask) {
  WorkPool pool(0);
  int ran = 0;
  std::vector<WorkPool::Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([&ran, i]() -> Status {
      ++ran;
      return i == 1 ? make_error(ErrorCode::kTimeout, "boom")
                    : Status::ok();
    });
  }
  EXPECT_EQ(pool.run_batch(std::move(tasks)).code(), ErrorCode::kTimeout);
  EXPECT_EQ(ran, 6);
}

TEST(WorkPoolTest, LowestIndexedExceptionRethrownOnCaller) {
  for (const int workers : {0, 3}) {
    WorkPool pool(workers);
    std::vector<WorkPool::Task> tasks;
    for (int i = 0; i < 8; ++i) {
      tasks.push_back([i]() -> Status {
        if (i == 2) {
          std::this_thread::sleep_for(1ms);
          throw std::runtime_error("low");
        }
        if (i == 6) throw std::runtime_error("high");
        return Status::ok();
      });
    }
    try {
      (void)pool.run_batch(std::move(tasks));
      FAIL() << "expected rethrow (workers=" << workers << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "low") << "workers=" << workers;
    }
  }
}

TEST(WorkPoolTest, ShutdownWhileBusyFinishesTheBatch) {
  auto pool = std::make_unique<WorkPool>(2);
  std::atomic<int> done{0};
  std::atomic<bool> batch_ok{false};
  // Capture the raw pool, not the unique_ptr: reset() below writes the
  // smart pointer concurrently with the submitter's use of it. The pool
  // *object* outliving its in-flight batch is exactly the contract under
  // test; the handle is not part of it.
  WorkPool* raw = pool.get();
  std::thread submitter([&done, &batch_ok, raw] {
    std::vector<WorkPool::Task> tasks;
    for (int i = 0; i < 24; ++i) {
      tasks.push_back([&done] {
        std::this_thread::sleep_for(1ms);
        done.fetch_add(1, std::memory_order_relaxed);
        return Status::ok();
      });
    }
    batch_ok.store(raw->run_batch(std::move(tasks)).is_ok());
  });
  // Destroy the pool while the batch is (very likely) mid-flight. The
  // destructor must block until the caller finishes draining -- no task
  // abandoned, no use-after-free, no deadlock.
  while (done.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  pool.reset();
  submitter.join();
  EXPECT_TRUE(batch_ok.load());
  EXPECT_EQ(done.load(), 24);
}

TEST(WorkPoolTest, EmptyBatchIsANoOp) {
  WorkPool pool(2);
  EXPECT_TRUE(pool.run_batch({}).is_ok());
}

TEST(WorkPoolTest, PoolMetricsCountTasks) {
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  const auto tasks_before = metrics::counter("flexio.pool.tasks").value();
  const auto exec_before =
      metrics::histogram("flexio.pool.exec_ns").snapshot().count;
  const auto queue_before =
      metrics::histogram("flexio.pool.queue_ns").snapshot().count;
  WorkPool pool(2);
  std::vector<WorkPool::Task> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([] { return Status::ok(); });
  }
  ASSERT_TRUE(pool.run_batch(std::move(tasks)).is_ok());
  EXPECT_EQ(metrics::counter("flexio.pool.tasks").value() - tasks_before, 10u);
  EXPECT_EQ(
      metrics::histogram("flexio.pool.exec_ns").snapshot().count - exec_before,
      10u);
  EXPECT_EQ(metrics::histogram("flexio.pool.queue_ns").snapshot().count -
                queue_before,
            10u);
  metrics::set_enabled(was);
}

TEST(WorkPoolTest, WorkersServeTheCooperativeFlightSampler) {
  // The pool is the flight recorder's cooperative thread family: a worker
  // finishing a task takes the sample marked due, so a recorder with no
  // background thread still samples while batches run.
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("flexio_pool_flight." + std::to_string(::getpid()) + ".jsonl"))
          .string();
  flight::Options opt;
  opt.path = path;
  opt.background = false;
  ASSERT_TRUE(flight::start(opt).is_ok());
  const std::uint64_t lines_before = flight::samples_taken();

  WorkPool pool(2);
  metrics::counter("workpool.test.flight").add(1);  // give the delta content
  flight::request_sample();
  std::vector<WorkPool::Task> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([] {
      std::this_thread::sleep_for(1ms);
      return Status::ok();
    });
  }
  ASSERT_TRUE(pool.run_batch(std::move(tasks)).is_ok());
  EXPECT_GT(flight::samples_taken(), lines_before);
  flight::stop();
  std::remove(path.c_str());
  metrics::set_enabled(was);
}

TEST(WorkPoolTest, TaskScopeNestsPoolSpansUnderSubmitter) {
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  trace::set_enabled(true);
  trace::reset();
  trace::set_thread_pid(7);
  std::uint64_t parent_id = 0;
  {
    trace::Span submit_span("pool.submit");
    parent_id = submit_span.id();
    const trace::TaskContext ctx = trace::TaskContext::capture();
    EXPECT_EQ(ctx.parent_span, parent_id);
    EXPECT_EQ(ctx.pid, 7u);
    WorkPool pool(2);
    std::vector<WorkPool::Task> tasks;
    for (int i = 0; i < 6; ++i) {
      tasks.push_back([ctx] {
        trace::TaskScope scope(ctx);
        trace::Span span("pool.task");
        return Status::ok();
      });
    }
    EXPECT_TRUE(pool.run_batch(std::move(tasks)).is_ok());
  }
  trace::set_thread_pid(0);
  int task_spans = 0;
  for (const trace::SpanRecord& rec : trace::snapshot()) {
    if (std::string_view(rec.name) != "pool.task") continue;
    ++task_spans;
    // Parented (and pid-tagged) as if it ran inline under the submitting
    // span, wherever it executed. Depth stays per-thread: 0 on a worker
    // (root + parent hint), 1 when the caller drained it under its own
    // open submit span.
    EXPECT_EQ(rec.parent, parent_id);
    EXPECT_EQ(rec.pid, 7u);
    EXPECT_LE(rec.depth, 1u);
  }
  EXPECT_EQ(task_spans, 6);
  trace::set_enabled(false);
  trace::reset();
  metrics::set_enabled(was);
}

TEST(WorkPoolTest, SubmitRunsDetachedTasksExactlyOnce) {
  // Detached tasks execute without the caller waiting; a latch proves all
  // of them ran, and the counter that they ran exactly once each.
  WorkPool pool(3);
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  std::mutex m;
  std::condition_variable cv;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&] {
      if (ran.fetch_add(1, std::memory_order_relaxed) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(m);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, 10s, [&] {
    return ran.load(std::memory_order_relaxed) == kTasks;
  }));
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(WorkPoolTest, SubmittedTaskRecordsOneQueueSample) {
  // Detached tasks (the stream registry's drainers) queue like batch tasks
  // do, so their submit -> claim wait lands in flexio.pool.queue_ns too.
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  const auto queue_before =
      metrics::histogram("flexio.pool.queue_ns").snapshot().count;
  WorkPool pool(1);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran.store(true); });
  // A worker claims the task (and records its wait) before running it.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(ran.load());
  EXPECT_EQ(metrics::histogram("flexio.pool.queue_ns").snapshot().count -
                queue_before,
            1u);
  metrics::set_enabled(was);
}

TEST(WorkPoolTest, SubmitOnZeroWorkerPoolRunsInline) {
  WorkPool pool(0);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);  // inline: done before submit returned
}

TEST(WorkPoolTest, DestructorExecutesQueuedDetachedTasks) {
  // "Submitted implies executed" must hold through shutdown: tasks still
  // queued when the destructor runs are drained by it, including tasks a
  // drained task re-submits.
  std::atomic<int> ran{0};
  {
    WorkPool pool(1);
    // Park the single worker so later submissions stack up in the queue.
    std::atomic<bool> release{false};
    pool.submit([&] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    for (int i = 0; i < 8; ++i) {
      pool.submit([&ran, &pool, i] {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i == 0) {
          pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    release.store(true, std::memory_order_release);
  }
  EXPECT_EQ(ran.load(), 9);
}

TEST(WorkPoolTest, EnvPackThreadsParsesAndRejectsGarbage) {
  ASSERT_EQ(::unsetenv("FLEXIO_PACK_THREADS"), 0);
  EXPECT_EQ(WorkPool::env_pack_threads(1), 1);
  ASSERT_EQ(::setenv("FLEXIO_PACK_THREADS", "4", 1), 0);
  EXPECT_EQ(WorkPool::env_pack_threads(1), 4);
  ASSERT_EQ(::setenv("FLEXIO_PACK_THREADS", "0", 1), 0);
  EXPECT_EQ(WorkPool::env_pack_threads(3), 3);
  ASSERT_EQ(::setenv("FLEXIO_PACK_THREADS", "banana", 1), 0);
  EXPECT_EQ(WorkPool::env_pack_threads(2), 2);
  ASSERT_EQ(::setenv("FLEXIO_PACK_THREADS", "-2", 1), 0);
  EXPECT_EQ(WorkPool::env_pack_threads(1), 1);
  ASSERT_EQ(::unsetenv("FLEXIO_PACK_THREADS"), 0);
}

}  // namespace
}  // namespace flexio::util
