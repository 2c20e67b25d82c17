// Micro-benchmarks of the real data plane (google-benchmark).
//
// Ablations for the design choices DESIGN.md calls out: the FastForward
// SPSC queue, the shm channel's send paths (inline / pool / sync pool),
// the buffer pool, the RDMA registration cache (persistent vs dynamic
// registration -- the functional analog of Figure 4), MxN re-distribution
// planning, and the hyperslab copy kernel.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "adios/array.h"
#include "adios/var.h"
#include "bench/gbench_main.h"
#include "core/redistribution.h"
#include "core/runtime.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include "evpath/bus.h"
#include "nnti/nnti.h"
#include "nnti/registration_cache.h"
#include "shm/buffer_pool.h"
#include "shm/channel.h"
#include "shm/spsc_queue.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "util/watchdog.h"
#include "util/work_pool.h"

namespace {

using namespace flexio;

void BM_SpscQueueRoundTrip(benchmark::State& state) {
  shm::SpscQueue queue(64, 256);
  std::vector<std::byte> msg(static_cast<std::size_t>(state.range(0)),
                             std::byte{42});
  std::vector<std::byte> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.try_enqueue(ByteView(msg)));
    benchmark::DoNotOptimize(queue.try_dequeue(&out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SpscQueueRoundTrip)->Arg(16)->Arg(64)->Arg(192);

void BM_SpscQueueCrossThread(benchmark::State& state) {
  shm::SpscQueue queue(256, 128);
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    std::vector<std::byte> out;
    while (!stop.load(std::memory_order_relaxed)) {
      queue.try_dequeue(&out);
    }
  });
  std::vector<std::byte> msg(64, std::byte{1});
  for (auto _ : state) {
    while (!queue.try_enqueue(ByteView(msg))) {
    }
  }
  stop.store(true);
  consumer.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscQueueCrossThread);

void BM_ShmChannelSend(benchmark::State& state) {
  shm::ChannelOptions options;
  options.pool_bytes = 256u << 20;
  shm::Channel channel(options);
  const bool sync = state.range(1) != 0;
  std::vector<std::byte> msg(static_cast<std::size_t>(state.range(0)),
                             std::byte{7});
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ByteLease tmp;
      (void)channel.receive_for(&tmp, std::chrono::milliseconds(1));
    }
  });
  for (auto _ : state) {
    const Status st = channel.send(ByteView(msg), sync);
    if (!st.is_ok()) state.SkipWithError(st.to_string().c_str());
  }
  stop.store(true);
  consumer.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// {message size, sync?}: inline path (2 copies), pool path (async, 1 copy:
// the consumer leases the slot), and the sync pool send, which also waits
// for the consumer's dequeue.
BENCHMARK(BM_ShmChannelSend)
    ->Args({128, 0})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

void BM_BufferPoolAcquireRelease(benchmark::State& state) {
  shm::BufferPool pool(1u << 30);
  for (auto _ : state) {
    auto buf = pool.acquire(static_cast<std::size_t>(state.range(0)));
    if (!buf.is_ok()) state.SkipWithError("acquire failed");
    pool.release(buf.value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BufferPoolAcquireRelease)->Arg(4096)->Arg(1 << 20);

void BM_RegistrationPersistent(benchmark::State& state) {
  // Figure 4's point, functionally: reusing a registered buffer vs paying
  // allocation + registration every transfer.
  nnti::Fabric fabric;
  auto nic = fabric.create_nic("bench").value();
  nnti::RegistrationCache cache(nic.get(), 1u << 30);
  const auto size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto buf = cache.acquire(size);
    if (!buf.is_ok()) state.SkipWithError("acquire failed");
    benchmark::DoNotOptimize(buf.value().data);
    cache.release(buf.value());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegistrationPersistent)->Arg(1 << 20);

void BM_RegistrationDynamic(benchmark::State& state) {
  nnti::Fabric fabric;
  auto nic = fabric.create_nic("bench").value();
  const auto size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto* data = new std::byte[size];
    auto region = nic->register_memory(data, size);
    if (!region.is_ok()) state.SkipWithError("register failed");
    benchmark::DoNotOptimize(data);
    (void)nic->unregister_memory(region.value());
    delete[] data;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegistrationDynamic)->Arg(1 << 20);

void BM_PlanTransfers(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  const int readers = writers / 4 + 1;
  const adios::Dims global{static_cast<std::uint64_t>(writers) * 16, 64};
  std::vector<wire::BlockInfo> blocks;
  for (int w = 0; w < writers; ++w) {
    wire::BlockInfo b;
    b.writer_rank = w;
    b.meta = adios::global_array_var(
        "field", serial::DataType::kDouble, global,
        adios::block_decompose(global, writers, w, 0));
    blocks.push_back(std::move(b));
  }
  wire::ReadRequest req;
  for (int r = 0; r < readers; ++r) {
    req.selections.push_back(wire::SelectionInfo{
        r, "field", adios::block_decompose(global, readers, r, 1)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_transfers(blocks, req));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          writers);
}
BENCHMARK(BM_PlanTransfers)->Arg(16)->Arg(64)->Arg(256);

void BM_CopyRegion(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const adios::Box src{{0, 0}, {n, n}};
  const adios::Box dst{{n / 4, n / 4}, {n, n}};
  adios::Box overlap;
  FLEXIO_CHECK(intersect(src, dst, &overlap));
  std::vector<double> a(src.elements()), b(dst.elements());
  for (auto _ : state) {
    adios::copy_region(src, reinterpret_cast<const std::byte*>(a.data()), dst,
                       reinterpret_cast<std::byte*>(b.data()), overlap,
                       sizeof(double));
    benchmark::DoNotOptimize(b.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(overlap.elements() * sizeof(double)));
}
BENCHMARK(BM_CopyRegion)->Arg(64)->Arg(512);

void BM_StreamStepCachedPlan(benchmark::State& state) {
  // Full 1x1 coupled pipeline with caching=all + batching: after step 0 the
  // handshake is skipped and the writer reuses its cached send plan, so the
  // steady-state step cost is pack + send only. The report's counter block
  // records flexio.plan.cache_hits (> 0 is CI's cache-effectiveness gate).
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  Runtime rt;
  Program sim("sim", 1);
  Program viz("viz", 1);
  xml::MethodConfig method;
  method.method = "FLEXIO";
  method.timeout_ms = 20000;
  if (!xml::apply_method_params("caching=all; batching=yes", &method)
           .is_ok()) {
    state.SkipWithError("bad method params");
    return;
  }
  constexpr std::uint64_t kN = 4096;  // 32 KiB payload per step
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "bench_cached_plan";
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 0}};
    spec.method = method;
    auto r = rt.open_reader(spec);
    if (!r.is_ok()) return;
    std::vector<double> out(kN);
    for (;;) {
      auto step = r.value()->begin_step();
      if (!step.is_ok()) break;
      (void)r.value()->schedule_read(
          "field", adios::Box{{0}, {kN}},
          MutableByteView(std::as_writable_bytes(std::span<double>(out))));
      if (!r.value()->perform_reads().is_ok()) break;
      if (!r.value()->end_step().is_ok()) break;
    }
  });
  StreamSpec spec;
  spec.stream = "bench_cached_plan";
  spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
  spec.method = method;
  auto w = rt.open_writer(spec);
  if (!w.is_ok()) {
    reader.join();
    state.SkipWithError("open_writer failed");
    return;
  }
  std::vector<double> data(kN, 1.0);
  const auto meta = adios::global_array_var(
      "field", serial::DataType::kDouble, {kN}, adios::Box{{0}, {kN}});
  StepId step = 0;
  for (auto _ : state) {
    Status st = w.value()->begin_step(step++);
    if (st.is_ok()) {
      st = w.value()->write(
          meta, as_bytes_view(std::span<const double>(data)));
    }
    if (st.is_ok()) st = w.value()->end_step();
    if (!st.is_ok()) {
      state.SkipWithError(st.to_string().c_str());
      break;
    }
  }
  (void)w.value()->close();
  reader.join();
  metrics::set_enabled(was);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kN * sizeof(double)));
}
BENCHMARK(BM_StreamStepCachedPlan);

// Ship the machine's core count in the report's counter block exactly
// once: the scaling gates only bind where 4 worker threads can actually
// run in parallel (check_bench_overhead.py skips them below 4 cores).
// Shared by both scaling benches -- a static per bench would double-count.
void note_hw_concurrency() {
  [[maybe_unused]] static const bool once = [] {
    metrics::counter("bench.hw_concurrency")
        .add(std::thread::hardware_concurrency());
    return true;
  }();
}

void BM_StreamStepParallelPack(benchmark::State& state) {
  // High fan-out pack + send: 1 writer -> 16 readers, each reading a
  // narrow column band of a 2-D field so every piece takes the strided
  // copy_region path (2048 runs of 32 B per reader; no whole-block
  // borrows). Manual time covers end_step only -- with caching=all the
  // steady-state step is exactly the pack + send phase the worker pool
  // parallelizes. The arg is pack_threads; arg 0 installs a zero-worker
  // pool so CI can price the pool machinery itself at concurrency 1
  // against the plain serial path (/1). tools/check_bench_overhead.py
  // gates /1 vs /4 (scaling) and /0 vs /1 (dispatch overhead).
  const int arg = static_cast<int>(state.range(0));
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  note_hw_concurrency();
  Runtime rt;
  constexpr int kReaders = 16;
  constexpr std::uint64_t kRows = 2048;
  constexpr std::uint64_t kCols = 64;             // 1 MiB of doubles
  constexpr std::uint64_t kBand = kCols / kReaders;  // 4 columns per reader
  Program sim("sim", 1);
  Program viz("viz", kReaders);
  xml::MethodConfig method;
  method.method = "FLEXIO";
  method.timeout_ms = 20000;
  const std::string params =
      "caching=all; batching=yes; async=yes; pack_threads=" +
      std::to_string(arg == 0 ? 1 : arg);
  if (!xml::apply_method_params(params, &method).is_ok()) {
    state.SkipWithError("bad method params");
    return;
  }
  const std::string stream = "bench_parallel_pack_" + std::to_string(arg);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      StreamSpec spec;
      spec.stream = stream;
      spec.endpoint = EndpointSpec{&viz, r, evpath::Location{0, 0}};
      spec.method = method;
      auto rd = rt.open_reader(spec);
      if (!rd.is_ok()) return;
      std::vector<double> out(kRows * kBand);
      for (;;) {
        auto step = rd.value()->begin_step();
        if (!step.is_ok()) break;
        (void)rd.value()->schedule_read(
            "field",
            adios::Box{{0, static_cast<std::uint64_t>(r) * kBand},
                       {kRows, kBand}},
            MutableByteView(std::as_writable_bytes(std::span<double>(out))));
        if (!rd.value()->perform_reads().is_ok()) break;
        if (!rd.value()->end_step().is_ok()) break;
      }
    });
  }
  StreamSpec spec;
  spec.stream = stream;
  spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
  spec.method = method;
  auto w = rt.open_writer(spec);
  if (!w.is_ok()) {
    for (auto& t : readers) t.join();
    state.SkipWithError("open_writer failed");
    return;
  }
  if (arg == 0) {
    w.value()->set_pack_pool_for_testing(
        std::make_shared<util::WorkPool>(0));
  }
  std::vector<double> data(kRows * kCols, 1.0);
  const auto meta = adios::global_array_var(
      "field", serial::DataType::kDouble, {kRows, kCols},
      adios::Box{{0, 0}, {kRows, kCols}});
  const auto run_step = [&](StepId step) -> Status {
    Status st = w.value()->begin_step(step);
    if (st.is_ok()) {
      st = w.value()->write(meta, as_bytes_view(std::span<const double>(data)));
    }
    return st.is_ok() ? w.value()->end_step() : st;
  };
  // Warm-up step: pays the open handshake, the transfer plan, and the 16
  // link connects, so every timed iteration is a steady-state cache-hit
  // step and the /1-vs-/4 ratio compares pack + send alone.
  StepId step = 0;
  if (const Status st = run_step(step++); !st.is_ok()) {
    state.SkipWithError(st.to_string().c_str());
  } else {
    for (auto _ : state) {
      Status s = w.value()->begin_step(step++);
      if (s.is_ok()) {
        s = w.value()->write(meta,
                             as_bytes_view(std::span<const double>(data)));
      }
      const auto t0 = std::chrono::steady_clock::now();
      if (s.is_ok()) s = w.value()->end_step();
      const auto t1 = std::chrono::steady_clock::now();
      if (!s.is_ok()) {
        state.SkipWithError(s.to_string().c_str());
        break;
      }
      state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    }
  }
  (void)w.value()->close();
  for (auto& t : readers) t.join();
  metrics::set_enabled(was);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows * kCols *
                                                    sizeof(double)));
}
// Fixed iteration count: the median must average the same steady-state
// step population for every thread count (min_time-driven iteration counts
// would weight the warm cache differently per variant).
BENCHMARK(BM_StreamStepParallelPack)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Iterations(48);

void BM_StreamStepParallelUnpack(benchmark::State& state) {
  // Mirror image of BM_StreamStepParallelPack: 16 writers -> 1 reader,
  // each writer producing a narrow column band of a 2-D field so every
  // delivered piece lands through the strided copy_region path (2048 runs
  // of 32 B per piece). Manual time covers perform_reads only -- the recv
  // drain plus the plug-in + placement work the reader's worker pool
  // parallelizes. The arg is read_threads; arg 0 installs a zero-worker
  // pool so CI can price the unpack-batch machinery itself at concurrency
  // 1 against the plain serial path (/1). tools/check_bench_overhead.py
  // gates /1 vs /4 (scaling) and /0 vs /1 (dispatch overhead).
  const int arg = static_cast<int>(state.range(0));
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  note_hw_concurrency();
  Runtime rt;
  constexpr int kWriters = 16;
  constexpr std::uint64_t kRows = 2048;
  constexpr std::uint64_t kCols = 64;                // 1 MiB of doubles
  constexpr std::uint64_t kBand = kCols / kWriters;  // 4 columns per writer
  // Warm-up step + the timed Iterations(48) below; writers produce exactly
  // this many steps and close, which ends the reader's final drain loop.
  constexpr int kSteps = 49;
  Program sim("sim", kWriters);
  Program viz("viz", 1);
  xml::MethodConfig method;
  method.method = "FLEXIO";
  method.timeout_ms = 20000;
  const std::string params =
      "caching=all; batching=yes; async=yes; read_threads=" +
      std::to_string(arg == 0 ? 1 : arg);
  if (!xml::apply_method_params(params, &method).is_ok()) {
    state.SkipWithError("bad method params");
    return;
  }
  const std::string stream = "bench_parallel_unpack_" + std::to_string(arg);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      StreamSpec spec;
      spec.stream = stream;
      spec.endpoint = EndpointSpec{&sim, w, evpath::Location{0, 0}};
      spec.method = method;
      auto wr = rt.open_writer(spec);
      if (!wr.is_ok()) return;
      const adios::Box band{{0, static_cast<std::uint64_t>(w) * kBand},
                            {kRows, kBand}};
      std::vector<double> data(kRows * kBand, 1.0);
      const auto meta = adios::global_array_var(
          "field", serial::DataType::kDouble, {kRows, kCols}, band);
      for (int step = 0; step < kSteps; ++step) {
        Status st = wr.value()->begin_step(step);
        if (st.is_ok()) {
          st = wr.value()->write(meta,
                                 as_bytes_view(std::span<const double>(data)));
        }
        if (st.is_ok()) st = wr.value()->end_step();
        if (!st.is_ok()) return;
      }
      (void)wr.value()->close();
    });
  }
  StreamSpec spec;
  spec.stream = stream;
  spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{0, 0}};
  spec.method = method;
  auto r = rt.open_reader(spec);
  if (!r.is_ok()) {
    for (auto& t : writers) t.join();
    state.SkipWithError("open_reader failed");
    return;
  }
  if (arg == 0) {
    r.value()->set_read_pool_for_testing(std::make_shared<util::WorkPool>(0));
  }
  std::vector<double> out(kRows * kCols);
  const auto run_step = [&](double* seconds) -> Status {
    FLEXIO_RETURN_IF_ERROR(r.value()->begin_step().status());
    FLEXIO_RETURN_IF_ERROR(r.value()->schedule_read(
        "field", adios::Box{{0, 0}, {kRows, kCols}},
        MutableByteView(std::as_writable_bytes(std::span<double>(out)))));
    const auto t0 = std::chrono::steady_clock::now();
    FLEXIO_RETURN_IF_ERROR(r.value()->perform_reads());
    const auto t1 = std::chrono::steady_clock::now();
    if (seconds != nullptr) {
      *seconds = std::chrono::duration<double>(t1 - t0).count();
    }
    return r.value()->end_step();
  };
  // Warm-up step: pays the open handshake and transfer planning, so every
  // timed iteration is a steady-state 16-piece unpack.
  if (const Status st = run_step(nullptr); !st.is_ok()) {
    state.SkipWithError(st.to_string().c_str());
  } else {
    for (auto _ : state) {
      double seconds = 0.0;
      if (const Status step_st = run_step(&seconds); !step_st.is_ok()) {
        state.SkipWithError(step_st.to_string().c_str());
        break;
      }
      state.SetIterationTime(seconds);
    }
  }
  // Consume through the writers' close so their threads finish cleanly.
  while (run_step(nullptr).is_ok()) {
  }
  for (auto& t : writers) t.join();
  metrics::set_enabled(was);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRows * kCols *
                                                    sizeof(double)));
}
BENCHMARK(BM_StreamStepParallelUnpack)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Iterations(48);

void BM_EndpointMultiDestinationSend(benchmark::State& state) {
  // Per-link send sharding at the Endpoint layer: N threads blast small
  // frames at N disjoint destinations through ONE shared endpoint. Before
  // the per-link split every send serialized on a single endpoint mutex,
  // so this scaled flat; now threads only meet on the map's shared lock.
  // Drainer threads keep the inproc queues from growing without bound;
  // manual time covers each batch of sends only.
  const int threads = static_cast<int>(state.range(0));
  constexpr std::uint32_t kBatch = 4096;
  constexpr std::size_t kPayload = 256;
  evpath::MessageBus bus;
  auto hub = bus.create_endpoint("hub", evpath::Location{0, 0}).value();
  std::vector<std::shared_ptr<evpath::Endpoint>> sinks;
  std::vector<std::thread> drainers;
  std::atomic<bool> stop{false};
  for (int t = 0; t < threads; ++t) {
    sinks.push_back(
        bus.create_endpoint("sink" + std::to_string(t), evpath::Location{0, 0})
            .value());
    drainers.emplace_back([&, t] {
      evpath::Message msg;
      while (!stop.load(std::memory_order_relaxed)) {
        (void)sinks[static_cast<std::size_t>(t)]->recv(
            &msg, std::chrono::milliseconds(5));
      }
    });
  }
  const std::vector<std::byte> payload(kPayload, std::byte{3});
  for (auto _ : state) {
    std::vector<std::thread> senders;
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < threads; ++t) {
      senders.emplace_back([&, t] {
        const std::string dest = "sink" + std::to_string(t);
        for (std::uint32_t i = 0; i < kBatch; ++i) {
          if (!hub->send(dest, ByteView(payload)).is_ok()) return;
        }
      });
    }
    for (std::thread& th : senders) th.join();
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
  }
  stop.store(true);
  for (std::thread& th : drainers) th.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          threads * kBatch);
}
BENCHMARK(BM_EndpointMultiDestinationSend)
    ->Arg(1)
    ->Arg(4)
    ->UseManualTime();

// ------------------------------------------------- observability overhead --
// The CI perf-smoke gate compares these two: a disabled counter add must be
// a branch, not a fetch_add (docs/OBSERVABILITY.md cost model).

void BM_MetricsCounterDisabled(benchmark::State& state) {
  const bool was = metrics::enabled();
  metrics::set_enabled(false);
  metrics::Counter& c = metrics::counter("bench.overhead.counter");
  for (auto _ : state) {
    c.inc();
    benchmark::ClobberMemory();
  }
  metrics::set_enabled(was);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterDisabled);

void BM_MetricsCounterEnabled(benchmark::State& state) {
  const bool was = metrics::enabled();
  metrics::set_enabled(true);
  metrics::Counter& c = metrics::counter("bench.overhead.counter");
  for (auto _ : state) {
    c.inc();
    benchmark::ClobberMemory();
  }
  metrics::set_enabled(was);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterEnabled);

void BM_TraceSpanDisabled(benchmark::State& state) {
  const bool was = trace::enabled();
  trace::set_enabled(false);
  for (auto _ : state) {
    trace::Span span("bench.overhead.span");
    benchmark::ClobberMemory();
  }
  trace::set_enabled(was);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_FlightRecorderDisabled(benchmark::State& state) {
  // No recorder running: the hot-path hook must be one relaxed load.
  for (auto _ : state) {
    flight::maybe_sample();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlightRecorderDisabled);

void BM_FlightRecorderIdle(benchmark::State& state) {
  // Cooperative recorder running but with no sample requested: active but
  // not due, so the hook is two relaxed loads and no file I/O.
  flight::Options opts;
  opts.path = "/dev/null";
  opts.background = false;
  if (!flight::start(opts).is_ok()) {
    state.SkipWithError("flight::start failed");
    return;
  }
  for (auto _ : state) {
    flight::maybe_sample();
    benchmark::ClobberMemory();
  }
  (void)flight::stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlightRecorderIdle);

void BM_WatchdogDisabled(benchmark::State& state) {
  // No watchdog running: the cooperative hook must be one relaxed load
  // plus a branch, same budget as a disabled counter.
  for (auto _ : state) {
    telemetry::maybe_poll();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WatchdogDisabled);

void BM_StatsExposeSnapshot(benchmark::State& state) {
  // Cost of rendering one /metrics scrape over a populated registry. This
  // runs on the stats-server thread, never the data path; the gate is a
  // sanity budget, not a hot-path bound.
  metrics::counter("bench.expose.counter").inc();
  metrics::gauge("bench.expose.gauge").add(42);
  metrics::histogram("bench.expose.hist").record(1000);
  for (auto _ : state) {
    std::string text = metrics::expose_text();
    benchmark::DoNotOptimize(text);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StatsExposeSnapshot);

}  // namespace

int main(int argc, char** argv) {
  return flexio::bench::run_benchmarks_with_report(argc, argv,
                                                   "micro_transports");
}
