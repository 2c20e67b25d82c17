#include "workloads.h"

#include <cstring>
#include <functional>
#include <iterator>
#include <thread>

#include "apps/gts.h"
#include "apps/s3d.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include "util/rng.h"
#include "util/trace.h"

namespace perfbench {
namespace {

using namespace flexio;

// Virtual trace pids: writer and reader sides export separate Chrome traces
// (the shape flexio_trace merge stitches).
constexpr std::uint32_t kWriterPid = 1;
constexpr std::uint32_t kReaderPid = 2;

// A healthy step takes milliseconds; a wedged one fails the run instead of
// outlasting the run's time limit.
constexpr double kTimeoutMs = 10000.0;

xml::MethodConfig method_from(const std::string& params) {
  xml::MethodConfig method;
  method.method = "FLEXIO";
  FLEXIO_CHECK(xml::apply_method_params(params, &method).is_ok());
  method.timeout_ms = kTimeoutMs;
  method.pack_threads = 1;
  method.read_threads = 1;
  return method;
}

bool same_bytes(ByteView got, const void* want, std::size_t want_bytes) {
  return got.size() == want_bytes &&
         std::memcmp(got.data(), want, want_bytes) == 0;
}

template <typename T>
ByteView bytes_of(const std::vector<T>& v) {
  return as_bytes_view(std::span<const T>(v));
}

/// The writes a writer rank issues each step, the reads a reader rank
/// schedules, and the check of what it received.
struct Topology {
  std::string writer_program;
  std::string reader_program;
  int writers = 1;
  int readers = 1;
  std::vector<std::string> streams;
  std::vector<xml::MethodConfig> methods;  // per stream
  std::function<evpath::Location(bool writer, int rank)> location;
  evpath::TransportKind transport = evpath::TransportKind::kInproc;
  std::function<Status(StreamWriter&, int stream, int rank, std::int64_t step)>
      write;
  std::function<Status(StreamReader&, int stream, int rank)> schedule;
  std::function<bool(const StreamReader&, int stream, int rank,
                     std::int64_t step)>
      verify;
};

Status traced_write(StreamWriter& w, const adios::VarMeta& meta,
                    ByteView payload) {
  trace::Span span("bench.writer.write");
  return w.write(meta, payload);
}

/// State the rank threads of one session share.
struct Shared {
  StepGate gate;
  std::mutex mutex;
  std::vector<std::string> errors;  // guarded by mutex
  bool aborted = false;             // guarded by mutex

  void fail(const std::string& where, const Status& st) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      errors.push_back(where + ": " + st.to_string());
      aborted = true;
    }
    gate.abort();
  }
};

void writer_rank(const Topology& t, Runtime& rt, Program& program, int rank,
                 Shared& sh, WindowControl* window,
                 std::vector<WriterStep>* out) {
  trace::set_thread_pid(kWriterPid);
  const std::string who = "writer " + std::to_string(rank);
  std::vector<std::unique_ptr<StreamWriter>> ws;
  for (std::size_t s = 0; s < t.streams.size(); ++s) {
    StreamSpec spec;
    spec.stream = t.streams[s];
    spec.endpoint = EndpointSpec{&program, rank, t.location(true, rank)};
    spec.method = t.methods[s];
    trace::Span span("bench.writer.open_writer");
    auto w = rt.open_writer(spec);
    if (!w.is_ok()) return sh.fail(who + " open " + spec.stream, w.status());
    ws.push_back(std::move(w).value());
  }
  const int n = static_cast<int>(ws.size());
  for (std::int64_t step = 0;; ++step) {
    if (step > 0 &&
        !(window != nullptr ? window->admit(step) : sh.gate.admit(step, false))) {
      break;
    }
    for (int s = 0; s < n; ++s) {
      StreamWriter& w = *ws[static_cast<std::size_t>(s)];
      WriterStep rec;
      rec.stream = s;
      rec.rank = rank;
      rec.step = step;
      rec.begin_ns = now_ns();
      Status st;
      {
        trace::Span span("bench.writer.begin_step");
        st = w.begin_step(step);
      }
      rec.write_ns = now_ns();
      if (st.is_ok()) st = t.write(w, s, rank, step);
      rec.end_entry_ns = now_ns();
      if (st.is_ok()) {
        trace::Span span("bench.writer.end_step");
        st = w.end_step();
      }
      rec.end_ns = now_ns();
      if (!st.is_ok()) {
        return sh.fail(who + " step " + std::to_string(step) + " of " +
                           t.streams[static_cast<std::size_t>(s)],
                       st);
      }
      out->push_back(rec);
    }
    if (step == 0 && rank == 0) {
      // The placement must have produced the transport the workload names.
      auto kind = ws[0]->transport_to_reader(0);
      if (!kind.is_ok()) return sh.fail(who + " transport", kind.status());
      if (kind.value() != t.transport) {
        return sh.fail(who + " transport",
                       make_error(ErrorCode::kInternal,
                                  "expected " +
                                      std::string(evpath::transport_kind_name(
                                          t.transport)) +
                                      ", got " +
                                      std::string(evpath::transport_kind_name(
                                          kind.value()))));
      }
    }
  }
  for (int s = 0; s < n; ++s) {
    trace::Span span("bench.writer.close");
    const Status st = ws[static_cast<std::size_t>(s)]->close();
    if (!st.is_ok()) return sh.fail(who + " close", st);
  }
}

void reader_rank(const Topology& t, Runtime& rt, Program& program, int rank,
                 Shared& sh, std::vector<ReaderStep>* out) {
  trace::set_thread_pid(kReaderPid);
  const std::string who = "reader " + std::to_string(rank);
  std::vector<std::unique_ptr<StreamReader>> rs;
  for (std::size_t s = 0; s < t.streams.size(); ++s) {
    StreamSpec spec;
    spec.stream = t.streams[s];
    spec.endpoint = EndpointSpec{&program, rank, t.location(false, rank)};
    spec.method = t.methods[s];
    trace::Span span("bench.reader.open_reader");
    auto r = rt.open_reader(spec);
    if (!r.is_ok()) return sh.fail(who + " open " + spec.stream, r.status());
    rs.push_back(std::move(r).value());
  }
  const int n = static_cast<int>(rs.size());
  for (int ended = 0; ended == 0;) {
    for (int s = 0; s < n; ++s) {
      StreamReader& r = *rs[static_cast<std::size_t>(s)];
      const std::string where = who + " " + t.streams[static_cast<std::size_t>(s)];
      ReaderStep rec;
      rec.stream = s;
      rec.rank = rank;
      rec.begin_entry_ns = now_ns();
      StatusOr<StepId> step = make_error(ErrorCode::kInternal, "unset");
      {
        trace::Span span("bench.reader.begin_step");
        step = r.begin_step();
      }
      rec.begin_ns = now_ns();
      if (step.status().code() == ErrorCode::kEndOfStream) {
        ++ended;
        continue;
      }
      if (!step.is_ok()) return sh.fail(where + " begin_step", step.status());
      rec.step = step.value();
      Status st = t.schedule(r, s, rank);
      rec.reads_entry_ns = now_ns();
      if (st.is_ok()) {
        trace::Span span("bench.reader.perform_reads");
        st = r.perform_reads();
      }
      rec.reads_ns = now_ns();
      if (st.is_ok()) {
        trace::Span span("bench.reader.end_step");
        st = r.end_step();
      }
      rec.end_ns = now_ns();
      if (!st.is_ok()) {
        return sh.fail(where + " step " + std::to_string(rec.step), st);
      }
      rec.verified = t.verify(r, s, rank, rec.step);
      if (!rec.verified) {
        std::lock_guard<std::mutex> lock(sh.mutex);
        sh.errors.push_back(where + " step " + std::to_string(rec.step) +
                            ": delivered bytes differ from the reference");
      }
      out->push_back(rec);
    }
    if (ended != 0 && ended != n) {
      return sh.fail(who, make_error(ErrorCode::kInternal,
                                     "streams ended at different steps"));
    }
  }
  for (int s = 0; s < n; ++s) {
    trace::Span span("bench.reader.close");
    const Status st = rs[static_cast<std::size_t>(s)]->close();
    if (!st.is_ok()) return sh.fail(who + " close", st);
  }
}

SessionResult run_session(const Topology& t, const SessionPlan& plan) {
  SessionResult res;
  Shared sh;
  WindowControl window(plan, &sh.gate, &res);
  std::vector<std::vector<WriterStep>> wrec(static_cast<std::size_t>(t.writers));
  std::vector<std::vector<ReaderStep>> rrec(static_cast<std::size_t>(t.readers));
  // Sized for the longest windows, so the timed loop never reallocates.
  const std::size_t reserve = t.streams.size() * 16384;
  for (auto& v : wrec) v.reserve(reserve);
  for (auto& v : rrec) v.reserve(reserve);

  res.start_ns = now_ns();
  {
    Runtime rt;
    Program wprog(t.writer_program, t.writers);
    Program rprog(t.reader_program, t.readers);
    std::vector<std::thread> threads;
    for (int w = 1; w < t.writers; ++w) {
      threads.emplace_back([&, w] {
        writer_rank(t, rt, wprog, w, sh, nullptr,
                    &wrec[static_cast<std::size_t>(w)]);
      });
    }
    for (int r = 0; r < t.readers; ++r) {
      threads.emplace_back([&, r] {
        reader_rank(t, rt, rprog, r, sh, &rrec[static_cast<std::size_t>(r)]);
      });
    }
    writer_rank(t, rt, wprog, 0, sh, &window, &wrec[0]);
    for (std::thread& th : threads) th.join();
    trace::set_thread_pid(0);
  }

  for (auto& v : wrec) res.writer.insert(res.writer.end(), v.begin(), v.end());
  for (auto& v : rrec) res.reader.insert(res.reader.end(), v.begin(), v.end());
  res.errors = std::move(sh.errors);
  res.aborted = sh.aborted;
  std::uint64_t step0_done = 0;
  for (const WriterStep& w : res.writer) {
    res.end_step = std::max(res.end_step, w.step + 1);
  }
  for (const ReaderStep& r : res.reader) {
    if (r.step == 0) step0_done = std::max(step0_done, r.end_ns);
  }
  res.setup_ns = step0_done > res.start_ns ? step0_done - res.start_ns : 0;
  return res;
}

// --- gts_staging: staging-node placement over rdma -----------------------

constexpr int kGtsWriters = 2;
// Particles per rank and species of each input step, cycled. A writer's
// batched message (zion + electron, 112 bytes a particle) is 6.3-7.1 MB on
// the first two and 9.6-10.8 MB on the last two, so every other step it
// changes between the registration cache's 8 MiB and 16 MiB size classes.
constexpr std::uint64_t kGtsParticles[] = {58000, 62000, 88000, 94000};
constexpr int kGtsPatterns = static_cast<int>(std::size(kGtsParticles));

struct GtsTables {
  std::vector<double> zion, electron;
  adios::VarMeta zion_meta, electron_meta;
};

/// Tables of one rank's input steps, each after two cycles of its own
/// GtsRank, whose migration moves the counts by up to 1% a cycle.
std::vector<GtsTables> gts_steps(int rank, std::uint64_t seed) {
  std::vector<GtsTables> out;
  for (int k = 0; k < kGtsPatterns; ++k) {
    apps::GtsRank gts(rank, kGtsParticles[k],
                      seed * kGtsPatterns + static_cast<std::uint64_t>(k));
    gts.advance();
    gts.advance();
    out.push_back(GtsTables{gts.zion(), gts.electron(), gts.zion_meta(),
                            gts.electron_meta()});
  }
  return out;
}

class GtsStaging final : public Workload {
 public:
  explicit GtsStaging(std::uint64_t seed) {
    for (int w = 0; w < kGtsWriters; ++w) {
      input_.push_back(gts_steps(w, seed));
      // The reference is a second, independently advanced generator.
      expected_.push_back(gts_steps(w, seed));
    }
    t_.writer_program = "gts";
    t_.reader_program = "staging";
    t_.writers = kGtsWriters;
    t_.readers = 1;
    t_.streams = {"particles"};
    // A 16 MiB registration cache holds a buffer of one size class, so each
    // class change evicts the pooled buffer and registers a fresh one: the
    // reclamation threshold bounds memory at the price of re-registering.
    t_.methods = {
        method_from("caching=none; batching=yes; async=no; rdma_pool=16M")};
    // Writers on compute node 0, the staging reader on node 1.
    t_.location = [](bool writer, int rank) {
      return writer ? evpath::Location{0, rank} : evpath::Location{1, 0};
    };
    t_.transport = evpath::TransportKind::kRdma;
    t_.write = [this](StreamWriter& w, int, int rank, std::int64_t step) {
      const GtsTables& in = input_[static_cast<std::size_t>(rank)]
                                  [static_cast<std::size_t>(step % kGtsPatterns)];
      Status st = traced_write(w, in.zion_meta, bytes_of(in.zion));
      if (st.is_ok()) st = traced_write(w, in.electron_meta, bytes_of(in.electron));
      return st;
    };
    t_.schedule = [](StreamReader& r, int, int) {
      for (int w = 0; w < kGtsWriters; ++w) {
        FLEXIO_RETURN_IF_ERROR(r.schedule_read_pg(w));
      }
      return Status::ok();
    };
    t_.verify = [this](const StreamReader& r, int, int, std::int64_t step) {
      // Every (writer, table) pair exactly once, each equal to the reference.
      const auto& blocks = r.pg_blocks();
      if (blocks.size() != 2 * kGtsWriters) return false;
      unsigned seen = 0;
      for (const PgBlock& b : blocks) {
        if (b.writer_rank < 0 || b.writer_rank >= kGtsWriters) return false;
        const GtsTables& want =
            expected_[static_cast<std::size_t>(b.writer_rank)]
                     [static_cast<std::size_t>(step % kGtsPatterns)];
        const bool zion = b.meta.name == "zion";
        if (!zion && b.meta.name != "electron") return false;
        seen |= 1u << (2 * b.writer_rank + (zion ? 0 : 1));
        if (!(b.meta == (zion ? want.zion_meta : want.electron_meta))) {
          return false;
        }
        const std::vector<double>& table = zion ? want.zion : want.electron;
        if (!same_bytes(ByteView(b.payload), table.data(),
                        table.size() * sizeof(double))) {
          return false;
        }
      }
      return seen == (1u << (2 * kGtsWriters)) - 1;
    };
  }

  std::uint64_t step_bytes() const override {
    std::uint64_t total = 0;
    for (const auto& rank : input_) {
      for (const GtsTables& t : rank) {
        total += (t.zion.size() + t.electron.size()) * sizeof(double);
      }
    }
    return total / kGtsPatterns;
  }

  std::vector<bool> small_streams() const override { return {true}; }

  SessionResult run(const SessionPlan& plan) override {
    return run_session(t_, plan);
  }

 private:
  std::vector<std::vector<GtsTables>> input_;     // [writer][pattern]
  std::vector<std::vector<GtsTables>> expected_;  // [writer][pattern]
  Topology t_;
};

// --- s3d_helper: helper-core placement over shm ---------------------------

constexpr int kS3dWriters = 2;
constexpr int kS3dReaders = 2;
constexpr int kS3dPatterns = 3;
const adios::Dims kS3dGlobal{48, 40, 32};

class S3dHelper final : public Workload {
 public:
  explicit S3dHelper(std::uint64_t seed) {
    const auto decomp = apps::s3d_decompose(kS3dWriters);
    std::vector<apps::S3dRank> ranks;
    for (int w = 0; w < kS3dWriters; ++w) {
      ranks.emplace_back(kS3dGlobal, decomp, w, seed);
      // Readers cut along x: the writers must not, or pieces would be whole
      // blocks instead of strided sub-blocks.
      FLEXIO_CHECK(ranks.back().block().count[0] == kS3dGlobal[0]);
    }
    const std::uint64_t nx = kS3dGlobal[0], ny = kS3dGlobal[1],
                        nz = kS3dGlobal[2];
    input_.resize(kS3dPatterns);
    expected_.resize(kS3dPatterns);
    for (int k = 0; k < kS3dPatterns; ++k) {
      auto& in = input_[static_cast<std::size_t>(k)];
      auto& global = expected_[static_cast<std::size_t>(k)];
      global.assign(apps::kS3dSpecies, std::vector<double>(nx * ny * nz));
      for (int w = 0; w < kS3dWriters; ++w) {
        apps::S3dRank& s3d = ranks[static_cast<std::size_t>(w)];
        s3d.advance();
        std::vector<std::vector<double>> fields;
        std::vector<adios::VarMeta> metas;
        for (int s = 0; s < apps::kS3dSpecies; ++s) {
          fields.push_back(s3d.species(s));
          metas.push_back(s3d.species_meta(s));
          // Serial assembly of the writer block into the global array.
          const adios::Box& b = s3d.block();
          const std::vector<double>& f = fields.back();
          std::size_t i = 0;
          for (std::uint64_t x = 0; x < b.count[0]; ++x) {
            for (std::uint64_t y = 0; y < b.count[1]; ++y) {
              for (std::uint64_t z = 0; z < b.count[2]; ++z) {
                global[static_cast<std::size_t>(s)]
                      [((b.offset[0] + x) * ny + b.offset[1] + y) * nz +
                       b.offset[2] + z] = f[i++];
              }
            }
          }
        }
        in.push_back(WriterStepData{std::move(fields), std::move(metas)});
      }
    }
    // Reader r takes the x-slab [r*nx/R, (r+1)*nx/R): row-major, so it is
    // one contiguous range of the assembled global array.
    for (int r = 0; r < kS3dReaders; ++r) {
      adios::Box slab;
      slab.offset = {nx / kS3dReaders * static_cast<std::uint64_t>(r), 0, 0};
      slab.count = {nx / kS3dReaders, ny, nz};
      slabs_.push_back(slab);
      dst_.emplace_back(apps::kS3dSpecies,
                        std::vector<double>(slab.elements()));
    }

    t_.writer_program = "s3d";
    t_.reader_program = "helper";
    t_.writers = kS3dWriters;
    t_.readers = kS3dReaders;
    t_.streams = {"species"};
    // A shallow shm queue is the writer's backpressure: four in-flight
    // steps per link stay well inside the 64 MiB buffer pool, so the
    // writers block on a full queue instead of exhausting the pool.
    t_.methods = {
        method_from("caching=all; batching=yes; async=yes; queue_entries=4")};
    // One node: simulation ranks and helper-core analytics share it.
    t_.location = [](bool writer, int rank) {
      return evpath::Location{0, writer ? rank : kS3dWriters + rank};
    };
    t_.transport = evpath::TransportKind::kShm;
    t_.write = [this](StreamWriter& w, int, int rank, std::int64_t step) {
      const WriterStepData& in =
          input_[static_cast<std::size_t>(step % kS3dPatterns)]
                [static_cast<std::size_t>(rank)];
      for (int s = 0; s < apps::kS3dSpecies; ++s) {
        const auto i = static_cast<std::size_t>(s);
        FLEXIO_RETURN_IF_ERROR(traced_write(w, in.metas[i], bytes_of(in.fields[i])));
      }
      return Status::ok();
    };
    t_.schedule = [this](StreamReader& r, int, int rank) {
      const auto ri = static_cast<std::size_t>(rank);
      for (int s = 0; s < apps::kS3dSpecies; ++s) {
        std::vector<double>& dst = dst_[ri][static_cast<std::size_t>(s)];
        FLEXIO_RETURN_IF_ERROR(r.schedule_read(
            apps::S3dRank::species_name(s), slabs_[ri],
            MutableByteView(std::as_writable_bytes(std::span<double>(dst)))));
      }
      return Status::ok();
    };
    t_.verify = [this](const StreamReader&, int, int rank, std::int64_t step) {
      const auto ri = static_cast<std::size_t>(rank);
      const adios::Box& slab = slabs_[ri];
      const std::size_t first = slab.offset[0] * kS3dGlobal[1] * kS3dGlobal[2];
      for (int s = 0; s < apps::kS3dSpecies; ++s) {
        const std::vector<double>& want =
            expected_[static_cast<std::size_t>(step % kS3dPatterns)]
                     [static_cast<std::size_t>(s)];
        const std::vector<double>& got = dst_[ri][static_cast<std::size_t>(s)];
        if (!same_bytes(bytes_of(got), want.data() + first,
                        slab.elements() * sizeof(double))) {
          return false;
        }
      }
      return true;
    };
  }

  std::uint64_t step_bytes() const override {
    return apps::kS3dSpecies * adios::volume(kS3dGlobal) * sizeof(double);
  }

  std::vector<bool> small_streams() const override { return {true}; }

  SessionResult run(const SessionPlan& plan) override {
    return run_session(t_, plan);
  }

 private:
  struct WriterStepData {
    std::vector<std::vector<double>> fields;  // [species]
    std::vector<adios::VarMeta> metas;
  };
  std::vector<std::vector<WriterStepData>> input_;  // [pattern][writer]
  // [pattern][species]: the global arrays assembled from the writer blocks.
  std::vector<std::vector<std::vector<double>>> expected_;
  std::vector<adios::Box> slabs_;                      // [reader]
  std::vector<std::vector<std::vector<double>>> dst_;  // [reader][species]
  Topology t_;
};

// --- mixed_streams: inline placement, many streams on one shared link -----

// Each elephant is followed by twenty mice. The first mouse after an
// elephant waits for all of it (about 6x an undisturbed mouse's latency),
// and, depending on load, 10-30% of the mice wait for part of one (about
// 2.5x). Mouse latency p50 thus lands inside the undisturbed mice and p90
// inside the partly delayed tier, never on a seam between tiers where it
// would jump from run to run. With six mice an elephant, the undisturbed
// mice were 55-60% of all, and p50 jumped between 45 and 100 us as load on
// the host changed.
constexpr int kMice = 120;
constexpr int kElephants = 6;
constexpr int kMixedPatterns = 4;
constexpr std::uint64_t kElephantRows = 256, kElephantCols = 256;  // 512 KiB

class MixedStreams final : public Workload {
 public:
  explicit MixedStreams(std::uint64_t seed) : seed_(seed) {
    // Elephants interleave with the mice: one after every kMice/kElephants.
    Rng sizes(seed);
    const int n = kMice + kElephants;
    const int stride = n / kElephants;
    for (int s = 0; s < n; ++s) {
      const bool elephant = s % stride == stride - 1;
      Stream st;
      st.small = !elephant;
      if (elephant) {
        st.meta = adios::global_array_var(
            "v", serial::DataType::kDouble, {kElephantRows, kElephantCols},
            adios::Box{{0, 0}, {kElephantRows, kElephantCols}});
      } else {
        const std::uint64_t len = 128 + sizes.next_below(385);  // 1-4 KiB
        st.meta = adios::global_array_var("v", serial::DataType::kDouble,
                                          {len}, adios::Box{{0}, {len}});
      }
      for (int k = 0; k < kMixedPatterns; ++k) {
        st.input.push_back(values(s, k, st.meta.block.elements()));
        st.expected.push_back(values(s, k, st.meta.block.elements()));
      }
      st.dst.resize(st.meta.block.elements());
      streams_.push_back(std::move(st));
      t_.streams.push_back((elephant ? "elephant" : "mouse") + std::to_string(s));
      t_.methods.push_back(method_from(
          elephant ? "caching=all; batching=yes; async=yes; shared_links=yes"
                   : "caching=none; batching=yes; async=no; shared_links=yes"));
    }
    t_.writer_program = "sim";
    t_.reader_program = "viz";
    t_.writers = 1;
    t_.readers = 1;
    // Inline: analytics run in the simulation's own process slot.
    t_.location = [](bool, int) { return evpath::Location{0, 0}; };
    t_.transport = evpath::TransportKind::kInproc;
    t_.write = [this](StreamWriter& w, int s, int, std::int64_t step) {
      const Stream& st = streams_[static_cast<std::size_t>(s)];
      return traced_write(
          w, st.meta,
          bytes_of(st.input[static_cast<std::size_t>(step % kMixedPatterns)]));
    };
    t_.schedule = [this](StreamReader& r, int s, int) {
      Stream& st = streams_[static_cast<std::size_t>(s)];
      return r.schedule_read(
          "v", st.meta.block,
          MutableByteView(std::as_writable_bytes(std::span<double>(st.dst))));
    };
    t_.verify = [this](const StreamReader&, int s, int, std::int64_t step) {
      const Stream& st = streams_[static_cast<std::size_t>(s)];
      const std::vector<double>& want =
          st.expected[static_cast<std::size_t>(step % kMixedPatterns)];
      return same_bytes(bytes_of(st.dst), want.data(),
                        want.size() * sizeof(double));
    };
  }

  std::uint64_t step_bytes() const override {
    std::uint64_t total = 0;
    for (const Stream& st : streams_) total += st.meta.payload_bytes();
    return total;
  }

  std::vector<bool> small_streams() const override {
    std::vector<bool> out;
    for (const Stream& st : streams_) out.push_back(st.small);
    return out;
  }

  SessionResult run(const SessionPlan& plan) override {
    return run_session(t_, plan);
  }

 private:
  struct Stream {
    bool small = true;
    adios::VarMeta meta;
    std::vector<std::vector<double>> input;     // [pattern]
    std::vector<std::vector<double>> expected;  // [pattern], regenerated
    std::vector<double> dst;
  };

  std::vector<double> values(int stream, int pattern, std::uint64_t n) const {
    Rng rng(seed_ * 0x9e3779b97f4a7c15ULL +
            static_cast<std::uint64_t>(stream) * 1000 +
            static_cast<std::uint64_t>(pattern));
    std::vector<double> v(n);
    for (double& x : v) x = rng.next_double();
    return v;
  }

  std::uint64_t seed_;
  std::vector<Stream> streams_;
  Topology t_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "gts_staging") return std::make_unique<GtsStaging>(seed);
  if (name == "s3d_helper") return std::make_unique<S3dHelper>(seed);
  if (name == "mixed_streams") return std::make_unique<MixedStreams>(seed);
  return nullptr;
}

}  // namespace perfbench
