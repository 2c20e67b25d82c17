// Extended core tests: XML-config glue, plug-in migration at runtime,
// stream-level fault injection (timeout-and-retry through the whole
// pipeline), and redistribution-plan properties.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "core/config_glue.h"
#include "core/redistribution.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace flexio {
namespace {

using adios::Box;
using adios::Dims;
using serial::DataType;

constexpr const char* kConfigXml = R"(
<adios-config>
  <adios-group name="particles">
    <var name="zion" type="double" dimensions="nparticles,7"/>
    <var name="count" type="int64"/>
  </adios-group>
  <adios-group name="restart">
    <var name="state" type="double" dimensions="100"/>
  </adios-group>
  <method group="particles" method="FLEXIO">
    caching=local; batching=yes; async=yes; timeout_ms=15000
  </method>
</adios-config>)";

TEST(ConfigGlueTest, SpecFromConfigResolvesMethod) {
  auto config = xml::parse_config(kConfigXml);
  ASSERT_TRUE(config.is_ok());
  Program prog("sim", 1);
  EndpointSpec endpoint{&prog, 0, evpath::Location{0, 0}};
  auto spec = spec_from_config(config.value(), "particles", endpoint, "/tmp");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec.value().stream, "particles");
  EXPECT_EQ(spec.value().method.method, "FLEXIO");
  EXPECT_EQ(spec.value().method.caching, xml::CachingLevel::kLocal);
  EXPECT_TRUE(spec.value().method.batching);
  EXPECT_DOUBLE_EQ(spec.value().method.timeout_ms, 15000.0);
  EXPECT_EQ(spec.value().file_dir, "/tmp");
}

TEST(ConfigGlueTest, GroupWithoutMethodDefaultsToFiles) {
  auto config = xml::parse_config(kConfigXml);
  ASSERT_TRUE(config.is_ok());
  Program prog("sim", 1);
  auto spec = spec_from_config(config.value(), "restart",
                               EndpointSpec{&prog, 0, {}});
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec.value().method.method, "BP");
}

TEST(ConfigGlueTest, UnknownGroupRejected) {
  auto config = xml::parse_config(kConfigXml);
  ASSERT_TRUE(config.is_ok());
  Program prog("sim", 1);
  EXPECT_EQ(spec_from_config(config.value(), "ghost",
                             EndpointSpec{&prog, 0, {}})
                .status()
                .code(),
            ErrorCode::kNotFound);
}

TEST(ConfigGlueTest, ValidationEnforcesDeclaredSchema) {
  auto config = xml::parse_config(kConfigXml);
  ASSERT_TRUE(config.is_ok());
  const xml::GroupConfig& group = *config.value().group("particles");

  // Symbolic dimension accepts any count; literal "7" is enforced.
  EXPECT_TRUE(validate_against_group(
                  group, adios::local_array_var("zion", DataType::kDouble,
                                                {123, 7}))
                  .is_ok());
  EXPECT_FALSE(validate_against_group(
                   group, adios::local_array_var("zion", DataType::kDouble,
                                                 {123, 8}))
                   .is_ok());
  // Declared type must match.
  EXPECT_FALSE(validate_against_group(
                   group, adios::local_array_var("zion", DataType::kFloat,
                                                 {123, 7}))
                   .is_ok());
  // Rank must match.
  EXPECT_FALSE(validate_against_group(
                   group, adios::local_array_var("zion", DataType::kDouble,
                                                 {123}))
                   .is_ok());
  // Scalars match zero-dimension declarations.
  EXPECT_TRUE(
      validate_against_group(group, adios::scalar_var("count",
                                                      DataType::kInt64))
          .is_ok());
  // Undeclared variable.
  EXPECT_EQ(validate_against_group(
                group, adios::scalar_var("mystery", DataType::kInt64))
                .code(),
            ErrorCode::kNotFound);
}

TEST(ConfigGlueTest, EndToEndFromXml) {
  // The paper's workflow: both sides resolve the same group from the same
  // config file; no transport choice appears in application code.
  auto config = xml::parse_config(kConfigXml);
  ASSERT_TRUE(config.is_ok());
  Runtime rt;
  Program sim("sim", 1), viz("viz", 1);
  std::thread writer([&] {
    auto spec = spec_from_config(config.value(), "particles",
                                 EndpointSpec{&sim, 0, {0, 0}});
    ASSERT_TRUE(spec.is_ok());
    auto w = rt.open_writer(spec.value());
    ASSERT_TRUE(w.is_ok());
    std::vector<double> zion(14, 1.0);
    const auto meta = adios::local_array_var("zion", DataType::kDouble, {2, 7});
    ASSERT_TRUE(
        validate_against_group(*config.value().group("particles"), meta)
            .is_ok());
    ASSERT_TRUE(w.value()->begin_step(0).is_ok());
    ASSERT_TRUE(w.value()
                    ->write(meta, as_bytes_view(std::span<const double>(zion)))
                    .is_ok());
    ASSERT_TRUE(w.value()->end_step().is_ok());
    ASSERT_TRUE(w.value()->close().is_ok());
  });
  std::thread reader([&] {
    auto spec = spec_from_config(config.value(), "particles",
                                 EndpointSpec{&viz, 0, {1, 0}});
    ASSERT_TRUE(spec.is_ok());
    auto r = rt.open_reader(spec.value());
    ASSERT_TRUE(r.is_ok());
    auto step = r.value()->begin_step();
    ASSERT_TRUE(step.is_ok());
    ASSERT_TRUE(r.value()->schedule_read_pg(0).is_ok());
    ASSERT_TRUE(r.value()->perform_reads().is_ok());
    EXPECT_EQ(r.value()->pg_blocks().size(), 1u);
    ASSERT_TRUE(r.value()->end_step().is_ok());
    while (r.value()->begin_step().status().code() != ErrorCode::kEndOfStream) {
    }
  });
  writer.join();
  reader.join();
}

// ------------------------------------------------------ plug-in mobility --

PluginCompiler doubling_compiler() {
  // Stand-in compiler: any source multiplies doubles by 2 and tags where it
  // ran by the source string ("writer"/"reader") -- enough to observe
  // migration without the cod module (which has its own e2e test).
  return [](const std::string& source) -> StatusOr<PluginFn> {
    return PluginFn(
        [source](const wire::DataPiece& in) -> StatusOr<wire::DataPiece> {
          wire::DataPiece out = in;
          auto* vals = reinterpret_cast<double*>(out.payload.data());
          for (std::size_t i = 0; i < out.payload.size() / 8; ++i) {
            vals[i] *= 2.0;
          }
          return out;
        });
  };
}

TEST(PluginMobilityTest, MigratesBetweenAddressSpacesAtRuntime) {
  const bool metrics_was = metrics::enabled();
  metrics::set_enabled(true);
  metrics::Histogram& exec_hist = metrics::histogram("flexio.plugin.exec.ns");
  const std::uint64_t execs_before = exec_hist.snapshot().count;
  Runtime rt;
  rt.set_plugin_compiler(doubling_compiler());
  Program sim("sim", 1), viz("viz", 1);
  constexpr int kSteps = 4;

  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "mig";
    spec.endpoint = EndpointSpec{&sim, 0, {0, 0}};
    spec.method.method = "FLEXIO";
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    std::vector<double> data{1.0, 2.0, 3.0, 4.0};
    for (int s = 0; s < kSteps; ++s) {
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(w.value()
                      ->write(adios::global_array_var("v", DataType::kDouble,
                                                      {4}, Box{{0}, {4}}),
                              as_bytes_view(std::span<const double>(data)))
                      .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
    // Ran at the writer for the middle two steps only.
    EXPECT_EQ(w.value()->counts().plugin_pieces, 2u);
    EXPECT_EQ(w.value()->counts().plugins_removed, 1u);
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "mig";
    spec.endpoint = EndpointSpec{&viz, 0, {2, 0}};
    spec.method.method = "FLEXIO";
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok());
    std::vector<double> out(4);
    for (int s = 0; s < kSteps; ++s) {
      // Step 1: deploy into the writer. Step 3: migrate to the reader.
      if (s == 1) {
        ASSERT_TRUE(r.value()->install_plugin("v", "writer", true).is_ok());
      } else if (s == 3) {
        ASSERT_TRUE(r.value()->migrate_plugin("v", "reader", false).is_ok());
      }
      auto step = r.value()->begin_step();
      ASSERT_TRUE(step.is_ok());
      ASSERT_TRUE(r.value()
                      ->schedule_read("v", Box{{0}, {4}},
                                      MutableByteView(std::as_writable_bytes(
                                          std::span<double>(out))))
                      .is_ok());
      ASSERT_TRUE(r.value()->perform_reads().is_ok());
      // Steps 0: untouched; 1,2: doubled at the writer; 3: doubled at the
      // reader (still doubled -- the *location* moved, not the effect).
      EXPECT_DOUBLE_EQ(out[0], s == 0 ? 1.0 : 2.0) << "step " << s;
      ASSERT_TRUE(r.value()->end_step().is_ok());
    }
    EXPECT_EQ(r.value()->begin_step().status().code(), ErrorCode::kEndOfStream);
  });
  writer.join();
  reader.join();
  // One execution sample per transformed piece, on whichever side ran it:
  // two at the writer, one at the reader.
  EXPECT_EQ(exec_hist.snapshot().count - execs_before, 3u);
  metrics::set_enabled(metrics_was);
}

TEST(PluginMobilityTest, CachingAllRejectsLatePluginInstall) {
  Runtime rt;
  rt.set_plugin_compiler(doubling_compiler());
  Program sim("sim", 1), viz("viz", 1);
  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "migall";
    spec.endpoint = EndpointSpec{&sim, 0, {0, 0}};
    spec.method.method = "FLEXIO";
    spec.method.caching = xml::CachingLevel::kAll;
    spec.method.timeout_ms = 3000;
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    std::vector<double> data{1.0};
    for (int s = 0; s < 2; ++s) {
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(w.value()
                      ->write(adios::global_array_var("v", DataType::kDouble,
                                                      {1}, Box{{0}, {1}}),
                              as_bytes_view(std::span<const double>(data)))
                      .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "migall";
    spec.endpoint = EndpointSpec{&viz, 0, {1, 0}};
    spec.method.method = "FLEXIO";
    spec.method.timeout_ms = 3000;
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok());
    std::vector<double> out(1);
    auto dst = MutableByteView(std::as_writable_bytes(std::span<double>(out)));
    ASSERT_TRUE(r.value()->begin_step().is_ok());
    ASSERT_TRUE(r.value()->schedule_read("v", Box{{0}, {1}}, dst).is_ok());
    ASSERT_TRUE(r.value()->perform_reads().is_ok());
    ASSERT_TRUE(r.value()->end_step().is_ok());
    // Second step: the handshake is cached away; installing now must fail
    // loudly instead of silently never deploying.
    ASSERT_TRUE(r.value()->install_plugin("v", "writer", true).is_ok());
    ASSERT_TRUE(r.value()->begin_step().is_ok());
    ASSERT_TRUE(r.value()->schedule_read("v", Box{{0}, {1}}, dst).is_ok());
    EXPECT_EQ(r.value()->perform_reads().code(),
              ErrorCode::kFailedPrecondition);
  });
  writer.join();
  reader.join();
}

// -------------------------------------------------- fault injection e2e --

TEST(StreamFaultTest, TransientFabricFlakesAreRetried) {
  // The paper's resiliency story: "simple timeout-and-retry schemes to
  // cope with errors and failures during data movement". Inject transient
  // RDMA failures under a cross-node stream and expect the pipeline to
  // complete regardless.
  Runtime rt;
  std::atomic<int> injected{0};
  rt.bus().fabric().set_fault_injector(
      [&injected](nnti::Op op, const std::string&, const std::string&) {
        // Fail every 7th message-queue put once.
        static std::atomic<int> counter{0};
        if (op == nnti::Op::kPutMessage &&
            counter.fetch_add(1) % 7 == 6) {
          injected.fetch_add(1);
          return make_error(ErrorCode::kUnavailable, "injected flake");
        }
        return Status::ok();
      });

  Program sim("sim", 2), viz("viz", 1);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < 2; ++rank) {
    threads.emplace_back([&, rank] {
      StreamSpec spec;
      spec.stream = "flaky";
      spec.endpoint = EndpointSpec{&sim, rank, {rank, rank}};
      spec.method.method = "FLEXIO";
      spec.method.max_retries = 5;
      auto w = rt.open_writer(spec);
      ASSERT_TRUE(w.is_ok()) << w.status().to_string();
      const Dims global{16};
      const Box box = adios::block_decompose(global, 2, rank, 0);
      std::vector<double> data(box.elements(), rank + 1.0);
      for (int s = 0; s < 5; ++s) {
        ASSERT_TRUE(w.value()->begin_step(s).is_ok());
        ASSERT_TRUE(
            w.value()
                ->write(adios::global_array_var("v", DataType::kDouble,
                                                global, box),
                        as_bytes_view(std::span<const double>(data)))
                .is_ok());
        const Status st = w.value()->end_step();
        ASSERT_TRUE(st.is_ok()) << st.to_string();
      }
      ASSERT_TRUE(w.value()->close().is_ok());
    });
  }
  threads.emplace_back([&] {
    StreamSpec spec;
    spec.stream = "flaky";
    spec.endpoint = EndpointSpec{&viz, 0, {9, 0}};
    spec.method.method = "FLEXIO";
    spec.method.max_retries = 5;
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    std::vector<double> out(16);
    int steps = 0;
    for (;;) {
      auto step = r.value()->begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) break;
      ASSERT_TRUE(step.is_ok()) << step.status().to_string();
      ASSERT_TRUE(r.value()
                      ->schedule_read("v", Box{{0}, {16}},
                                      MutableByteView(std::as_writable_bytes(
                                          std::span<double>(out))))
                      .is_ok());
      const Status st = r.value()->perform_reads();
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      EXPECT_DOUBLE_EQ(out[0], 1.0);
      EXPECT_DOUBLE_EQ(out[15], 2.0);
      ASSERT_TRUE(r.value()->end_step().is_ok());
      ++steps;
    }
    EXPECT_EQ(steps, 5);
  });
  for (auto& t : threads) t.join();
  EXPECT_GT(injected.load(), 0);  // the flakes really happened
}

// ------------------------------------------------ API hardening checks --

TEST(StreamValidationTest, OutOfBoundsSelectionAndDuplicateWrites) {
  Runtime rt;
  Program sim("sim", 1), viz("viz", 1);
  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "valid";
    spec.endpoint = EndpointSpec{&sim, 0, {0, 0}};
    spec.method.method = "FLEXIO";
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    std::vector<double> data(8, 1.0);
    const auto meta =
        adios::global_array_var("v", DataType::kDouble, {8}, Box{{0}, {8}});
    ASSERT_TRUE(w.value()->begin_step(0).is_ok());
    ASSERT_TRUE(w.value()
                    ->write(meta, as_bytes_view(std::span<const double>(data)))
                    .is_ok());
    // Same variable twice in one step is a caller bug.
    EXPECT_EQ(w.value()
                  ->write(meta, as_bytes_view(std::span<const double>(data)))
                  .code(),
              ErrorCode::kAlreadyExists);
    ASSERT_TRUE(w.value()->end_step().is_ok());
    ASSERT_TRUE(w.value()->close().is_ok());
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "valid";
    spec.endpoint = EndpointSpec{&viz, 0, {1, 0}};
    spec.method.method = "FLEXIO";
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok());
    ASSERT_TRUE(r.value()->begin_step().is_ok());
    std::vector<double> out(8);
    auto dst = MutableByteView(std::as_writable_bytes(std::span<double>(out)));
    // Selection past the array's end would stall silently without the check.
    EXPECT_EQ(r.value()->schedule_read("v", Box{{4}, {8}}, dst).code(),
              ErrorCode::kOutOfRange);
    // Wrong rank too.
    EXPECT_EQ(r.value()->schedule_read("v", Box{{0, 0}, {2, 4}}, dst).code(),
              ErrorCode::kOutOfRange);
    ASSERT_TRUE(r.value()->schedule_read("v", Box{{0}, {8}}, dst).is_ok());
    ASSERT_TRUE(r.value()->perform_reads().is_ok());
    ASSERT_TRUE(r.value()->end_step().is_ok());
    while (r.value()->begin_step().status().code() != ErrorCode::kEndOfStream) {
    }
  });
  writer.join();
  reader.join();
}

// --------------------------------------------------- scale stress test --

TEST(StreamScaleTest, EightByFourGlobalArrayPipeline) {
  // A denser MxN than the parameterized pipeline tests: 8 writers x 4
  // readers, 2-D array, RDMA everywhere, local caching + batching, 4 steps.
  Runtime rt;
  constexpr int kWriters = 8;
  constexpr int kReaders = 4;
  constexpr int kSteps = 4;
  Program sim("sim", kWriters);
  Program viz("viz", kReaders);
  const Dims global{64, 48};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      StreamSpec spec;
      spec.stream = "scale";
      spec.endpoint = EndpointSpec{&sim, w, {w, w}};
      spec.method.method = "FLEXIO";
      spec.method.caching = xml::CachingLevel::kLocal;
      spec.method.batching = true;
      auto writer = rt.open_writer(spec);
      ASSERT_TRUE(writer.is_ok());
      const Box box = adios::block_decompose(global, kWriters, w, 0);
      std::vector<double> data(box.elements());
      for (int s = 0; s < kSteps; ++s) {
        std::size_t i = 0;
        for (std::uint64_t r = 0; r < box.count[0]; ++r) {
          for (std::uint64_t c2 = 0; c2 < box.count[1]; ++c2) {
            data[i++] = s * 1e6 + (box.offset[0] + r) * 1e3 + c2;
          }
        }
        ASSERT_TRUE(writer.value()->begin_step(s).is_ok());
        ASSERT_TRUE(
            writer.value()
                ->write(adios::global_array_var("field", DataType::kDouble,
                                                global, box),
                        as_bytes_view(std::span<const double>(data)))
                .is_ok());
        ASSERT_TRUE(writer.value()->end_step().is_ok());
      }
      ASSERT_TRUE(writer.value()->close().is_ok());
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      StreamSpec spec;
      spec.stream = "scale";
      spec.endpoint = EndpointSpec{&viz, r, {100 + r, r}};
      spec.method.method = "FLEXIO";
      spec.method.caching = xml::CachingLevel::kLocal;
      spec.method.batching = true;
      auto reader = rt.open_reader(spec);
      ASSERT_TRUE(reader.is_ok());
      // Column-strip selection: touches every writer's block.
      const Box sel = adios::block_decompose(global, kReaders, r, 1);
      std::vector<double> out(sel.elements());
      int steps = 0;
      for (;;) {
        auto step = reader.value()->begin_step();
        if (step.status().code() == ErrorCode::kEndOfStream) break;
        ASSERT_TRUE(step.is_ok());
        ASSERT_TRUE(reader.value()
                        ->schedule_read("field", sel,
                                        MutableByteView(std::as_writable_bytes(
                                            std::span<double>(out))))
                        .is_ok());
        ASSERT_TRUE(reader.value()->perform_reads().is_ok());
        std::size_t i = 0;
        for (std::uint64_t row = 0; row < sel.count[0]; ++row) {
          for (std::uint64_t col = 0; col < sel.count[1]; ++col) {
            ASSERT_DOUBLE_EQ(out[i++],
                             step.value() * 1e6 + (sel.offset[0] + row) * 1e3 +
                                 (sel.offset[1] + col));
          }
        }
        ASSERT_TRUE(reader.value()->end_step().is_ok());
        ++steps;
      }
      EXPECT_EQ(steps, kSteps);
    });
  }
  for (auto& t : threads) t.join();
}

// -------------------------------------------------- protocol fuzz test --

// Property: a pipeline with randomized shape (writers, readers, steps,
// caching level, batching, async, transports, variable mix) always
// delivers every element correctly and terminates cleanly.
class PipelineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzzTest, RandomizedPipelineIsCorrect) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9176 + 3);
  const int writers = 1 + static_cast<int>(rng.next_below(4));
  const int readers = 1 + static_cast<int>(rng.next_below(3));
  const int steps = 1 + static_cast<int>(rng.next_below(5));
  const auto caching = static_cast<xml::CachingLevel>(rng.next_below(3));
  const bool batching = rng.next_below(2) != 0;
  const bool async = rng.next_below(2) != 0;
  const bool cross_node = rng.next_below(2) != 0;
  const Dims global{4 + rng.next_below(40), 1 + rng.next_below(6)};
  const bool with_pg = rng.next_below(2) != 0;

  Runtime rt;
  Program sim("sim", writers);
  Program viz("viz", readers);
  const std::string stream = "fuzz" + std::to_string(GetParam());

  auto value_at = [](int step, std::uint64_t r, std::uint64_t c) {
    return step * 1e6 + static_cast<double>(r) * 1e3 + static_cast<double>(c);
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      StreamSpec spec;
      spec.stream = stream;
      spec.endpoint = EndpointSpec{&sim, w, {cross_node ? w : 0, w}};
      spec.method.method = "FLEXIO";
      spec.method.caching = caching;
      spec.method.batching = batching;
      spec.method.async_writes = async;
      auto writer = rt.open_writer(spec);
      ASSERT_TRUE(writer.is_ok());
      const Box box = adios::block_decompose(global, writers, w, 0);
      std::vector<double> field(box.elements());
      // PG payload must keep a constant shape under CACHING_ALL. Derive
      // per-writer sizes without touching the shared test Rng (threads!).
      const std::uint64_t pg_rows =
          caching == xml::CachingLevel::kAll
              ? 7
              : 5 + static_cast<std::uint64_t>((GetParam() * 31 + w * 7) % 6);
      std::vector<double> particles(pg_rows * 2);
      for (int s = 0; s < steps; ++s) {
        std::size_t i = 0;
        for (std::uint64_t r = 0; r < box.count[0]; ++r) {
          for (std::uint64_t c = 0; c < box.count[1]; ++c) {
            field[i++] = value_at(s, box.offset[0] + r, box.offset[1] + c);
          }
        }
        for (std::size_t p = 0; p < particles.size(); ++p) {
          particles[p] = w * 1e4 + s * 1e2 + static_cast<double>(p);
        }
        ASSERT_TRUE(writer.value()->begin_step(s).is_ok());
        ASSERT_TRUE(
            writer.value()
                ->write(adios::global_array_var("f", DataType::kDouble,
                                                global, box),
                        as_bytes_view(std::span<const double>(field)))
                .is_ok());
        if (with_pg) {
          ASSERT_TRUE(
              writer.value()
                  ->write(adios::local_array_var("p", DataType::kDouble,
                                                 {pg_rows, 2}),
                          as_bytes_view(std::span<const double>(particles)))
                  .is_ok());
        }
        const Status st = writer.value()->end_step();
        ASSERT_TRUE(st.is_ok()) << st.to_string();
      }
      ASSERT_TRUE(writer.value()->close().is_ok());
    });
  }
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      StreamSpec spec;
      spec.stream = stream;
      spec.endpoint = EndpointSpec{&viz, r, {cross_node ? 50 + r : 0, 100 + r}};
      spec.method.method = "FLEXIO";
      spec.method.caching = caching;
      auto reader = rt.open_reader(spec);
      ASSERT_TRUE(reader.is_ok());
      const Box sel = adios::block_decompose(global, readers, r, 0);
      std::vector<double> out(sel.elements());
      int seen = 0;
      for (;;) {
        auto step = reader.value()->begin_step();
        if (step.status().code() == ErrorCode::kEndOfStream) break;
        ASSERT_TRUE(step.is_ok()) << step.status().to_string();
        ASSERT_TRUE(reader.value()
                        ->schedule_read("f", sel,
                                        MutableByteView(std::as_writable_bytes(
                                            std::span<double>(out))))
                        .is_ok());
        if (with_pg) {
          for (int w = r; w < writers; w += readers) {
            ASSERT_TRUE(reader.value()->schedule_read_pg(w).is_ok());
          }
        }
        const Status st = reader.value()->perform_reads();
        ASSERT_TRUE(st.is_ok()) << st.to_string();
        std::size_t i = 0;
        for (std::uint64_t row = 0; row < sel.count[0]; ++row) {
          for (std::uint64_t col = 0; col < sel.count[1]; ++col) {
            ASSERT_DOUBLE_EQ(out[i++],
                             value_at(static_cast<int>(step.value()),
                                      sel.offset[0] + row,
                                      sel.offset[1] + col));
          }
        }
        if (with_pg) {
          for (const PgBlock& block : reader.value()->pg_blocks()) {
            const auto* vals =
                reinterpret_cast<const double*>(block.payload.data());
            const std::size_t n = block.payload.size() / sizeof(double);
            for (std::size_t p = 0; p < n; ++p) {
              ASSERT_DOUBLE_EQ(vals[p], block.writer_rank * 1e4 +
                                            step.value() * 1e2 +
                                            static_cast<double>(p));
            }
          }
        }
        ASSERT_TRUE(reader.value()->end_step().is_ok());
        ++seen;
      }
      EXPECT_EQ(seen, steps);
    });
  }
  for (auto& t : threads) t.join();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest, ::testing::Range(0, 20));

// ------------------------------------------------ plan property testing --

class PlanPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanPropertyTest, PiecesTileSelectionsExactly) {
  // Property: for random writer decompositions and random reader
  // selections, the planned pieces (a) stay inside both the block and the
  // selection, (b) are pairwise disjoint per (reader, var), and (c) cover
  // exactly selection ∩ written-space, element for element.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const Dims global{4 + rng.next_below(40), 2 + rng.next_below(12)};
  const int writers = 1 + static_cast<int>(rng.next_below(6));
  const int readers = 1 + static_cast<int>(rng.next_below(4));

  const int split_dim = static_cast<int>(rng.next_below(2));
  std::vector<wire::BlockInfo> blocks;
  for (int w = 0; w < writers; ++w) {
    wire::BlockInfo b;
    b.writer_rank = w;
    b.meta = adios::global_array_var(
        "A", DataType::kDouble, global,
        adios::block_decompose(global, writers, w, split_dim));
    blocks.push_back(std::move(b));
  }
  wire::ReadRequest req;
  for (int r = 0; r < readers; ++r) {
    Box sel;
    sel.offset.resize(2);
    sel.count.resize(2);
    for (int d = 0; d < 2; ++d) {
      const auto du = static_cast<std::size_t>(d);
      sel.offset[du] = rng.next_below(global[du]);
      sel.count[du] = 1 + rng.next_below(global[du] - sel.offset[du]);
    }
    req.selections.push_back(wire::SelectionInfo{r, "A", sel});
  }
  const auto plan = plan_transfers(blocks, req);

  for (int r = 0; r < readers; ++r) {
    const Box& sel = req.selections[static_cast<std::size_t>(r)].box;
    std::vector<int> covered(sel.elements(), 0);
    for (const TransferPiece& p : pieces_to_reader(plan, r)) {
      ASSERT_TRUE(contains(sel, p.region));
      ASSERT_TRUE(contains(p.meta.block, p.region));
      // Mark covered elements; disjointness means no element marked twice.
      Dims coord(2);
      for (std::uint64_t i = 0; i < p.region.count[0]; ++i) {
        for (std::uint64_t j = 0; j < p.region.count[1]; ++j) {
          coord[0] = p.region.offset[0] + i;
          coord[1] = p.region.offset[1] + j;
          ++covered[adios::flat_index(sel, coord)];
        }
      }
    }
    // Writers' blocks tile the global array, so the whole selection must
    // be covered exactly once.
    for (int c : covered) ASSERT_EQ(c, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanPropertyTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace flexio
