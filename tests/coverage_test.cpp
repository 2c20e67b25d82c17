// Additional edge-case and property coverage across modules: BP file
// round-trip properties, CoD language corners, flow-network invariants,
// XML parser corners, and monitoring trace output.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "adios/bp_file.h"
#include "cod/parser.h"
#include "cod/plugin.h"
#include "cod/program.h"
#include "core/advisor.h"
#include "core/monitor.h"
#include "sim/engine.h"
#include "sim/flow_network.h"
#include "util/rng.h"
#include "xml/xml.h"

namespace flexio {
namespace {

using adios::Box;
using adios::Dims;
using serial::DataType;

// ------------------------------------------------ BP file property tests --

class BpPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BpPropertyTest, RandomStreamsRoundTrip) {
  // Property: any mix of scalars, local arrays, and global arrays across
  // random writers/steps reads back exactly.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const std::string dir = ::testing::TempDir() + "/bp_prop_" +
                          std::to_string(GetParam());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const int writers = 1 + static_cast<int>(rng.next_below(4));
  const int steps = 1 + static_cast<int>(rng.next_below(4));
  const Dims global{8 + rng.next_below(24)};

  // Remember everything written for verification.
  std::map<std::tuple<int, StepId>, std::vector<double>> locals;
  for (int w = 0; w < writers; ++w) {
    auto writer = adios::BpWriter::create(dir, "prop", w, writers);
    ASSERT_TRUE(writer.is_ok());
    for (int s = 0; s < steps; ++s) {
      ASSERT_TRUE(writer.value()->begin_step(s).is_ok());
      // Global block.
      const Box box = adios::block_decompose(global, writers, w, 0);
      std::vector<double> gdata(box.elements());
      for (std::size_t i = 0; i < gdata.size(); ++i) {
        gdata[i] = w * 1000.0 + s * 100.0 + static_cast<double>(i);
      }
      ASSERT_TRUE(writer.value()
                      ->write(adios::global_array_var("g", DataType::kDouble,
                                                      global, box),
                              as_bytes_view(std::span<const double>(gdata)))
                      .is_ok());
      // Local array with per-(writer, step) size.
      std::vector<double> ldata(3 + rng.next_below(20));
      for (std::size_t i = 0; i < ldata.size(); ++i) {
        ldata[i] = rng.next_gaussian();
      }
      ASSERT_TRUE(
          writer.value()
              ->write(adios::local_array_var("l", DataType::kDouble,
                                             {ldata.size()}),
                      as_bytes_view(std::span<const double>(ldata)))
              .is_ok());
      locals[{w, s}] = std::move(ldata);
      ASSERT_TRUE(writer.value()->end_step().is_ok());
    }
    ASSERT_TRUE(writer.value()->close().is_ok());
  }

  auto reader = adios::BpReader::open(dir, "prop");
  ASSERT_TRUE(reader.is_ok());
  EXPECT_EQ(reader.value()->steps().size(), static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    // Global read over the full space.
    std::vector<double> out(adios::volume(global));
    ASSERT_TRUE(reader.value()
                    ->read_global(s, "g", Box{{0}, global},
                                  MutableByteView(std::as_writable_bytes(
                                      std::span<double>(out))))
                    .is_ok());
    for (int w = 0; w < writers; ++w) {
      const Box box = adios::block_decompose(global, writers, w, 0);
      for (std::uint64_t i = 0; i < box.count[0]; ++i) {
        ASSERT_DOUBLE_EQ(out[box.offset[0] + i],
                         w * 1000.0 + s * 100.0 + static_cast<double>(i));
      }
    }
    // Local blocks per writer.
    for (int w = 0; w < writers; ++w) {
      const auto refs = reader.value()->blocks_for_writer(s, w);
      const std::vector<double>& expect = locals[{w, s}];
      bool found = false;
      for (const auto& ref : refs) {
        if (ref.meta.name != "l") continue;
        found = true;
        std::vector<double> data(ref.payload_bytes / sizeof(double));
        ASSERT_TRUE(reader.value()
                        ->read_block(ref, MutableByteView(
                                              std::as_writable_bytes(
                                                  std::span<double>(data))))
                        .is_ok());
        ASSERT_EQ(data, expect);
      }
      ASSERT_TRUE(found);
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BpPropertyTest, ::testing::Range(0, 12));

// ------------------------------------------------------- CoD corner cases --

StatusOr<double> eval(const std::string& source, const std::string& fn,
                      std::vector<double> args = {}) {
  auto ast = cod::parse(source);
  if (!ast.is_ok()) return ast.status();
  cod::Environment env;
  auto program = cod::compile(ast.value(), env);
  if (!program.is_ok()) return program.status();
  return cod::run(program.value(), fn, std::span<const double>(args), env);
}

TEST(CodCornerTest, ForWithoutInitOrCondition) {
  EXPECT_DOUBLE_EQ(
      eval("double f() { int i = 0; for (; i < 3;) i = i + 1; return i; }",
           "f")
          .value(),
      3);
  EXPECT_DOUBLE_EQ(
      eval("double f() { int s = 0; int i; for (i = 0; ; i = i + 1) { "
           "if (i >= 4) return s; s = s + i; } }",
           "f")
          .value(),
      6);
}

TEST(CodCornerTest, NestedCallsAndPrecedence) {
  const std::string src = R"(
    double add(double a, double b) { return a + b; }
    double f() { return add(1 + 2 * 3, add(4, 5)) * 2; }
  )";
  EXPECT_DOUBLE_EQ(eval(src, "f").value(), 32);  // (7 + 9) * 2
  EXPECT_DOUBLE_EQ(eval("double f() { return 2 < 3 == 1; }", "f").value(), 1);
  EXPECT_DOUBLE_EQ(eval("double f() { return -2 * -3; }", "f").value(), 6);
  EXPECT_DOUBLE_EQ(eval("double f() { return !0 + !1; }", "f").value(), 1);
}

TEST(CodCornerTest, DanglingElseBindsToNearest) {
  const std::string src = R"(
    double f(double x, double y) {
      if (x > 0)
        if (y > 0) return 1;
        else return 2;
      return 3;
    }
  )";
  EXPECT_DOUBLE_EQ(eval(src, "f", {1, 1}).value(), 1);
  EXPECT_DOUBLE_EQ(eval(src, "f", {1, -1}).value(), 2);
  EXPECT_DOUBLE_EQ(eval(src, "f", {-1, 1}).value(), 3);
}

TEST(CodCornerTest, VoidFunctionReturnsZeroValue) {
  // Calling a void function in expression position yields 0.0 (documented
  // CoD-mini semantics; C would reject it, the subset tolerates it).
  const std::string src = R"(
    void noop() {}
    double f() { return noop() + 5; }
  )";
  EXPECT_DOUBLE_EQ(eval(src, "f").value(), 5);
}

TEST(CodCornerTest, ScientificLiterals) {
  EXPECT_DOUBLE_EQ(eval("double f() { return 1.5e3 + 2E-2; }", "f").value(),
                   1500.02);
  EXPECT_DOUBLE_EQ(eval("double f() { return .5 * 4; }", "f").value(), 2);
}

TEST(CodCornerTest, EnvironmentMismatchDetected) {
  // Compile against one environment shape, run against another: the VM's
  // cross-check must catch it rather than read the wrong array.
  auto ast = cod::parse("double f() { return input[0]; }");
  ASSERT_TRUE(ast.is_ok());
  std::vector<double> data{42};
  cod::Environment compile_env;
  compile_env.add_array("input", std::span<const double>(data));
  auto program = cod::compile(ast.value(), compile_env);
  ASSERT_TRUE(program.is_ok());
  cod::Environment other_env;
  other_env.add_array("different", std::span<const double>(data));
  auto result = cod::run(program.value(), "f", {}, other_env);
  EXPECT_FALSE(result.is_ok());
}

TEST(CodCornerTest, PluginKeepsDeterministicOutput) {
  auto plugin = cod::compile_plugin(R"(
    void transform() {
      int i;
      for (i = 0; i < n; i = i + 1) {
        emit(max(min(input[i], 1.0), 0.0));
      }
    })");
  ASSERT_TRUE(plugin.is_ok());
  wire::DataPiece piece;
  piece.meta = adios::local_array_var("x", DataType::kDouble, {4});
  piece.region = piece.meta.block;
  const double vals[4] = {-1.0, 0.25, 0.75, 9.0};
  piece.payload.resize(sizeof vals);
  std::memcpy(piece.payload.data(), vals, sizeof vals);
  auto a = plugin.value()(piece);
  auto b = plugin.value()(piece);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().payload, b.value().payload);
  const auto* out = reinterpret_cast<const double*>(a.value().payload.data());
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[3], 1.0);
}

// ------------------------------------------------- flow network extras --

TEST(FlowExtraTest, StaggeredArrivalsConserveWork) {
  // Flows arriving at different times still finish no earlier than the
  // work-conservation bound and no later than fully serialized service.
  sim::EventEngine eng;
  sim::FlowNetwork net(&eng);
  const auto link = net.add_link(100.0, "l");
  double last = 0;
  double total = 0;
  for (int i = 0; i < 5; ++i) {
    const double bytes = 200.0 + i * 50;
    total += bytes;
    eng.schedule_at(i * 1.0, [&net, link, bytes, &last] {
      net.start_flow({link}, bytes, [&last](sim::SimTime t) {
        last = std::max(last, t);
      });
    });
  }
  eng.run();
  EXPECT_GE(last, total / 100.0);       // cannot beat capacity
  EXPECT_LE(last, 4.0 + total / 100.0); // cannot exceed arrival + serial
}

TEST(FlowExtraTest, ManyToManyAllComplete) {
  sim::EventEngine eng;
  sim::FlowNetwork net(&eng);
  std::vector<sim::LinkId> tx, rx;
  for (int i = 0; i < 6; ++i) tx.push_back(net.add_link(50, "tx"));
  for (int i = 0; i < 3; ++i) rx.push_back(net.add_link(50, "rx"));
  int done = 0;
  for (int s = 0; s < 6; ++s) {
    for (int r = 0; r < 3; ++r) {
      net.start_flow({tx[static_cast<std::size_t>(s)],
                      rx[static_cast<std::size_t>(r)]},
                     25.0, [&done](sim::SimTime) { ++done; });
    }
  }
  eng.run();
  EXPECT_EQ(done, 18);
  EXPECT_EQ(net.active_flows(), 0u);
}

// ------------------------------------------------------- xml extras --

TEST(XmlExtraTest, DeeplyNestedAndMixedContent) {
  auto doc = xml::parse(R"(
    <a><b><c><d attr="x">leaf text</d></c></b>
       <b2>sibling</b2></a>)");
  ASSERT_TRUE(doc.is_ok());
  const auto* d = doc.value().root().child("b")->child("c")->child("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->text, "leaf text");
  EXPECT_EQ(d->attr("attr"), "x");
  EXPECT_EQ(doc.value().root().child("b2")->text, "sibling");
}

TEST(XmlExtraTest, WhitespaceTolerance) {
  auto doc = xml::parse("  \n\t <root   a = \"1\"   >  text  </root>  \n");
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  EXPECT_EQ(doc.value().root().attr("a"), "1");
  EXPECT_EQ(doc.value().root().text, "text");
}

TEST(XmlExtraTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/roundtrip.xml";
  {
    std::ofstream out(path);
    out << "<adios-config><adios-group name=\"g\"/></adios-config>";
  }
  auto doc = xml::parse_file(path);
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc.value().root().name, "adios-config");
  EXPECT_FALSE(xml::parse_file("/nonexistent/nope.xml").is_ok());
}

// ---------------------------------------------- plug-in placement advice --

TEST(AdvisorTest, HeavyReductionFavorsWriterSide) {
  // A range query keeping 20% of 110 MB over an IB link saves far more
  // movement than its execution costs: run it inside the simulation.
  PluginPlacementInputs in;
  in.bytes_per_step = 110e6;
  in.reduction_ratio = 0.2;
  in.plugin_seconds_per_step = 0.01;
  in.movement_bandwidth = 1.5e9;
  in.writer_headroom_seconds = 0;
  const auto advice = advise_plugin_placement(in);
  EXPECT_TRUE(advice.run_at_writer);
  EXPECT_NEAR(advice.movement_seconds_saved, 0.8 * 110e6 / 1.5e9, 1e-9);
}

TEST(AdvisorTest, ExpensiveMarkupStaysAtReader) {
  // A markup plug-in that barely shrinks the data but costs real compute
  // must not be charged to the simulation.
  PluginPlacementInputs in;
  in.bytes_per_step = 1.7e6;
  in.reduction_ratio = 0.95;
  in.plugin_seconds_per_step = 0.5;
  in.movement_bandwidth = 5e9;
  const auto advice = advise_plugin_placement(in);
  EXPECT_FALSE(advice.run_at_writer);
}

TEST(AdvisorTest, WriterHeadroomAbsorbsCost) {
  PluginPlacementInputs in;
  in.bytes_per_step = 10e6;
  in.reduction_ratio = 0.5;
  in.plugin_seconds_per_step = 0.05;
  in.movement_bandwidth = 5e9;
  in.writer_headroom_seconds = 0;   // no slack: 1ms saved < 50ms cost
  EXPECT_FALSE(advise_plugin_placement(in).run_at_writer);
  in.writer_headroom_seconds = 0.1; // slack absorbs the plug-in entirely
  EXPECT_TRUE(advise_plugin_placement(in).run_at_writer);
}

TEST(AdvisorTest, InputsFromShippedReport) {
  wire::MonitorReport report;
  report.steps = 10;
  report.phase_steps = 10;
  report.pack_ns = 200'000'000;     // 50 ms of pack + transport hand-off
  report.enqueue_ns = 300'000'000;  // per step
  const auto in = inputs_from_reports(report, 110e6, 0.2, 0.02, 1.5e9);
  EXPECT_NEAR(in.writer_headroom_seconds, 0.05, 1e-12);
  EXPECT_TRUE(advise_plugin_placement(in).run_at_writer);

  // A report that covers no steps gives no headroom (not 0/0).
  report.phase_steps = 0;
  EXPECT_EQ(inputs_from_reports(report, 110e6, 0.2, 0.02, 1.5e9)
                .writer_headroom_seconds,
            0.0);
}

// ------------------------------------------------- monitoring trace dump --

TEST(MonitorTraceTest, CsvIsParseable) {
  wire::MonitorReport report;
  report.bytes_sent = 4096;
  report.handshake_ns = 250'000'000;
  const std::string path = ::testing::TempDir() + "/trace.csv";
  ASSERT_TRUE(dump_csv(report, path).is_ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "field,value");
  int rows = 0;
  bool saw_bytes = false, saw_handshake = false;
  while (std::getline(in, line)) {
    ++rows;
    if (line == "bytes_sent,4096") saw_bytes = true;
    if (line == "handshake_ns,250000000") saw_handshake = true;
  }
  EXPECT_EQ(rows, static_cast<int>(std::size(wire::kMonitorReportFields)));
  EXPECT_TRUE(saw_bytes);
  EXPECT_TRUE(saw_handshake);
  EXPECT_FALSE(dump_csv(report, ::testing::TempDir() + "/no/such/dir.csv")
                   .is_ok());
}

}  // namespace
}  // namespace flexio
