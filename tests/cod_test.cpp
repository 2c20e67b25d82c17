// Tests for CoD-mini: lexer, parser, compiler, VM, and the DC plug-in
// adapter over stream data pieces.
#include <gtest/gtest.h>

#include <cstring>

#include "cod/lexer.h"
#include "cod/parser.h"
#include "cod/plugin.h"
#include "cod/program.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include <thread>

namespace flexio::cod {
namespace {

using serial::DataType;

// ---------------------------------------------------------------- lexer --

TEST(LexerTest, TokenizesOperatorsAndNumbers) {
  auto tokens = tokenize("x = 3.5e2 + 4 % 2; // comment\ny == x != 1");
  ASSERT_TRUE(tokens.is_ok()) << tokens.status().to_string();
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].kind, Tok::kIdent);
  EXPECT_EQ(t[1].kind, Tok::kAssign);
  EXPECT_EQ(t[2].kind, Tok::kNumber);
  EXPECT_DOUBLE_EQ(t[2].number, 350.0);
  EXPECT_EQ(t[3].kind, Tok::kPlus);
  EXPECT_EQ(t[5].kind, Tok::kPercent);
  EXPECT_EQ(t[7].kind, Tok::kSemicolon);
  EXPECT_EQ(t[9].kind, Tok::kEq);
  EXPECT_EQ(t[11].kind, Tok::kNe);
  EXPECT_EQ(t.back().kind, Tok::kEnd);
}

TEST(LexerTest, KeywordsAndComments) {
  auto tokens = tokenize("int double void if else while for return /* all\nof this skipped */ x");
  ASSERT_TRUE(tokens.is_ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].kind, Tok::kInt);
  EXPECT_EQ(t[2].kind, Tok::kVoid);
  EXPECT_EQ(t[7].kind, Tok::kReturn);
  EXPECT_EQ(t[8].kind, Tok::kIdent);
  EXPECT_EQ(t[8].line, 2);  // comment newline counted
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_FALSE(tokenize("a @ b").is_ok());
  EXPECT_FALSE(tokenize("/* never closed").is_ok());
}

// --------------------------------------------------------------- parser --

TEST(ParserTest, ParsesFunctionShapes) {
  auto ast = parse(R"(
    double add(double a, double b) { return a + b; }
    void transform() { int i; i = 0; }
  )");
  ASSERT_TRUE(ast.is_ok()) << ast.status().to_string();
  ASSERT_EQ(ast.value().functions.size(), 2u);
  EXPECT_TRUE(ast.value().functions[0].returns_value);
  EXPECT_EQ(ast.value().functions[0].params.size(), 2u);
  EXPECT_FALSE(ast.value().functions[1].returns_value);
  EXPECT_NE(ast.value().find("add"), nullptr);
  EXPECT_EQ(ast.value().find("missing"), nullptr);
}

TEST(ParserTest, RejectsSyntaxErrors) {
  EXPECT_FALSE(parse("void f() { if }").is_ok());
  EXPECT_FALSE(parse("void f() { x = ; }").is_ok());
  EXPECT_FALSE(parse("void f() {").is_ok());
  EXPECT_FALSE(parse("void f(void x) {}").is_ok());
  EXPECT_FALSE(parse("double 3() {}").is_ok());
  EXPECT_FALSE(parse("void f() {} void f() {}").is_ok());  // duplicate
  EXPECT_FALSE(parse("x = 3;").is_ok());  // statements only inside functions
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto ast = parse("void f() {\n\n  x = ;\n}");
  ASSERT_FALSE(ast.is_ok());
  EXPECT_NE(ast.status().message().find("line 3"), std::string::npos);
}

// --------------------------------------------------------- compiler+vm --

/// Compile and run `source`'s function `fn` with args, with an optional
/// prepared environment.
StatusOr<double> eval(const std::string& source, const std::string& fn,
                      std::vector<double> args = {},
                      Environment* env_in = nullptr,
                      const VmLimits& limits = {}) {
  auto ast = parse(source);
  if (!ast.is_ok()) return ast.status();
  Environment local_env;
  Environment* env = env_in != nullptr ? env_in : &local_env;
  auto program = compile(ast.value(), *env);
  if (!program.is_ok()) return program.status();
  return run(program.value(), fn, std::span<const double>(args), *env, limits);
}

TEST(VmTest, ArithmeticAndPrecedence) {
  EXPECT_DOUBLE_EQ(eval("double f() { return 2 + 3 * 4; }", "f").value(), 14);
  EXPECT_DOUBLE_EQ(eval("double f() { return (2 + 3) * 4; }", "f").value(), 20);
  EXPECT_DOUBLE_EQ(eval("double f() { return -3 + 1; }", "f").value(), -2);
  EXPECT_DOUBLE_EQ(eval("double f() { return 7 % 3; }", "f").value(), 1);
  EXPECT_DOUBLE_EQ(eval("double f() { return 10 / 4; }", "f").value(), 2.5);
}

TEST(VmTest, ComparisonsAndLogic) {
  EXPECT_DOUBLE_EQ(eval("double f() { return 3 < 4 && 4 <= 4; }", "f").value(), 1);
  EXPECT_DOUBLE_EQ(eval("double f() { return 3 > 4 || 0; }", "f").value(), 0);
  EXPECT_DOUBLE_EQ(eval("double f() { return !(1 == 2); }", "f").value(), 1);
  EXPECT_DOUBLE_EQ(eval("double f() { return 5 >= 6; }", "f").value(), 0);
}

TEST(VmTest, ShortCircuitSkipsSideEffects) {
  // Division by zero on the right side must not run when short-circuited.
  EXPECT_DOUBLE_EQ(eval("double f() { return 0 && 1 / 0; }", "f").value(), 0);
  EXPECT_DOUBLE_EQ(eval("double f() { return 1 || 1 / 0; }", "f").value(), 1);
  // But it does run when reached.
  EXPECT_FALSE(eval("double f() { return 1 && 1 / 0; }", "f").is_ok());
}

TEST(VmTest, ControlFlow) {
  EXPECT_DOUBLE_EQ(
      eval("double f(double x) { if (x > 0) return 1; else return 2; }", "f",
           {5})
          .value(),
      1);
  EXPECT_DOUBLE_EQ(
      eval("double f(double x) { if (x > 0) return 1; else return 2; }", "f",
           {-5})
          .value(),
      2);
  EXPECT_DOUBLE_EQ(
      eval("double f() { int s = 0; int i; for (i = 1; i <= 10; i = i + 1) "
           "s = s + i; return s; }",
           "f")
          .value(),
      55);
  EXPECT_DOUBLE_EQ(
      eval("double f() { int s = 0; int i = 0; while (i < 5) { s = s + 2; "
           "i = i + 1; } return s; }",
           "f")
          .value(),
      10);
}

TEST(VmTest, FunctionsCallEachOther) {
  const std::string src = R"(
    double square(double x) { return x * x; }
    double f(double a, double b) { return square(a) + square(b); }
  )";
  EXPECT_DOUBLE_EQ(eval(src, "f", {3, 4}).value(), 25);
}

TEST(VmTest, RecursionWorks) {
  const std::string src =
      "double fact(double n) { if (n <= 1) return 1; return n * fact(n - 1); }";
  EXPECT_DOUBLE_EQ(eval(src, "fact", {6}).value(), 720);
}

TEST(VmTest, RecursionDepthBounded) {
  const std::string src = "double f(double n) { return f(n + 1); }";
  auto result = eval(src, "f", {0});
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("depth"), std::string::npos);
}

TEST(VmTest, InstructionBudgetStopsRunaways) {
  VmLimits limits;
  limits.max_instructions = 10000;
  auto result = eval("void f() { while (1) {} }", "f", {}, nullptr, limits);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("budget"), std::string::npos);
}

TEST(VmTest, ScopingShadowsAndExpires) {
  const std::string src = R"(
    double f() {
      int x = 1;
      { int x = 2; }
      return x;
    }
  )";
  EXPECT_DOUBLE_EQ(eval(src, "f").value(), 1);
  // Redeclaration in the same scope is an error.
  EXPECT_FALSE(eval("void f() { int x; int x; }", "f").is_ok());
  // Use of undeclared variables is a compile error.
  EXPECT_FALSE(eval("void f() { y = 3; }", "f").is_ok());
  EXPECT_FALSE(eval("double f() { return y; }", "f").is_ok());
}

TEST(VmTest, DisassemblerListsEveryFunction) {
  auto ast = parse(R"(
    double square(double x) { return x * x; }
    void transform() {
      int i;
      for (i = 0; i < 3; i = i + 1) square(i);
    }
  )");
  ASSERT_TRUE(ast.is_ok());
  Environment env;
  auto program = compile(ast.value(), env);
  ASSERT_TRUE(program.is_ok());
  const std::string listing = disassemble(program.value());
  EXPECT_NE(listing.find("square (params=1"), std::string::npos);
  EXPECT_NE(listing.find("transform (params=0"), std::string::npos);
  EXPECT_NE(listing.find("call"), std::string::npos);
  EXPECT_NE(listing.find("jz"), std::string::npos);
  EXPECT_NE(listing.find("mul"), std::string::npos);
}

TEST(VmTest, EnvironmentGlobalsArraysBuiltins) {
  Environment env;
  std::vector<double> data{10, 20, 30};
  double sum = 0;
  env.add_global("n", 3);
  env.add_array("input", std::span<const double>(data));
  env.add_builtin("accumulate", 1, [&sum](std::span<const double> a) {
    sum += a[0];
    return StatusOr<double>(sum);
  });
  const std::string src = R"(
    void transform() {
      int i;
      for (i = 0; i < n; i = i + 1) accumulate(input[i]);
    }
  )";
  ASSERT_TRUE(eval(src, "transform", {}, &env).is_ok());
  EXPECT_DOUBLE_EQ(sum, 60);
}

TEST(VmTest, ArrayBoundsChecked) {
  Environment env;
  std::vector<double> data{1, 2};
  env.add_array("input", std::span<const double>(data));
  EXPECT_FALSE(eval("double f() { return input[5]; }", "f", {}, &env).is_ok());
  EXPECT_FALSE(eval("double f() { return input[-1]; }", "f", {}, &env).is_ok());
}

TEST(VmTest, BuiltinArityChecked) {
  Environment env;
  env.add_builtin("two", 2, [](std::span<const double> a) {
    return StatusOr<double>(a[0] + a[1]);
  });
  EXPECT_FALSE(eval("double f() { return two(1); }", "f", {}, &env).is_ok());
  EXPECT_DOUBLE_EQ(eval("double f() { return two(1, 2); }", "f", {}, &env)
                       .value(),
                   3);
}

TEST(VmTest, DivisionByZeroReported) {
  EXPECT_FALSE(eval("double f() { return 1 / 0; }", "f").is_ok());
  EXPECT_FALSE(eval("double f() { return 1 % 0; }", "f").is_ok());
}

// ------------------------------------------------------------- plug-ins --

wire::DataPiece particle_piece(std::vector<double> values, std::uint64_t cols) {
  wire::DataPiece piece;
  const std::uint64_t rows = values.size() / cols;
  piece.meta = adios::local_array_var("zion", DataType::kDouble, {rows, cols});
  piece.region = piece.meta.block;
  piece.payload.resize(values.size() * sizeof(double));
  std::memcpy(piece.payload.data(), values.data(), piece.payload.size());
  return piece;
}

std::vector<double> piece_values(const wire::DataPiece& piece) {
  std::vector<double> out(piece.payload.size() / sizeof(double));
  std::memcpy(out.data(), piece.payload.data(), piece.payload.size());
  return out;
}

TEST(PluginTest, RangeQueryFilter) {
  // The paper's GTS example: keep particles whose velocity (attribute 1)
  // exceeds a threshold.
  auto plugin = compile_plugin(R"(
    void transform() {
      int r;
      for (r = 0; r < rows; r = r + 1) {
        if (input[r * cols + 1] > 10.0) keep_row(r);
      }
    }
  )");
  ASSERT_TRUE(plugin.is_ok()) << plugin.status().to_string();
  auto out = plugin.value()(particle_piece({1, 5,    // row 0: v=5 drop
                                            2, 15,   // row 1: v=15 keep
                                            3, 25},  // row 2: v=25 keep
                                           2));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value().meta.block.count[0], 2u);
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{2, 15, 3, 25}));
}

TEST(PluginTest, SamplingEveryKth) {
  auto plugin = compile_plugin(R"(
    void transform() {
      int r;
      for (r = 0; r < rows; r = r + 4) keep_row(r);
    }
  )");
  ASSERT_TRUE(plugin.is_ok());
  std::vector<double> values;
  for (int i = 0; i < 16; ++i) values.push_back(i);
  auto out = plugin.value()(particle_piece(values, 1));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{0, 4, 8, 12}));
}

TEST(PluginTest, UnitConversionOnGlobalArray) {
  auto plugin = compile_plugin(R"(
    void transform() {
      int i;
      for (i = 0; i < n; i = i + 1) emit(input[i] * 1.5 + 1.0);
    }
  )");
  ASSERT_TRUE(plugin.is_ok());
  wire::DataPiece piece;
  piece.meta = adios::global_array_var("T", DataType::kDouble, {4},
                                       adios::Box{{0}, {4}});
  piece.region = adios::Box{{1}, {2}};
  std::vector<double> values{10, 20};
  piece.payload.resize(values.size() * sizeof(double));
  std::memcpy(piece.payload.data(), values.data(), piece.payload.size());
  auto out = plugin.value()(piece);
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value().region, piece.region);
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{16, 31}));
}

TEST(PluginTest, GlobalArraySizeChangeRejected) {
  auto plugin = compile_plugin("void transform() { emit(1.0); }");
  ASSERT_TRUE(plugin.is_ok());
  wire::DataPiece piece;
  piece.meta = adios::global_array_var("T", DataType::kDouble, {4},
                                       adios::Box{{0}, {4}});
  piece.region = piece.meta.block;
  piece.payload.resize(4 * sizeof(double));
  EXPECT_FALSE(plugin.value()(piece).is_ok());
}

TEST(PluginTest, BoundingBoxViaMinMax) {
  // Markup-style plug-in: emits a 2-value bounding box of attribute 0.
  auto plugin = compile_plugin(R"(
    void transform() {
      double lo = input[0];
      double hi = input[0];
      int r;
      for (r = 1; r < rows; r = r + 1) {
        lo = min(lo, input[r * cols]);
        hi = max(hi, input[r * cols]);
      }
      emit(lo);
      emit(hi);
    }
  )");
  ASSERT_TRUE(plugin.is_ok());
  auto out = plugin.value()(particle_piece({5, 0, -3, 0, 9, 0}, 2));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().meta.block.count[0], 1u);  // one 2-col row
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{-3, 9}));
}

TEST(PluginTest, AnnotationOnlyPassesThrough) {
  auto plugin = compile_plugin(R"(
    void transform() {
      int i;
      double s = 0;
      for (i = 0; i < n; i = i + 1) s = s + input[i];
    }
  )");
  ASSERT_TRUE(plugin.is_ok());
  const auto piece = particle_piece({1, 2, 3, 4}, 2);
  auto out = plugin.value()(piece);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().payload, piece.payload);
  EXPECT_EQ(out.value().meta, piece.meta);
}

TEST(PluginTest, PartialRowRejected) {
  auto plugin = compile_plugin("void transform() { emit(1.0); }");
  ASSERT_TRUE(plugin.is_ok());
  EXPECT_FALSE(plugin.value()(particle_piece({1, 2, 3, 4}, 2)).is_ok());
}

TEST(PluginTest, RequiresTransformEntryPoint) {
  EXPECT_FALSE(compile_plugin("void other() {}").is_ok());
  EXPECT_FALSE(compile_plugin("not even code").is_ok());
}

TEST(PluginTest, MathBuiltinsAvailable) {
  auto plugin = compile_plugin(R"(
    void transform() {
      emit(exp(0.0));
      emit(log(input[0]));
      emit(sin(0.0) + cos(0.0));
    })");
  ASSERT_TRUE(plugin.is_ok()) << plugin.status().to_string();
  auto out = plugin.value()(particle_piece({2.718281828459045}, 1));
  ASSERT_TRUE(out.is_ok());
  const auto vals = piece_values(out.value());
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_DOUBLE_EQ(vals[0], 1.0);
  EXPECT_NEAR(vals[1], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(vals[2], 1.0);
  // log of non-positive input is a runtime error, not a NaN.
  auto bad = plugin.value()(particle_piece({-1.0}, 1));
  EXPECT_FALSE(bad.is_ok());
}

TEST(PluginTest, IntPayloadsConvert) {
  auto plugin = compile_plugin(R"(
    void transform() {
      int i;
      for (i = 0; i < n; i = i + 1) emit(input[i] * 2);
    }
  )");
  ASSERT_TRUE(plugin.is_ok());
  wire::DataPiece piece;
  piece.meta = adios::local_array_var("ids", DataType::kInt32, {3});
  piece.region = piece.meta.block;
  const std::int32_t ids[3] = {1, 2, 3};
  piece.payload.resize(sizeof ids);
  std::memcpy(piece.payload.data(), ids, sizeof ids);
  auto out = plugin.value()(piece);
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  const auto* vals =
      reinterpret_cast<const std::int32_t*>(out.value().payload.data());
  EXPECT_EQ(vals[0], 2);
  EXPECT_EQ(vals[2], 6);
}

TEST(PluginTest, EndToEndMobileCodeletOverStream) {
  // The full Section II.F story: the analytics side writes a CoD source
  // string; it travels to the simulation side with the read request, is
  // compiled there, and conditions the particle data before it ever
  // crosses the transport.
  Runtime rt;
  rt.set_plugin_compiler(make_plugin_compiler());
  Program sim("sim", 1);
  Program viz("viz", 1);

  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "codstream";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method.method = "FLEXIO";
    spec.method.timeout_ms = 20000;
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    std::vector<double> particles;
    for (int p = 0; p < 10; ++p) {
      particles.push_back(p);        // id
      particles.push_back(p * 2.0);  // velocity
    }
    for (int s = 0; s < 2; ++s) {
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(
          w.value()
              ->write(adios::local_array_var("zion", DataType::kDouble,
                                             {10, 2}),
                      as_bytes_view(std::span<const double>(particles)))
              .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
    EXPECT_EQ(w.value()->counts().plugin_pieces, 2u);
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "codstream";
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{3, 0}};
    spec.method.method = "FLEXIO";
    spec.method.timeout_ms = 20000;
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok());
    ASSERT_TRUE(r.value()
                    ->install_plugin("zion", R"(
                      void transform() {
                        int i;
                        for (i = 0; i < rows; i = i + 1) {
                          if (input[i * cols + 1] >= 10.0) keep_row(i);
                        }
                      })",
                                     /*run_at_writer=*/true)
                    .is_ok());
    int steps = 0;
    for (;;) {
      auto step = r.value()->begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) break;
      ASSERT_TRUE(step.is_ok()) << step.status().to_string();
      ASSERT_TRUE(r.value()->schedule_read_pg(0).is_ok());
      ASSERT_TRUE(r.value()->perform_reads().is_ok());
      ASSERT_EQ(r.value()->pg_blocks().size(), 1u);
      // Velocity >= 10 keeps particles 5..9.
      EXPECT_EQ(r.value()->pg_blocks()[0].meta.block.count[0], 5u);
      ASSERT_TRUE(r.value()->end_step().is_ok());
      ++steps;
    }
    EXPECT_EQ(steps, 2);
  });
  writer.join();
  reader.join();
}

TEST(PluginTest, CompilerFactoryMatchesRuntimeHook) {
  PluginCompiler compiler = make_plugin_compiler();
  auto fn = compiler("void transform() { keep_row(0); }");
  ASSERT_TRUE(fn.is_ok());
  auto out = fn.value()(particle_piece({7, 8, 9, 10}, 2));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{7, 8}));
}

}  // namespace
}  // namespace flexio::cod
