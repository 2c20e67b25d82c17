// Data Conditioning plug-ins: mobile codelets on the I/O path (Section II.F).
//
// Shows both execution sides with the same CoD-mini language:
//  * a writer-side plug-in (shipped as source, compiled inside the
//    producing program) that samples every 4th particle row;
//  * a reader-side plug-in that converts units on a global array after
//    receive.
#include <cstdio>
#include <thread>
#include <vector>

#include "cod/plugin.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"

using namespace flexio;

int main() {
  Runtime runtime;
  runtime.set_plugin_compiler(cod::make_plugin_compiler());
  Program sim("sim", 1);
  Program viz("viz", 1);
  xml::MethodConfig method;
  method.method = "FLEXIO";

  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "dcdemo";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method = method;
    auto w = runtime.open_writer(spec);
    FLEXIO_CHECK(w.is_ok());

    // 16 particles x 2 attrs, and a 1-D temperature field in Kelvin.
    std::vector<double> particles;
    for (int p = 0; p < 16; ++p) {
      particles.push_back(p);          // id
      particles.push_back(p * 0.5);    // velocity
    }
    std::vector<double> kelvin{273.15, 293.15, 373.15, 1273.15};
    FLEXIO_CHECK(w.value()->begin_step(0).is_ok());
    FLEXIO_CHECK(
        w.value()
            ->write(adios::local_array_var("particles",
                                           serial::DataType::kDouble, {16, 2}),
                    as_bytes_view(std::span<const double>(particles)))
            .is_ok());
    FLEXIO_CHECK(w.value()
                     ->write(adios::global_array_var(
                                 "temperature", serial::DataType::kDouble, {4},
                                 adios::Box{{0}, {4}}),
                             as_bytes_view(std::span<const double>(kelvin)))
                     .is_ok());
    FLEXIO_CHECK(w.value()->end_step().is_ok());
    FLEXIO_CHECK(w.value()->close().is_ok());
    std::printf("[writer] executed %llu plug-in pieces inside the producer\n",
                static_cast<unsigned long long>(
                    w.value()->counts().plugin_pieces));
  });

  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "dcdemo";
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{1, 0}};
    spec.method = method;
    auto r = runtime.open_reader(spec);
    FLEXIO_CHECK(r.is_ok());

    // Writer-side sampling: every 4th particle row, decided by the reader,
    // executed by the writer ("created on the reader side to customize
    // writer-side outputs on the fly").
    FLEXIO_CHECK(r.value()
                     ->install_plugin("particles", R"(
                       void transform() {
                         int row;
                         for (row = 0; row < rows; row = row + 4)
                           keep_row(row);
                       })",
                                      /*run_at_writer=*/true)
                     .is_ok());
    // Reader-side unit conversion: Kelvin -> Celsius after receive.
    FLEXIO_CHECK(r.value()
                     ->install_plugin("temperature", R"(
                       void transform() {
                         int i;
                         for (i = 0; i < n; i = i + 1)
                           emit(input[i] - 273.15);
                       })",
                                      /*run_at_writer=*/false)
                     .is_ok());

    auto step = r.value()->begin_step();
    FLEXIO_CHECK(step.is_ok());
    FLEXIO_CHECK(r.value()->schedule_read_pg(0).is_ok());
    std::vector<double> celsius(4);
    FLEXIO_CHECK(r.value()
                     ->schedule_read("temperature", adios::Box{{0}, {4}},
                                     MutableByteView(std::as_writable_bytes(
                                         std::span<double>(celsius))))
                     .is_ok());
    FLEXIO_CHECK(r.value()->perform_reads().is_ok());

    const PgBlock& block = r.value()->pg_blocks().at(0);
    const auto* rows = reinterpret_cast<const double*>(block.payload.data());
    std::printf("[reader] sampled particles (%llu of 16 rows): ids ",
                static_cast<unsigned long long>(block.meta.block.count[0]));
    for (std::uint64_t p = 0; p < block.meta.block.count[0]; ++p) {
      std::printf("%.0f ", rows[p * 2]);
    }
    std::printf("\n[reader] temperatures in Celsius: ");
    for (double t : celsius) std::printf("%.2f ", t);
    std::printf("\n");
    FLEXIO_CHECK(r.value()->end_step().is_ok());
    while (r.value()->begin_step().status().code() != ErrorCode::kEndOfStream) {
    }
  });

  writer.join();
  reader.join();
  return 0;
}
