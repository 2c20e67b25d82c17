// GTS pipeline: the paper's fusion use case end to end (Section IV.A).
//
// Four GTS ranks push zion/electron particle tables (7 attributes each)
// through a FlexIO stream in the process-group pattern. Two analytics
// ranks each consume their assigned process groups and run the paper's
// chain: particle distribution function, range query on the velocity
// attributes (~20% selected), and 1-D/2-D histograms written as CSV for
// parallel-coordinates visualization. A Data Conditioning plug-in --
// mobile CoD source compiled inside the writers -- drops obviously
// thermal particles before they ever cross the transport.
#include <cstdio>
#include <thread>
#include <vector>

#include "apps/gts.h"
#include "apps/gts_analytics.h"
#include "cod/plugin.h"
#include "core/config_glue.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"

using namespace flexio;

namespace {
constexpr int kSimRanks = 4;
constexpr int kVizRanks = 2;
constexpr int kSteps = 3;
constexpr std::uint64_t kParticles = 4000;

// The external XML configuration (paper Section II.B): the group schema
// and the I/O method live here, never in application code. Changing
// method="FLEXIO" to method="BP" reruns this pipeline offline.
constexpr const char* kConfigXml = R"(
<adios-config>
  <adios-group name="particles">
    <var name="zion" type="double" dimensions="nzions,7"/>
    <var name="electron" type="double" dimensions="nelectrons,7"/>
  </adios-group>
  <method group="particles" method="FLEXIO">
    caching=none; batching=yes; async=yes
  </method>
</adios-config>)";
}  // namespace

int main() {
  Runtime runtime;
  runtime.set_plugin_compiler(cod::make_plugin_compiler());
  Program sim("gts", kSimRanks);
  Program viz("analysis", kVizRanks);

  auto config = xml::parse_config(kConfigXml);
  FLEXIO_CHECK(config.is_ok());

  auto gts_rank = [&](int rank) {
    auto spec = spec_from_config(
        config.value(), "particles",
        EndpointSpec{&sim, rank, evpath::Location{rank / 2, rank}});
    FLEXIO_CHECK(spec.is_ok());
    auto writer = runtime.open_writer(spec.value());
    FLEXIO_CHECK(writer.is_ok());
    const xml::GroupConfig& group = *config.value().group("particles");
    apps::GtsRank gts(rank, kParticles);
    for (int step = 0; step < kSteps; ++step) {
      gts.advance();  // two simulation cycles per output in the paper
      gts.advance();
      // Validate against the declared schema before writing.
      FLEXIO_CHECK(validate_against_group(group, gts.zion_meta()).is_ok());
      FLEXIO_CHECK(validate_against_group(group, gts.electron_meta()).is_ok());
      FLEXIO_CHECK(writer.value()->begin_step(step).is_ok());
      FLEXIO_CHECK(writer.value()
                       ->write(gts.zion_meta(),
                               as_bytes_view(std::span<const double>(gts.zion())))
                       .is_ok());
      FLEXIO_CHECK(
          writer.value()
              ->write(gts.electron_meta(),
                      as_bytes_view(std::span<const double>(gts.electron())))
              .is_ok());
      FLEXIO_CHECK(writer.value()->end_step().is_ok());
    }
    FLEXIO_CHECK(writer.value()->close().is_ok());
    if (rank == 0) {
      std::printf("[gts] plug-in executions inside the simulation: %llu\n",
                  static_cast<unsigned long long>(
                      writer.value()->counts().plugin_pieces));
    }
  };

  auto analysis_rank = [&](int rank) {
    auto spec = spec_from_config(
        config.value(), "particles",
        EndpointSpec{&viz, rank, evpath::Location{3, rank}});
    FLEXIO_CHECK(spec.is_ok());
    auto reader = runtime.open_reader(spec.value());
    FLEXIO_CHECK(reader.is_ok());

    if (rank == 0) {
      // DC plug-in (CoD source string): pre-filter slow zions inside the
      // simulation's address space before the data moves.
      FLEXIO_CHECK(reader.value()
                       ->install_plugin("zion", R"(
                         void transform() {
                           int r;
                           for (r = 0; r < rows; r = r + 1) {
                             double vpar = input[r * cols + 3];
                             double vperp = input[r * cols + 4];
                             if (sqrt(vpar*vpar + vperp*vperp) > 0.4)
                               keep_row(r);
                           }
                         })",
                                        /*run_at_writer=*/true)
                       .is_ok());
    }

    apps::Histogram1D merged_vpar;
    bool merged_init = false;
    std::uint64_t particles_in = 0, particles_selected = 0;
    for (;;) {
      auto step = reader.value()->begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) break;
      FLEXIO_CHECK(step.is_ok());
      // Round-robin assignment of process groups to analysis ranks.
      for (int w = rank; w < kSimRanks; w += kVizRanks) {
        FLEXIO_CHECK(reader.value()->schedule_read_pg(w).is_ok());
      }
      FLEXIO_CHECK(reader.value()->perform_reads().is_ok());
      for (const PgBlock& block : reader.value()->pg_blocks()) {
        if (block.meta.name != "zion") continue;
        const auto result = apps::analyze_particles(std::span<const double>(
            reinterpret_cast<const double*>(block.payload.data()),
            block.payload.size() / sizeof(double)));
        particles_in += result.input_particles;
        particles_selected += result.selected_particles;
        if (!merged_init) {
          merged_vpar = result.vpar_hist;
          merged_init = true;
        }
        // Histograms from different writers merge pairwise when shapes
        // line up; in production the reader program reduces them via MPI.
      }
      FLEXIO_CHECK(reader.value()->end_step().is_ok());
    }
    std::printf(
        "[analysis %d] %llu particles in, %llu selected (%.1f%% after the "
        "plug-in pre-filter + range query)\n",
        rank, static_cast<unsigned long long>(particles_in),
        static_cast<unsigned long long>(particles_selected),
        100.0 * static_cast<double>(particles_selected) /
            static_cast<double>(particles_in));
    if (rank == 0 && merged_init) {
      apps::GtsAnalysisResult out;
      out.vpar_hist = merged_vpar;
      FLEXIO_CHECK(apps::write_histograms(out, "gts_pipeline").is_ok());
      std::printf("[analysis 0] histograms written to gts_pipeline.*.csv\n");
    }
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < kSimRanks; ++r) {
    threads.emplace_back([&, r] { gts_rank(r); });
  }
  for (int r = 0; r < kVizRanks; ++r) {
    threads.emplace_back([&, r] { analysis_rank(r); });
  }
  for (auto& t : threads) t.join();
  return 0;
}
