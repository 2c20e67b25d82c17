// Runtime management: monitoring-driven placement of DC plug-ins.
//
// Section II.G: "monitoring data captured from the simulation side can be
// gathered online and transferred to the analytics side. The analytics
// process(es) can then use it to dynamically schedule data movement and
// decide the placement of DC Plug-ins." This advisor is that decision:
// given what monitoring observed about a plug-in (its execution cost and
// how much it shrinks the data) and about the pipeline (movement bandwidth,
// simulation slack), pick the side that minimizes simulation-visible cost.
// Pair it with StreamReader::migrate_plugin to act on the decision.
#pragma once

#include "core/wire.h"

namespace flexio {

struct PluginPlacementInputs {
  /// Volume of the conditioned variable per step, before the plug-in.
  double bytes_per_step = 0;
  /// Plug-in output/input size ratio (selection/sampling < 1, markup ~ 1).
  double reduction_ratio = 1.0;
  /// Measured plug-in execution time per step: the flexio.plugin.exec.ns
  /// histogram's sum on whichever side currently runs the plug-in, divided
  /// by the steps it covers.
  double plugin_seconds_per_step = 0;
  /// Transport bandwidth between the programs (bytes/s).
  double movement_bandwidth = 1e9;
  /// Simulation slack per step: time the writer can absorb without
  /// stretching the pipeline (0 = the simulation is the critical path).
  double writer_headroom_seconds = 0;
};

struct PluginPlacementAdvice {
  bool run_at_writer = false;
  double movement_seconds_saved = 0;  // by conditioning before the move
  double writer_seconds_cost = 0;     // simulation time the plug-in charges
};

/// Writer-side execution saves (1 - reduction) x bytes / bandwidth of
/// movement but charges the simulation whatever plug-in time its headroom
/// cannot absorb; run at the writer iff the saving wins.
inline PluginPlacementAdvice advise_plugin_placement(
    const PluginPlacementInputs& in) {
  PluginPlacementAdvice advice;
  advice.movement_seconds_saved =
      (1.0 - in.reduction_ratio) * in.bytes_per_step / in.movement_bandwidth;
  advice.writer_seconds_cost =
      std::max(0.0, in.plugin_seconds_per_step - in.writer_headroom_seconds);
  advice.run_at_writer =
      advice.movement_seconds_saved > advice.writer_seconds_cost;
  return advice;
}

/// Convenience: derive the inputs from a shipped writer-side monitoring
/// report plus reader-side observations of one variable.
PluginPlacementInputs inputs_from_reports(const wire::MonitorReport& writer,
                                          double var_bytes_per_step,
                                          double reduction_ratio,
                                          double plugin_seconds_per_step,
                                          double movement_bandwidth);

}  // namespace flexio
