#include "core/advisor.h"

namespace flexio {

PluginPlacementInputs inputs_from_reports(const wire::MonitorReport& writer,
                                          double var_bytes_per_step,
                                          double reduction_ratio,
                                          double plugin_seconds_per_step,
                                          double movement_bandwidth) {
  PluginPlacementInputs in;
  in.bytes_per_step = var_bytes_per_step;
  in.reduction_ratio = reduction_ratio;
  in.plugin_seconds_per_step = plugin_seconds_per_step;
  in.movement_bandwidth = movement_bandwidth;
  // Headroom estimate: the time the writer already spends on data movement
  // per step (pack + transport hand-off, measured at the exact seams) is
  // what it tolerates; a simulation whose sends are instant -- or a report
  // covering no steps -- has no slack.
  if (writer.phase_steps > 0) {
    in.writer_headroom_seconds =
        static_cast<double>(writer.pack_ns + writer.enqueue_ns) * 1e-9 /
        static_cast<double>(writer.phase_steps);
  }
  return in;
}

}  // namespace flexio
