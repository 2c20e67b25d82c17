// Runtime performance monitoring (paper Section II.G).
//
// Measurement points at every level of the FlexIO stack feed the metrics
// registry (util/metrics.h): data-movement timings, handshake costs,
// transferred volumes, DC plug-in execution time, and buffer-pool memory
// usage. The paper uses the data two ways, both reproduced: dumped to trace
// files for offline tuning (dump_csv) and shipped to the analytics side at
// runtime (the stream writer's close-time wire::MonitorReport, built from
// counts it keeps whether or not the registry is enabled).
#pragma once

#include <string>

#include "core/wire.h"
#include "evpath/directory.h"
#include "util/status.h"

namespace flexio {

/// Write every field of `report` to `path` as CSV: a `field,value` header,
/// then one row per field in wire order (timings in ns).
Status dump_csv(const wire::MonitorReport& report, const std::string& path);

/// Fold the directory's aggregated cluster view into one wire::MonitorReport
/// covering every rank of `program` (all programs when empty): per-phase
/// flexio.step.* histogram sums land in the phase_ns fields, and the
/// handshake / bytes counters in their scalar slots. This is the advisor's
/// cross-rank context -- a writer-side close report describes one rank,
/// while this report describes the whole deployment as seen through the
/// heartbeat-piggyback aggregation path.
wire::MonitorReport cluster_phase_report(const evpath::ClusterSnapshot& cluster,
                                         const std::string& program = "");

}  // namespace flexio
