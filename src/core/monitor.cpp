#include "core/monitor.h"

#include <fstream>

namespace flexio {

Status dump_csv(const wire::MonitorReport& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return make_error(ErrorCode::kInternal, "cannot open trace file: " + path);
  }
  out << "field,value\n";
  for (const auto& [name, field] : wire::kMonitorReportFields) {
    out << name << ',' << report.*field << '\n';
  }
  return out ? Status::ok()
             : make_error(ErrorCode::kInternal, "trace file write failed");
}

wire::MonitorReport cluster_phase_report(const evpath::ClusterSnapshot& cluster,
                                         const std::string& program) {
  wire::MonitorReport report;
  const auto hist_sum = [](const evpath::RankStats& rs, const char* name,
                           std::uint64_t* ns, std::uint64_t* count) {
    const auto it = rs.histograms.find(name);
    if (it == rs.histograms.end()) return;
    *ns += it->second.sum;
    if (count != nullptr) *count += it->second.count;
  };
  const auto counter = [](const evpath::RankStats& rs, const char* name) {
    const auto it = rs.counters.find(name);
    return it == rs.counters.end() ? std::uint64_t{0} : it->second;
  };
  for (const evpath::RankStats& rs : cluster) {
    if (!program.empty() && rs.program != program) continue;
    hist_sum(rs, "flexio.step.pack.ns", &report.pack_ns, nullptr);
    hist_sum(rs, "flexio.step.enqueue.ns", &report.enqueue_ns, nullptr);
    hist_sum(rs, "flexio.step.transfer.ns", &report.transfer_ns, nullptr);
    hist_sum(rs, "flexio.step.unpack.ns", &report.unpack_ns, nullptr);
    hist_sum(rs, "flexio.step.total.ns", &report.total_ns,
             &report.phase_steps);
    report.bytes_sent += counter(rs, "flexio.bytes.sent");
    report.handshakes_performed += counter(rs, "flexio.handshake.performed");
    report.handshakes_skipped += counter(rs, "flexio.handshake.skipped");
  }
  return report;
}

}  // namespace flexio
