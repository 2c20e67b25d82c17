// The benchmark's workloads: one per FlexIO placement (README.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Payload bytes one step moves from all writers, averaged over the
  /// generated input steps.
  virtual std::uint64_t step_bytes() const = 0;

  /// Per stream: true when it counts as a small ("mouse") stream. Workloads
  /// with a single stream mark it small, so mouse latency equals step latency.
  virtual std::vector<bool> small_streams() const = 0;

  /// One Runtime lifetime: open, step 0, the plan's window, close. Every
  /// delivered step is verified against the seed's reference; mismatches are
  /// flagged on the ReaderStep and counted as errors.
  virtual SessionResult run(const SessionPlan& plan) = 0;
};

/// nullptr for an unknown name. Inputs and references are generated here,
/// before any session runs.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
