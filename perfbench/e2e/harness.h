// Shared machinery of the end-to-end benchmark program: the closed-loop step
// gate, per-step timing records, the session shape every workload follows,
// and the process probes (threads, resident set, cache sizes) the report
// carries.
//
// A session is one Runtime with every writer and reader rank of a workload
// running as threads of this process. Rank 0 of the writer program runs on
// the calling thread and drives the measurement window; the other ranks get
// one thread each. The timed loop only calls FlexIO and reads the clock:
// inputs are generated before the session starts and verification runs
// after each reader step has completed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Closed-loop stop agreement between writer ranks. Each writer asks to be
/// admitted to its next step; once rank 0 asks to stop, the stop point is
/// the first step no writer has begun, so every writer runs the same steps.
class StepGate {
 public:
  static constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

  bool admit(std::int64_t step, bool stop_now) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_now && stop_ == kNever) stop_ = max_begun_ + 1;
    if (step >= stop_) return false;
    if (step > max_begun_) max_begun_ = step;
    return true;
  }

  /// Stop before any further step (a rank failed).
  void abort() {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = 0;
  }

 private:
  std::mutex mutex_;
  std::int64_t stop_ = kNever;
  std::int64_t max_begun_ = -1;
};

/// One writer rank's step on one stream.
struct WriterStep {
  int stream = 0;
  int rank = 0;
  std::int64_t step = 0;
  std::uint64_t begin_ns = 0;      // begin_step entry
  std::uint64_t write_ns = 0;      // first write entry
  std::uint64_t end_entry_ns = 0;  // end_step entry
  std::uint64_t end_ns = 0;        // end_step return
};

/// One reader rank's step on one stream.
struct ReaderStep {
  int stream = 0;
  int rank = 0;
  std::int64_t step = 0;
  std::uint64_t begin_entry_ns = 0;  // begin_step entry
  std::uint64_t begin_ns = 0;        // begin_step return
  std::uint64_t reads_entry_ns = 0;  // perform_reads entry
  std::uint64_t reads_ns = 0;        // perform_reads return
  std::uint64_t end_ns = 0;          // end_step return
  bool verified = true;              // delivered bytes equal the reference
};

/// How long a session runs and what it does at the window edges.
struct SessionPlan {
  double warmup_s = 0;  // steps run before the measurement window opens
  double window_s = 0;  // 0: set-up only (step 0, then close)
  /// Called on the driving thread at the first step boundary inside the
  /// window, with the number of steps begun before it. Returns the most
  /// steps the window may hold (traced sessions bound their span ring).
  std::function<std::int64_t(std::int64_t)> on_window_open;
  /// Called on the driving thread at the boundary that closes the window.
  std::function<void()> on_window_close;
};

/// Everything a session measured. Steps are numbered per stream; with
/// several streams (mixed_streams) one step is one round over all of them.
struct SessionResult {
  std::uint64_t start_ns = 0;  // before Runtime construction
  std::uint64_t setup_ns = 0;  // start -> step 0 delivered to every reader
  std::uint64_t window_open_ns = 0;
  std::uint64_t window_close_ns = 0;
  std::int64_t first_window_step = -1;  // first step begun inside the window
  std::int64_t end_step = 0;            // steps [0, end_step) ran
  std::vector<WriterStep> writer;
  std::vector<ReaderStep> reader;
  std::vector<std::string> errors;  // non-OK statuses, timeouts, mismatches
  bool aborted = false;             // a status error or timeout cut it short
  int max_threads = 0;              // /proc/self/task inside the window
};

/// Drives rank 0 of the writer program: window bookkeeping around the gate.
class WindowControl {
 public:
  WindowControl(const SessionPlan& plan, StepGate* gate, SessionResult* result)
      : plan_(plan), gate_(gate), result_(result) {}

  /// Called by writer rank 0 before each step after step 0.
  bool admit(std::int64_t step);

 private:
  const SessionPlan& plan_;
  StepGate* gate_;
  SessionResult* result_;
  std::uint64_t warm_end_ns_ = 0;
  std::int64_t max_steps_ = StepGate::kNever;
  bool open_ = false;
  bool closed_ = false;
};

/// Threads of this process (entries of /proc/self/task).
int count_threads();
/// Lowers the peak resident set to the current one (Linux clear_refs "5"),
/// so peak_rss_kib() then covers only what came after. False if refused.
bool reset_peak_rss();
/// Resident set now (VmRSS) and its peak (VmHWM), in KiB.
long rss_kib();
long peak_rss_kib();
/// Online CPUs.
int online_cpus();
/// Cache size in bytes of the given level for cpu0 (0 when unknown).
std::uint64_t cache_bytes(int level);

}  // namespace perfbench
