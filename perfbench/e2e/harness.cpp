#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

namespace perfbench {

bool WindowControl::admit(std::int64_t step) {
  const std::uint64_t now = now_ns();
  if (warm_end_ns_ == 0) {
    warm_end_ns_ = now + static_cast<std::uint64_t>(plan_.warmup_s * 1e9);
  }
  bool stop = plan_.window_s <= 0;
  if (!stop && !open_ && now >= warm_end_ns_) {
    open_ = true;
    result_->window_open_ns = now;
    result_->first_window_step = step;
    result_->max_threads = std::max(result_->max_threads, count_threads());
    if (plan_.on_window_open) max_steps_ = plan_.on_window_open(step);
  }
  if (open_ && !closed_ &&
      (now - result_->window_open_ns >=
           static_cast<std::uint64_t>(plan_.window_s * 1e9) ||
       step - result_->first_window_step >= max_steps_)) {
    closed_ = true;
    result_->window_close_ns = now;
    result_->max_threads = std::max(result_->max_threads, count_threads());
    if (plan_.on_window_close) plan_.on_window_close();
    stop = true;
  }
  return gate_->admit(step, stop);
}

int count_threads() {
  int n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

namespace {

/// A "<field>:   <n> kB" line of /proc/self/status, or -1.
long status_kib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stol(line.substr(field.size() + 1));
    }
  }
  return -1;
}

}  // namespace

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5" << std::flush;
  return static_cast<bool>(out);
}

long rss_kib() { return status_kib("VmRSS"); }

long peak_rss_kib() { return status_kib("VmHWM"); }

int online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::uint64_t cache_bytes(int level) {
  const std::filesystem::path base = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator(base, ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    int lvl = 0;
    std::string type, size;
    std::ifstream(it->path() / "level") >> lvl;
    std::ifstream(it->path() / "type") >> type;
    std::ifstream(it->path() / "size") >> size;
    if (lvl != level || type == "Instruction" || size.empty()) continue;
    std::uint64_t bytes = std::stoull(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    return bytes;
  }
  return 0;
}

}  // namespace perfbench
