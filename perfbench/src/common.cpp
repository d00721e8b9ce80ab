#include "common.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>

#include <dirent.h>
#include <unistd.h>

namespace perfbench {

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_until_ns(std::uint64_t due_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(due_ns % 1000000000ull);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t pid_cpu_ns(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return 0;
  std::uint64_t total = 0;
  while (const dirent* entry = ::readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    const std::string path = dir + "/" + entry->d_name + "/schedstat";
    std::FILE* file = std::fopen(path.c_str(), "r");
    if (file == nullptr) continue;  // the thread exited meanwhile
    unsigned long long run_ns = 0;
    if (std::fscanf(file, "%llu", &run_ns) == 1) total += run_ns;
    std::fclose(file);
  }
  ::closedir(tasks);
  return total;
}

std::uint64_t host_steal_ns() {
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return 0;
  // cpu user nice system idle iowait irq softirq steal (clock ticks)
  unsigned long long f[8] = {};
  const int read = std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                               &f[0], &f[1], &f[2], &f[3], &f[4], &f[5],
                               &f[6], &f[7]);
  std::fclose(file);
  if (read != 8) return 0;
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return ticks > 0 ? f[7] * (1000000000ull / static_cast<unsigned long long>(ticks))
                   : 0;
}

double pid_rss_mb(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/status";
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(file);
  return kib / 1024.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(pos));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lower);
  return values[lower] + frac * (values[upper] - values[lower]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

Fingerprint fingerprint(const double* values, std::size_t count) {
  // Four lanes held as two 2 x u64 vectors: the lanes' add chains are
  // independent, so this runs at a fraction of a cycle per word on plain
  // SSE2 — the checker must stay a small share of the CPU it measures.
  using Pair = std::uint64_t __attribute__((vector_size(16)));
  Pair sum[2] = {};
  Pair weighted[2] = {};
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    for (int v = 0; v < 2; ++v) {
      Pair words;
      std::memcpy(&words, values + i + 2 * v, sizeof(words));
      sum[v] += words;
      weighted[v] += sum[v];
    }
  }
  std::uint64_t lane_sum[4] = {sum[0][0], sum[0][1], sum[1][0], sum[1][1]};
  std::uint64_t lane_weighted[4] = {weighted[0][0], weighted[0][1],
                                    weighted[1][0], weighted[1][1]};
  for (; i < count; ++i) {
    std::uint64_t word;
    std::memcpy(&word, values + i, sizeof(word));
    lane_sum[0] += word;
    lane_weighted[0] += lane_sum[0];
  }
  // Odd multipliers keep every lane's contribution invertible, so a change
  // confined to one lane always shows in the combined value.
  Fingerprint fp;
  for (int lane = 0; lane < 4; ++lane) {
    const auto odd = static_cast<std::uint64_t>(2 * lane + 1);
    fp.sum += odd * lane_sum[lane];
    fp.weighted += odd * lane_weighted[lane];
  }
  return fp;
}

void print_result_json(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
