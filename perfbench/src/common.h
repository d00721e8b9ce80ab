// Shared helpers of the serving benchmark: clocks, CPU accounting, exact
// quantiles, map fingerprints and the metric list printed as JSON.
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace eigenmaps::core {}
namespace eigenmaps::dist {}
namespace eigenmaps::numerics {}
namespace eigenmaps::obs {}
namespace eigenmaps::runtime {}

namespace perfbench {

namespace core = eigenmaps::core;
namespace dist = eigenmaps::dist;
namespace numerics = eigenmaps::numerics;
namespace obs = eigenmaps::obs;
namespace runtime = eigenmaps::runtime;

/// CLOCK_MONOTONIC in ns — the clock obs spans and steady_clock use, so
/// due times, callback stamps and traced spans are directly comparable.
std::uint64_t now_ns();

/// Sleeps until the absolute CLOCK_MONOTONIC time `due_ns` (never spins).
void sleep_until_ns(std::uint64_t due_ns);

/// CPU time of this process, all threads (live and exited), in ns.
std::uint64_t process_cpu_ns();

/// CPU time of another process: the sum of its threads' run times from
/// /proc/<pid>/task/*/schedstat (ns resolution). 0 when it cannot be read.
std::uint64_t pid_cpu_ns(pid_t pid);

/// Machine-wide steal time so far (the hypervisor running someone else on
/// this guest's CPUs), from /proc/stat, in ns; 0 when unreadable.
std::uint64_t host_steal_ns();

/// VmRSS of a process in MiB (0 when unreadable).
double pid_rss_mb(pid_t pid);

/// q-quantile (q in [0, 1]) of `values` with linear interpolation between
/// order statistics; 0 for an empty sample. Sorts a copy.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// A 128-bit, position-sensitive checksum of a map's IEEE-754 bit
/// patterns (four interleaved Fletcher-64 lanes). Any single changed bit
/// changes it, and the position weighting catches values moved to other
/// cells, so equal fingerprints stand in for a bitwise comparison against
/// the reference.
struct Fingerprint {
  std::uint64_t sum = 0;
  std::uint64_t weighted = 0;
  bool operator==(const Fingerprint& other) const {
    return sum == other.sum && weighted == other.weighted;
  }
  bool operator!=(const Fingerprint& other) const { return !(*this == other); }
};
Fingerprint fingerprint(const double* values, std::size_t count);

/// One printed metric. The last stdout line is a JSON object over these.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
void print_result_json(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
