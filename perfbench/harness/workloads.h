#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// What one benchmark invocation runs.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced mode: a short untraced pass, then the traced pass with the same
  /// seed (both seconds / 2), for the per-layer breakdown.
  bool trace = false;
  /// Temporary directory inside the checkout (journals live under it).
  std::string tmp_dir;
  /// Closed-loop client threads (at most the hardware thread count).
  size_t clients = 1;
};

/// One output check: a correctness property of the program's results.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything a run measured and verified.
struct RunReport {
  Recorder untraced;
  Recorder traced;
  std::vector<Span> spans;
  std::vector<Check> checks;
  /// VmHWM of the process when the measured pass ended, in MiB.
  double peak_rss_mb = 0.0;

  void AddCheck(std::string name, bool ok, std::string detail);
};

/// Runs `options.workload`. Returns false (with a message in `*error`) when
/// the workload could not run at all; output mismatches are checks instead.
bool RunWorkload(const RunOptions& options, RunReport* report,
                 std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
