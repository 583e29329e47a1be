// The benchmark harness: runs one workload for one seed and writes the raw
// measurements (latency samples, counters, open-loop request timings, spans
// and output checks) as JSON. perfbench/run.py builds and runs it and turns
// the raw file into the reported metrics.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --tmp <dir> --out <file>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/// Closed-loop clients: the hardware threads, at most four, so one host
/// size's figures stay comparable across hosts with more cores.
constexpr size_t kMaxClients = 4;

/// Keeps every hardware thread busy with an idle-priority (SCHED_IDLE)
/// spinner while the workload runs. SCHED_IDLE threads run only when no
/// other thread wants the CPU, so they take no time from the program; what
/// they remove is the hypervisor's wake-up of an idle virtual CPU, which
/// otherwise lands in the latency of whichever request wakes it (on a shared
/// 4-vCPU host it moved an open-loop p90 between 0.7 and 6 ms from run to
/// run). A spinner that cannot lower its priority exits at once.
class IdleSpinners {
 public:
  explicit IdleSpinners(unsigned count) {
    for (unsigned i = 0; i < count; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;
        }
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

int Usage(const char* message) {
  std::cerr << "perfbench_harness: " << message << "\n"
            << "usage: perfbench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --tmp <dir> --out <file>\n";
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string out_path;
  uint64_t seconds = 0;
  uint64_t trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &options.seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &seconds) || seconds == 0) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (!ParseUint(value, &trace) || trace > 1) return Usage("bad --trace");
    } else if (flag == "--tmp") {
      options.tmp_dir = value;
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty() || seconds == 0 || out_path.empty() ||
      options.tmp_dir.empty()) {
    return Usage("missing a required flag");
  }
#ifndef NDEBUG
  std::cerr << "perfbench_harness: refusing to measure a build with assertions "
               "enabled (NDEBUG unset)\n";
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench_harness: refusing to measure a non-Release build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  options.clients = std::min<size_t>(kMaxClients, hardware);

  perfbench::RunReport report;
  std::string error;
  bool ran = false;
  {
    IdleSpinners spinners(hardware);
    ran = perfbench::RunWorkload(options, &report, &error);
  }
  if (!ran) {
    std::cerr << "perfbench_harness: " << error << "\n";
    return 1;
  }

  std::ofstream out(out_path);
  out << "{\"workload\": " << perfbench::JsonString(options.workload)
      << ", \"seed\": " << options.seed << ", \"seconds\": " << seconds
      << ", \"trace\": " << trace
      << ", \"build_type\": " << perfbench::JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"hardware_threads\": " << hardware
      << ", \"clients\": " << options.clients
      << ", \"peak_rss_mb\": " << perfbench::JsonNumber(report.peak_rss_mb)
      << ", \"checks\": [";
  const char* sep = "";
  for (const perfbench::Check& check : report.checks) {
    out << sep << "{\"name\": " << perfbench::JsonString(check.name)
        << ", \"ok\": " << (check.ok ? "true" : "false")
        << ", \"detail\": " << perfbench::JsonString(check.detail) << "}";
    sep = ", ";
  }
  out << "], \"untraced\": " << report.untraced.ToJson({});
  if (options.trace) {
    out << ", \"traced\": " << report.traced.ToJson(report.spans);
  }
  out << "}\n";
  out.close();
  if (!out) {
    std::cerr << "perfbench_harness: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}
