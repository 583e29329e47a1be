#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();

/// Milliseconds between two NowNs() readings.
inline double Ms(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// One recorded span: a timed call across a layer boundary.
struct Span {
  uint64_t id = 0;
  /// The span open on the same thread when this one started (0 = root).
  uint64_t parent = 0;
  /// The request (session-scoped operation) the span belongs to.
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Process-wide span recorder. Spans are kept in memory and taken out once,
/// when the traced pass ends. Disabled (the default), a ScopedSpan costs one
/// relaxed atomic load and records nothing.
class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool enabled();
  /// Tags every span the calling thread opens from now on.
  static void SetRequest(uint64_t request);
  /// Records a root span whose start and end were observed on different
  /// threads (a queued request: submitted by one, completed on another).
  static void Record(const char* name, uint64_t request, int64_t start_ns,
                     int64_t end_ns);
  /// Moves the recorded spans out (in completion order).
  static std::vector<Span> Take();
};

/// RAII span around one call. Nests through a thread-local parent pointer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// The raw measurements of one pass: latency samples, scalar values, event
/// counters, open-loop request timings and per-session result digests.
/// Thread-safe; serialized to JSON for the runner, which computes the
/// reported statistics.
class Recorder {
 public:
  /// Appends one sample of `metric` (a latency in ms, or a ratio).
  void Sample(const std::string& metric, double value);
  /// Adds `delta` to counter `name`.
  void Count(const std::string& name, double delta = 1.0);
  /// Sets counter `name` to `value`.
  void Set(const std::string& name, double value);
  /// One open-loop request: when it was due, when it was handed to the
  /// service, when its result was observed (ns), and its kind.
  void Request(const std::string& kind, int64_t due_ns, int64_t sent_ns,
               int64_t done_ns);
  /// Records the result digest of the session with script ordinal
  /// `ordinal`.
  void Digest(uint64_t ordinal, uint64_t digest);
  std::map<uint64_t, uint64_t> digests() const;
  double counter(const std::string& name) const;

  /// JSON object; `spans` are appended when non-empty.
  std::string ToJson(const std::vector<Span>& spans) const;

 private:
  struct RequestTiming {
    std::string kind;
    int64_t due_ns;
    int64_t sent_ns;
    int64_t done_ns;
  };
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counters_;
  std::vector<RequestTiming> requests_;
  std::map<uint64_t, uint64_t> digests_;
};

/// Formats a double with all its digits (round-trip precision).
std::string JsonNumber(double value);
/// Quotes and escapes a string for JSON.
std::string JsonString(const std::string& value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
