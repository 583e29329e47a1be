#include "trace.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_span{1};
std::mutex g_spans_mu;
std::vector<Span>* g_spans = new std::vector<Span>();  // Never destroyed.
thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_request = 0;

}  // namespace

int64_t NowNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void Tracer::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::SetRequest(uint64_t request) { t_request = request; }

void Tracer::Record(const char* name, uint64_t request, int64_t start_ns,
                    int64_t end_ns) {
  if (!enabled()) return;
  Span span;
  span.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span.request = request;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans->push_back(span);
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  std::vector<Span> out = std::move(*g_spans);
  g_spans->clear();
  return out;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!Tracer::enabled()) return;
  active_ = true;
  span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current_span;
  span_.request = t_request;
  span_.name = name;
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_current_span = span_.parent;
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans->push_back(span_);
}

void Recorder::Sample(const std::string& metric, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[metric].push_back(value);
}

void Recorder::Count(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void Recorder::Set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] = value;
}

void Recorder::Request(const std::string& kind, int64_t due_ns, int64_t sent_ns,
                       int64_t done_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  requests_.push_back(RequestTiming{kind, due_ns, sent_ns, done_ns});
}

void Recorder::Digest(uint64_t ordinal, uint64_t digest) {
  std::lock_guard<std::mutex> lock(mu_);
  digests_[ordinal] = digest;
}

std::map<uint64_t, uint64_t> Recorder::digests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return digests_;
}

double Recorder::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char ch : value) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Recorder::ToJson(const std::vector<Span>& spans) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"samples\": {";
  const char* sep = "";
  for (const auto& [name, values] : samples_) {
    out << sep << JsonString(name) << ": [";
    for (size_t i = 0; i < values.size(); ++i) {
      out << (i ? ", " : "") << JsonNumber(values[i]);
    }
    out << "]";
    sep = ", ";
  }
  out << "}, \"counters\": {";
  sep = "";
  for (const auto& [name, value] : counters_) {
    out << sep << JsonString(name) << ": " << JsonNumber(value);
    sep = ", ";
  }
  // Request and span times are whole nanoseconds on one process clock.
  out << "}, \"requests\": [";
  sep = "";
  for (const RequestTiming& r : requests_) {
    out << sep << "[" << JsonString(r.kind) << ", " << r.due_ns << ", "
        << r.sent_ns << ", " << r.done_ns << "]";
    sep = ", ";
  }
  out << "], \"digests\": {";
  sep = "";
  for (const auto& [ordinal, digest] : digests_) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    out << sep << "\"" << ordinal << "\": \"" << buf << "\"";
    sep = ", ";
  }
  out << "}, \"spans\": [";
  sep = "";
  for (const Span& s : spans) {
    out << sep << "[" << s.id << ", " << s.parent << ", " << s.request << ", "
        << JsonString(s.name) << ", " << s.start_ns << ", " << s.end_ns << "]";
    sep = ", ";
  }
  out << "]}";
  return out.str();
}

}  // namespace perfbench
