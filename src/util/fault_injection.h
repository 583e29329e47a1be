#ifndef SMN_UTIL_FAULT_INJECTION_H_
#define SMN_UTIL_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace smn {

/// Deterministic fault-injection framework: named sites threaded through
/// journal I/O, the bounded queues, and the thread pool,
/// firing on a *schedule* — the Nth arrival at a site, a range of arrivals,
/// or a seeded coin — so chaos tests can reproduce a failure bit-for-bit
/// from its plan string and seed.
///
/// Compile gating. Production builds pay nothing: the SMN_FAULT_* call-site
/// macros below compile to constants unless the library is configured with
/// -DSMN_FAULT_INJECTION=ON (which defines SMN_FAULT_INJECTION_ENABLED).
/// The FaultInjection class itself is always compiled so its plan parsing
/// and scheduling logic stay under test in every build; only the *sites*
/// vanish.
///
/// Runtime gating. Even in an injection build nothing fires until a plan is
/// active — either programmatically (FaultInjection::Configure, what the
/// chaos tests use) or from the environment at first use: set
/// SMN_FAULT_INJECTION=ON plus SMN_FAULT_PLAN (and optionally
/// SMN_FAULT_SEED for probabilistic rules).
///
/// Plan grammar (comma-separated rules):
///   site@N       fire exactly on the Nth arrival at `site` (1-based)
///   site@N+      fire on the Nth and every later arrival
///   site@N*M     fire on arrivals N .. N+M-1
///   site%P       fire each arrival independently with probability P,
///                drawn from the plan's seeded Rng stream
///
/// Site inventory (kept in sync with ARCHITECTURE.md "Durability &
/// recovery"):
///   record.append          journal record append fails before any byte
///   record.append.partial  journal append writes a torn prefix, then fails
///   record.sync            fsync of the journal fd fails
///   bounded_queue.push     Push/TryPush/PushWithDeadline fails as if closed
///   thread_pool.worker     pool worker dies before its next task; queued
///                          tasks survive and Shutdown() drains them inline
class FaultInjection {
 public:
  /// Installs `plan` (see grammar above), replacing any active plan and
  /// resetting all arrival counters. `seed` feeds the `%P` rules' Rng.
  /// Fails with InvalidArgument on a malformed plan, leaving no plan active.
  static Status Configure(const std::string& plan, uint64_t seed = 0);

  /// Clears the active plan and every counter. Chaos tests pair each
  /// Configure with a Reset (see ScopedFaultPlan).
  static void Reset();

  /// True when a plan is active (configured or picked up from the
  /// environment). Cheap enough for call sites, but the SMN_FAULT_* macros
  /// are the sanctioned entry points.
  static bool Active();

  /// Records one arrival at `site` and returns true when the plan says this
  /// arrival fails. Always false without an active plan.
  static bool Fired(const char* site);

  /// Fired() wrapped as the repository's Status idiom:
  /// Internal("injected fault at <site> (arrival N)") when firing.
  static Status Check(const char* site);

  /// Partial-write helper for the journal codec: records an arrival at
  /// `site` and returns how many of `size` bytes the caller should write
  /// before failing — `size` (no fault) or size/2 (torn record).
  static size_t PartialBytes(const char* site, size_t size);

  /// Arrivals recorded at `site` since the last Configure/Reset (test
  /// introspection).
  static uint64_t Arrivals(const std::string& site);

  /// Faults fired at `site` since the last Configure/Reset.
  static uint64_t FiredCount(const std::string& site);
};

/// RAII plan scope for tests: Configure on entry, Reset on exit.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const std::string& plan, uint64_t seed = 0) {
    status_ = FaultInjection::Configure(plan, seed);
  }
  ~ScopedFaultPlan() { FaultInjection::Reset(); }

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  /// OK unless the plan string failed to parse.
  const Status& status() const { return status_; }

 private:
  Status status_;
};

}  // namespace smn

/// Call-site macros: the only way production code reaches FaultInjection.
/// Without SMN_FAULT_INJECTION_ENABLED they fold to constants, so the sites
/// cost nothing and cannot perturb the determinism contract.
#if defined(SMN_FAULT_INJECTION_ENABLED)
#define SMN_FAULT_FIRED(site) (::smn::FaultInjection::Fired(site))
#define SMN_FAULT_CHECK(site) (::smn::FaultInjection::Check(site))
#define SMN_FAULT_PARTIAL(site, size) \
  (::smn::FaultInjection::PartialBytes(site, size))
#else
#define SMN_FAULT_FIRED(site) (false)
#define SMN_FAULT_CHECK(site) (::smn::Status::OK())
#define SMN_FAULT_PARTIAL(site, size) (size)
#endif

#endif  // SMN_UTIL_FAULT_INJECTION_H_
