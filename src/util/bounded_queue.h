#ifndef SMN_UTIL_BOUNDED_QUEUE_H_
#define SMN_UTIL_BOUNDED_QUEUE_H_

#include <deque>
#include <utility>

#include "util/fault_injection.h"
#include "util/mutex.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace smn {

/// Bounded blocking FIFO queue. Multiple producers, any number of consumers
/// (with exactly one consumer, queue order is execution order).
/// ReconcileService uses one as its admission bound for Submit* requests.
///
/// Backpressure and shutdown semantics:
///  - Push blocks while the queue is full; it fails (returns false) once
///    the queue is closed, including producers already blocked in Push at
///    close time — a closed queue accepts nothing, so every request either
///    reaches the consumer or is reported undeliverable to its producer.
///    TryPush (never blocks) and PushWithDeadline (blocks at most a given
///    budget) share the same refusal contract; all three report injected
///    faults at site `bounded_queue.push` as a failed push.
///  - Pop blocks while the queue is empty; after Close it keeps returning
///    the remaining items until the queue drains, then returns false. The
///    consumer therefore processes every accepted request before exiting —
///    no promise is ever dropped with its future left dangling.
///
/// Lock order: self-contained (one internal mutex, never held while calling
/// out). Safe to use under any external lock discipline as a leaf.
template <typename T>
class BoundedQueue {
 public:
  /// A queue holding at most `capacity` items (minimum 1).
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues `item`, blocking while full. Returns false (item dropped)
  /// when the queue is or becomes closed.
  bool Push(T item) SMN_EXCLUDES(mu_) {
    if (SMN_FAULT_FIRED("bounded_queue.push")) return false;
    MutexLock lock(mu_);
    while (!closed_ && items_.size() >= capacity_) {
      // CondVar::Wait releases mu_ for the blocked interval and mu_ is a
      // leaf (never held while calling out), so no cycle can form.
      not_full_.Wait(mu_);  // smn-lint: allow(blocking-in-lock)
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }

  /// Enqueues `item` only if there is room right now: never blocks. Returns
  /// false — with `item` untouched by the queue — when full or closed, the
  /// same refusal contract as Push on a closed queue. This is the admission
  /// primitive: callers that must shed load instead of waiting (the server's
  /// overload path) use TryPush and turn `false` into kUnavailable.
  bool TryPush(T item) SMN_EXCLUDES(mu_) {
    if (SMN_FAULT_FIRED("bounded_queue.push")) return false;
    MutexLock lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }

  /// Enqueues `item`, blocking at most `timeout_ms`. Returns false when the
  /// queue stays full past the deadline or is/becomes closed — close
  /// semantics are identical to Push: a producer blocked here at Close time
  /// wakes immediately and fails, it never enqueues onto a closed queue.
  bool PushWithDeadline(T item, double timeout_ms) SMN_EXCLUDES(mu_) {
    if (SMN_FAULT_FIRED("bounded_queue.push")) return false;
    const Stopwatch waited;
    MutexLock lock(mu_);
    while (!closed_ && items_.size() >= capacity_) {
      const double remaining_ms = timeout_ms - waited.ElapsedMillis();
      if (remaining_ms <= 0.0) return false;
      // Releases mu_ while blocked; leaf lock — same argument as Push.
      not_full_.WaitFor(mu_, remaining_ms);  // smn-lint: allow(blocking-in-lock)
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }

  /// Dequeues into `*out`, blocking while empty. Returns false only when
  /// the queue is closed AND drained.
  bool Pop(T* out) SMN_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (items_.empty() && !closed_) {
      // Releases mu_ while blocked; leaf lock — same argument as Push.
      not_empty_.Wait(mu_);  // smn-lint: allow(blocking-in-lock)
    }
    if (items_.empty()) return false;  // Closed and drained.
    *out = std::move(items_.front());
    items_.pop_front();
    not_full_.NotifyOne();
    return true;
  }

  /// Closes the queue: wakes every blocked producer (their Push fails) and
  /// lets consumers drain the remaining items. Idempotent.
  void Close() SMN_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    closed_ = true;
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  /// Current item count (racy the instant it returns; for tests/metrics).
  size_t size() const SMN_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

  /// True once Close has run.
  bool closed() const SMN_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable Mutex mu_{"queue.state", LockRank::kBoundedQueue};
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ SMN_GUARDED_BY(mu_);
  bool closed_ SMN_GUARDED_BY(mu_) = false;
};

}  // namespace smn

#endif  // SMN_UTIL_BOUNDED_QUEUE_H_
