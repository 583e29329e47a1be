// BoundedQueue: pins the backpressure and shutdown contract — FIFO order,
// Push blocking on a full queue until a Pop frees a slot, Close failing
// blocked and future producers while consumers drain every accepted item.

#include "util/bounded_queue.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace smn {
namespace {

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> queue(/*capacity=*/4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    int out = -1;
    ASSERT_TRUE(queue.Pop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, ZeroCapacityClampsToOne) {
  BoundedQueue<int> queue(/*capacity=*/0);
  EXPECT_TRUE(queue.Push(7));
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 7);
}

TEST(BoundedQueueTest, PopBlocksUntilPush) {
  BoundedQueue<int> queue(/*capacity=*/2);
  int received = -1;
  std::thread consumer([&] {
    int out = -1;
    if (queue.Pop(&out)) received = out;
  });
  // The consumer blocks in Pop until this arrives; thread join proves the
  // wakeup happened.
  ASSERT_TRUE(queue.Push(42));
  consumer.join();
  EXPECT_EQ(received, 42);
}

TEST(BoundedQueueTest, PushBlocksOnFullUntilPopFreesASlot) {
  BoundedQueue<int> queue(/*capacity=*/1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    const bool pushed = queue.Push(2);  // Blocks: the queue is full.
    second_pushed.store(pushed);
  });
  // Popping the first item unblocks the producer; both items then arrive in
  // order.
  int out = -1;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
}

TEST(BoundedQueueTest, CloseFailsBlockedProducerAndDrainsConsumer) {
  BoundedQueue<int> queue(/*capacity=*/1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> blocked_push_result{true};
  std::thread producer([&] {
    // Blocks on the full queue, then fails when Close arrives: a closed
    // queue accepts nothing, so the producer learns its item was dropped.
    blocked_push_result.store(queue.Push(2));
  });
  queue.Close();
  producer.join();
  EXPECT_FALSE(blocked_push_result.load());
  EXPECT_TRUE(queue.closed());

  // The accepted item is still delivered (drain), then Pop reports closed.
  int out = -1;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(BoundedQueueTest, PushAfterCloseFailsAndPopAfterDrainReturnsFalse) {
  BoundedQueue<int> queue(/*capacity=*/4);
  queue.Close();
  EXPECT_FALSE(queue.Push(1));
  int out = -1;
  EXPECT_FALSE(queue.Pop(&out));
  queue.Close();  // Idempotent.
  EXPECT_TRUE(queue.closed());
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(/*capacity=*/2);
  std::atomic<bool> pop_result{true};
  std::thread consumer([&] {
    int out = -1;
    pop_result.store(queue.Pop(&out));  // Blocks: the queue is empty.
  });
  queue.Close();
  consumer.join();
  EXPECT_FALSE(pop_result.load());
}

TEST(BoundedQueueTest, ManyProducersOneConsumerDeliversEverything) {
  // Multiple producer threads, one consumer draining in queue order. Every
  // accepted item must arrive exactly once even with constant backpressure
  // (capacity 2).
  BoundedQueue<int> queue(/*capacity=*/2);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Non-fatal: a producer that returned early would leave its share
      // undelivered and the test reporting only the symptom.
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> seen(kProducers * kPerProducer, 0);
  std::thread consumer([&] {
    int out = -1;
    while (queue.Pop(&out)) ++seen[out];
  });
  for (std::thread& producer : producers) producer.join();
  queue.Close();
  consumer.join();
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    EXPECT_EQ(seen[i], 1) << "item " << i;
  }
}

TEST(BoundedQueueTest, TryPushNeverBlocks) {
  BoundedQueue<int> queue(/*capacity=*/2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // Full: immediate refusal, no wait.
  int out = -1;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.TryPush(3));  // Room again.
}

TEST(BoundedQueueTest, TryPushFailsOnClosedQueue) {
  BoundedQueue<int> queue(/*capacity=*/4);
  queue.Close();
  EXPECT_FALSE(queue.TryPush(1));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, PushWithDeadlineSucceedsImmediatelyWhenRoomExists) {
  BoundedQueue<int> queue(/*capacity=*/1);
  EXPECT_TRUE(queue.PushWithDeadline(7, /*timeout_ms=*/0.0));
  int out = -1;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 7);
}

TEST(BoundedQueueTest, PushWithDeadlineTimesOutOnFullQueue) {
  BoundedQueue<int> queue(/*capacity=*/1);
  ASSERT_TRUE(queue.Push(1));
  EXPECT_FALSE(queue.PushWithDeadline(2, /*timeout_ms=*/5.0));
  EXPECT_EQ(queue.size(), 1u);  // The timed-out item was not enqueued.
}

TEST(BoundedQueueTest, PushWithDeadlineSucceedsWhenConsumerDrains) {
  BoundedQueue<int> queue(/*capacity=*/1);
  ASSERT_TRUE(queue.Push(1));
  std::thread consumer([&] {
    int out = -1;
    EXPECT_TRUE(queue.Pop(&out));
  });
  // A generous deadline: succeeds as soon as the consumer makes room. The
  // consumer may pop before or after this blocks; both orders must succeed.
  EXPECT_TRUE(queue.PushWithDeadline(2, /*timeout_ms=*/60000.0));
  consumer.join();
  EXPECT_EQ(queue.size(), 1u);
}

TEST(BoundedQueueTest, PushWithDeadlineFailsOnClosedQueue) {
  BoundedQueue<int> queue(/*capacity=*/4);
  queue.Close();
  EXPECT_FALSE(queue.PushWithDeadline(1, /*timeout_ms=*/60000.0));
}

TEST(BoundedQueueTest, TimedPushRacingCloseFailsPromptlyNotAtDeadline) {
  // Regression: a producer blocked in PushWithDeadline when Close lands
  // must wake and fail immediately — same contract as Push — not sit out
  // its full deadline (and never enqueue onto the closed queue).
  BoundedQueue<int> queue(/*capacity=*/1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<int> result{-1};
  std::thread producer([&] {
    // Deadline far beyond the test timeout: only Close can end this early.
    result.store(queue.PushWithDeadline(2, /*timeout_ms=*/600000.0) ? 1 : 0);
  });
  // Close while the producer is (or is about to be) blocked; either
  // interleaving must end in a prompt failed push.
  queue.Close();
  producer.join();
  EXPECT_EQ(result.load(), 0);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(BoundedQueueTest, ManyTimedProducersRacingCloseNeverEnqueue) {
  BoundedQueue<int> queue(/*capacity=*/1);
  ASSERT_TRUE(queue.Push(0));
  constexpr int kProducers = 8;
  std::atomic<int> failed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      if (!queue.PushWithDeadline(p + 1, /*timeout_ms=*/600000.0)) {
        failed.fetch_add(1);
      }
    });
  }
  queue.Close();
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(failed.load(), kProducers);
  EXPECT_EQ(queue.size(), 1u);  // Only the pre-close item.
}

}  // namespace
}  // namespace smn
