// Unit tests for fg::Buffer, fg::BufferQueue, and fg::SpscChannel — the
// data plane of the pipeline framework.
#include "core/buffer.hpp"
#include "core/channel.hpp"
#include "core/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

namespace fg {
namespace {

TEST(Buffer, CapacityAndSize) {
  Buffer b(128, 3, false);
  EXPECT_EQ(b.capacity(), 128u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.pipeline(), 3u);
  b.set_size(64);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_EQ(b.contents().size(), 64u);
  EXPECT_EQ(b.data().size(), 128u);
}

TEST(Buffer, SizeBeyondCapacityThrows) {
  Buffer b(16, 0, false);
  EXPECT_THROW(b.set_size(17), std::length_error);
}

TEST(Buffer, AuxAbsentThrows) {
  Buffer b(16, 0, false);
  EXPECT_FALSE(b.has_aux());
  EXPECT_THROW(b.aux(), std::logic_error);
  EXPECT_THROW(b.swap_aux(), std::logic_error);
}

TEST(Buffer, AuxSwapExchangesContents) {
  Buffer b(8, 0, true);
  EXPECT_TRUE(b.has_aux());
  b.data()[0] = std::byte{1};
  b.aux()[0] = std::byte{2};
  b.swap_aux();
  EXPECT_EQ(b.data()[0], std::byte{2});
  EXPECT_EQ(b.aux()[0], std::byte{1});
}

TEST(Buffer, TypedViews) {
  Buffer b(64, 0, false);
  b.set_size(24);
  auto u64s = b.as<std::uint64_t>();
  EXPECT_EQ(u64s.size(), 3u);
  u64s[0] = 42;
  EXPECT_EQ(b.as<std::uint64_t>()[0], 42u);
  EXPECT_EQ(b.capacity_as<std::uint64_t>().size(), 8u);
}

TEST(Buffer, TagRoundTrip) {
  Buffer b(16, 0, false);
  b.set_tag(0xdeadbeef);
  EXPECT_EQ(b.tag(), 0xdeadbeefu);
}

TEST(Token, Factories) {
  Buffer b(16, 7, false);
  const Token t = Token::of_buffer(&b);
  EXPECT_EQ(t.kind, TokenKind::kBuffer);
  EXPECT_EQ(t.pipeline, 7u);
  EXPECT_EQ(t.buffer, &b);
  EXPECT_EQ(Token::caboose(2).kind, TokenKind::kCaboose);
  EXPECT_EQ(Token::close(2).kind, TokenKind::kClose);
  EXPECT_EQ(Token::abort().kind, TokenKind::kAbort);
}

TEST(BufferQueue, FifoOrder) {
  BufferQueue q;
  Buffer a(16, 0, false), b(16, 0, false);
  q.push(Token::of_buffer(&a));
  q.push(Token::of_buffer(&b));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().buffer, &a);
  EXPECT_EQ(q.pop().buffer, &b);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BufferQueue, BlockingPopWakesOnPush) {
  BufferQueue q;
  Buffer a(16, 0, false);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(Token::of_buffer(&a));
  });
  const Token t = q.pop();  // must block until producer pushes
  EXPECT_EQ(t.buffer, &a);
  producer.join();
}

TEST(BufferQueue, BoundedPushBlocksUntilPop) {
  BufferQueue q(1);
  Buffer a(16, 0, false), b(16, 0, false);
  q.push(Token::of_buffer(&a));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(Token::of_buffer(&b));  // blocks: capacity 1
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().buffer, &a);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().buffer, &b);
}

TEST(BufferQueue, AbortWakesPoppers) {
  BufferQueue q;
  std::thread waiter([&] {
    const Token t = q.pop();
    EXPECT_EQ(t.kind, TokenKind::kAbort);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.abort();
  waiter.join();
}

TEST(BufferQueue, AbortMakesOperationsNoops) {
  BufferQueue q;
  q.abort();
  Buffer a(16, 0, false);
  EXPECT_FALSE(q.push(Token::of_buffer(&a)));  // dropped
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.pop().kind, TokenKind::kAbort);
}

TEST(BufferQueue, AbortWakesBlockedPushers) {
  BufferQueue q(1);
  Buffer a(16, 0, false), b(16, 0, false);
  q.push(Token::of_buffer(&a));
  std::thread producer([&] { q.push(Token::of_buffer(&b)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.abort();
  producer.join();  // must return
}

// Regression: force_push is the teardown path and by the QueueStats
// contract its tokens are *excluded* from `pushes` (post-abort pushes
// don't count); they land in the separate `forced` counter so the
// reconciliation "residents == pushes + forced - pops" still balances.
// Before the fix, force_push incremented pushes_ and an aborted run's
// stats claimed more accepted tokens than were ever delivered or
// resident.
TEST(BufferQueue, ForcePushCountsAsForcedNotPushed) {
  BufferQueue q;
  Buffer a(16, 0, false);
  q.push(Token::of_buffer(&a));  // one regular push
  q.pop();                       // ...and its pop
  q.abort();
  q.force_push(Token::of_buffer(&a));  // teardown parks two buffers
  q.force_push(Token::of_buffer(&a));
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushes, 1u);
  EXPECT_EQ(s.forced, 2u);
  EXPECT_EQ(s.pops, 1u);
  // Reconciliation: what's resident is exactly what came in minus what
  // was delivered.
  EXPECT_EQ(q.size(), s.pushes + s.forced - s.pops);
}

TEST(BufferQueue, PeakTracksHighWaterMark) {
  BufferQueue q;
  Buffer a(16, 0, false);
  q.push(Token::of_buffer(&a));
  q.push(Token::of_buffer(&a));
  q.pop();
  q.push(Token::of_buffer(&a));
  EXPECT_EQ(q.peak(), 2u);
}

TEST(BufferQueue, ManyProducersManyConsumers) {
  BufferQueue q;
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  Buffer a(16, 0, false);
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) q.push(Token::of_buffer(&a));
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const Token t = q.pop();
        if (t.kind == TokenKind::kCaboose) return;
        ++consumed;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.push(Token::caboose(0));
  q.push(Token::caboose(0));
  for (std::size_t i = kProducers; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(consumed.load(), kPerProducer * kProducers);
}

// ---------------------------------------------------------------------------
// SpscChannel: the wait-free fast path must honour the exact BufferQueue
// contract — token semantics, abort behaviour, and stats accounting.
// ---------------------------------------------------------------------------

TEST(SpscChannel, FifoOrder) {
  SpscChannel q(8, 0);
  EXPECT_EQ(q.kind(), ChannelKind::kSpsc);
  EXPECT_EQ(q.size(), 0u);
  Buffer a(16, 0, false), b(16, 0, false);
  EXPECT_TRUE(q.push(Token::of_buffer(&a)));
  EXPECT_TRUE(q.push(Token::of_buffer(&b)));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().buffer, &a);
  EXPECT_EQ(q.pop().buffer, &b);
  EXPECT_EQ(q.size(), 0u);
}

TEST(SpscChannel, BlockingPopWakesOnPush) {
  SpscChannel q(4, 0);
  Buffer a(16, 0, false);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(Token::of_buffer(&a));
  });
  EXPECT_EQ(q.pop().buffer, &a);
  producer.join();
}

TEST(SpscChannel, DeclaredCapacityThrottlesProducer) {
  // declared capacity 1 below the provable bound: the full edge is live.
  SpscChannel q(4, 1);
  EXPECT_EQ(q.capacity(), 1u);
  Buffer a(16, 0, false), b(16, 0, false);
  ASSERT_TRUE(q.push(Token::of_buffer(&a)));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(Token::of_buffer(&b)));  // blocks on the full edge
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().buffer, &a);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().buffer, &b);
}

TEST(SpscChannel, AbortWinsOverResidentTokens) {
  // Like the MPMC queue: after abort, pops report abortion and the
  // resident tokens stay in place for the teardown audit.
  SpscChannel q(4, 0);
  Buffer a(16, 0, false);
  ASSERT_TRUE(q.push(Token::of_buffer(&a)));
  q.abort();
  EXPECT_EQ(q.pop().kind, TokenKind::kAbort);
  EXPECT_EQ(q.pop().kind, TokenKind::kAbort);
  EXPECT_FALSE(q.push(Token::of_buffer(&a)));  // dropped
  std::size_t residents = 0;
  q.for_each_resident([&](const Token& r) {
    ++residents;
    EXPECT_EQ(r.buffer, &a);
  });
  EXPECT_EQ(residents, 1u);
}

TEST(SpscChannel, AbortWakesBlockedPeers) {
  SpscChannel full(4, 1);
  Buffer a(16, 0, false), b(16, 0, false);
  ASSERT_TRUE(full.push(Token::of_buffer(&a)));
  std::thread producer([&] {
    EXPECT_FALSE(full.push(Token::of_buffer(&b)));  // dropped on abort
  });
  SpscChannel empty(4, 0);
  std::thread consumer([&] {
    EXPECT_EQ(empty.pop().kind, TokenKind::kAbort);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  full.abort();
  empty.abort();
  producer.join();
  consumer.join();
}

TEST(SpscChannel, ForcePushCountsAsForcedNotPushed) {
  SpscChannel q(4, 0);
  Buffer a(16, 0, false);
  ASSERT_TRUE(q.push(Token::of_buffer(&a)));
  (void)q.pop();
  q.abort();
  q.force_push(Token::of_buffer(&a));  // teardown parking from any thread
  q.force_push(Token::of_buffer(&a));
  const QueueStats s = q.stats();
  EXPECT_EQ(s.kind, ChannelKind::kSpsc);
  EXPECT_EQ(s.pushes, 1u);
  EXPECT_EQ(s.forced, 2u);
  EXPECT_EQ(s.pops, 1u);
  EXPECT_EQ(q.size(), s.pushes + s.forced - s.pops);
  std::size_t residents = 0;
  q.for_each_resident([&](const Token&) { ++residents; });
  EXPECT_EQ(residents, 2u);
}

TEST(SpscChannel, StreamingStressDeliversEverythingInOrder) {
  // One producer, one consumer, a tight ring: every token arrives exactly
  // once and in order, the caboose last, and the stats reconcile.
  SpscChannel q(4, 2);
  constexpr std::uint64_t kTokens = 200000;
  std::deque<Buffer> bufs;
  for (int i = 0; i < 8; ++i) bufs.emplace_back(8, PipelineId{0}, false);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kTokens; ++i) {
      Buffer& b = bufs[i % bufs.size()];
      b.set_tag(i);
      ASSERT_TRUE(q.push(Token::of_buffer(&b)));
    }
    ASSERT_TRUE(q.push(Token::caboose(0)));
  });
  std::uint64_t next = 0;
  for (;;) {
    const Token t = q.pop();
    if (t.kind == TokenKind::kCaboose) break;
    ASSERT_EQ(t.kind, TokenKind::kBuffer);
    // The producer reuses buffers round-robin and the ring holds at most
    // 2 tokens, so the tag is still intact when the consumer reads it.
    ASSERT_EQ(t.buffer->tag(), next);
    ++next;
  }
  producer.join();
  EXPECT_EQ(next, kTokens);
  const QueueStats s = q.stats();
  EXPECT_EQ(s.pushes, kTokens + 1);
  EXPECT_EQ(s.pops, kTokens + 1);
  EXPECT_LE(s.peak, 2u);
}

}  // namespace
}  // namespace fg
