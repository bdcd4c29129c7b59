// Backend-parameterized conformance suite for the communication fabric.
//
// Every semantic test here runs three times: against SimFabric (the whole
// cluster in one process), against a loopback TcpFabric mesh (one fabric
// instance per rank, connected over real sockets), and against a ShmFabric
// mesh (one instance per rank sharing one memfd segment), so the backends
// cannot drift.  Point-to-point semantics (tags, wildcards, FIFO per
// channel, truncation), collectives, receive deadlines, fault injection,
// and abort propagation are all covered.  Latency-model behaviour is
// SimFabric-specific and kept in its own suite at the end, as are the
// TcpFabric wire-failure suite, the FGF1 decoder fuzz, and the ShmFabric
// segment-lifecycle suite.
#include "comm/mailbox.hpp"
#include "comm/shm_fabric.hpp"
#include "comm/sim_fabric.hpp"
#include "comm/tcp_fabric.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

namespace fg::comm {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

std::string string_of(std::span<const std::byte> b, std::size_t n) {
  return std::string(reinterpret_cast<const char*>(b.data()), n);
}

/// A cluster of `p` fabric endpoints under test.  node(r) yields the
/// Fabric on which rank r's calls must be made: the shared SimFabric, or
/// rank r's own TcpFabric in the loopback mesh.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual Fabric& node(NodeId r) = 0;
  virtual int nodes() const = 0;

  void set_recv_deadline_all(util::Duration d) {
    for (int r = 0; r < nodes(); ++r) node(r).set_recv_deadline(d);
  }
  void set_delay_spike_all(util::Duration d) {
    for (int r = 0; r < nodes(); ++r) node(r).set_delay_spike(d);
  }
  void set_fault_injector_all(fault::Injector* inj) {
    for (int r = 0; r < nodes(); ++r) node(r).set_fault_injector(inj);
  }
};

class SimBackend final : public Backend {
 public:
  explicit SimBackend(int p) : f_(p) {}
  Fabric& node(NodeId) override { return f_; }
  int nodes() const override { return f_.size(); }

 private:
  SimFabric f_;
};

class TcpBackend final : public Backend {
 public:
  explicit TcpBackend(int p) {
    for (int r = 0; r < p; ++r) {
      inst_.push_back(std::make_unique<TcpFabric>(p, r, /*listen_port=*/0));
    }
    std::vector<TcpEndpoint> eps;
    eps.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      eps.push_back({"127.0.0.1", inst_[static_cast<std::size_t>(r)]
                                      ->listen_port()});
    }
    std::vector<std::thread> t;
    for (int r = 0; r < p; ++r) {
      t.emplace_back(
          [this, r, &eps] { inst_[static_cast<std::size_t>(r)]->connect(eps); });
    }
    for (auto& th : t) th.join();
  }
  Fabric& node(NodeId r) override {
    return *inst_.at(static_cast<std::size_t>(r));
  }
  int nodes() const override { return static_cast<int>(inst_.size()); }

 private:
  std::vector<std::unique_ptr<TcpFabric>> inst_;
};

class ShmBackend final : public Backend {
 public:
  explicit ShmBackend(int p) : seg_(ShmSegment::create(p)) {
    for (int r = 0; r < p; ++r) {
      inst_.push_back(std::make_unique<ShmFabric>(seg_, r));
    }
  }
  Fabric& node(NodeId r) override {
    return *inst_.at(static_cast<std::size_t>(r));
  }
  int nodes() const override { return static_cast<int>(inst_.size()); }

 private:
  std::shared_ptr<ShmSegment> seg_;
  std::vector<std::unique_ptr<ShmFabric>> inst_;
};

class FabricConformance : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "shm" && !ShmFabric::available()) {
      GTEST_SKIP() << "shared-memory segments unavailable (FG_NO_SHM set?)";
    }
  }

  std::unique_ptr<Backend> make(int p) {
    if (std::string(GetParam()) == "tcp") {
      return std::make_unique<TcpBackend>(p);
    }
    if (std::string(GetParam()) == "shm") {
      return std::make_unique<ShmBackend>(p);
    }
    return std::make_unique<SimBackend>(p);
  }
};

/// Run `fn(rank)` on `p` threads.
void on_all(int p, const std::function<void(NodeId)>& fn) {
  std::vector<std::thread> t;
  for (NodeId n = 0; n < p; ++n) t.emplace_back([&, n] { fn(n); });
  for (auto& th : t) th.join();
}

// -- point-to-point ----------------------------------------------------------

TEST_P(FabricConformance, SendRecvRoundTrip) {
  auto b = make(2);
  const auto msg = bytes_of("hello");
  b->node(0).send(0, 1, 7, msg);
  std::vector<std::byte> buf(16);
  const RecvResult r = b->node(1).recv(1, 0, 7, buf);
  EXPECT_EQ(r.source, 0);
  EXPECT_EQ(r.tag, 7);
  EXPECT_EQ(r.bytes, 5u);
  EXPECT_EQ(string_of(buf, r.bytes), "hello");
}

TEST_P(FabricConformance, SelfSendWorks) {
  auto b = make(1);
  b->node(0).send(0, 0, 1, bytes_of("self"));
  std::vector<std::byte> buf(8);
  const RecvResult r = b->node(0).recv(0, 0, 1, buf);
  EXPECT_EQ(string_of(buf, r.bytes), "self");
}

TEST_P(FabricConformance, TagsSelectMessages) {
  auto b = make(2);
  b->node(0).send(0, 1, 1, bytes_of("one"));
  b->node(0).send(0, 1, 2, bytes_of("two"));
  std::vector<std::byte> buf(8);
  const RecvResult r2 = b->node(1).recv(1, 0, 2, buf);
  EXPECT_EQ(string_of(buf, r2.bytes), "two");
  const RecvResult r1 = b->node(1).recv(1, 0, 1, buf);
  EXPECT_EQ(string_of(buf, r1.bytes), "one");
}

TEST_P(FabricConformance, AnySourceAndAnyTag) {
  auto b = make(3);
  b->node(2).send(2, 0, 5, bytes_of("x"));
  std::vector<std::byte> buf(4);
  const RecvResult r = b->node(0).recv(0, kAnySource, kAnyTag, buf);
  EXPECT_EQ(r.source, 2);
  EXPECT_EQ(r.tag, 5);
}

TEST_P(FabricConformance, FifoPerChannel) {
  auto b = make(2);
  for (int i = 0; i < 10; ++i) {
    std::byte v{static_cast<unsigned char>(i)};
    b->node(0).send(0, 1, 3, {&v, 1});
  }
  std::byte v;
  for (int i = 0; i < 10; ++i) {
    b->node(1).recv(1, 0, 3, {&v, 1});
    EXPECT_EQ(static_cast<int>(v), i);
  }
}

TEST_P(FabricConformance, TruncationThrows) {
  auto b = make(2);
  b->node(0).send(0, 1, 1, bytes_of("too long"));
  std::vector<std::byte> buf(2);
  EXPECT_THROW(b->node(1).recv(1, 0, 1, buf), std::length_error);
  // The oversized message stays queued (and, for TCP, must not have
  // desynchronized the stream): a big enough buffer still gets it, and
  // traffic after it is intact.
  b->node(0).send(0, 1, 1, bytes_of("after"));
  std::vector<std::byte> big(16);
  EXPECT_EQ(b->node(1).recv(1, 0, 1, big).bytes, 8u);
  EXPECT_EQ(b->node(1).recv(1, 0, 1, big).bytes, 5u);
}

// Negative tags carry the fabric's internal collective traffic; no public
// call may name one, probe included.
TEST_P(FabricConformance, NegativeUserTagRejected) {
  auto b = make(2);
  EXPECT_THROW(b->node(0).send(0, 1, -5, {}), std::invalid_argument);
  std::vector<std::byte> buf(4);
  EXPECT_THROW(b->node(1).recv(1, 0, -5, buf), std::invalid_argument);
  EXPECT_THROW(b->node(1).probe(1, 0, -5), std::invalid_argument);
}

TEST_P(FabricConformance, RankRangeChecked) {
  auto b = make(2);
  EXPECT_THROW(b->node(0).send(0, 5, 1, {}), std::out_of_range);
  std::vector<std::byte> buf(4);
  EXPECT_THROW(b->node(1).recv(9, 0, 1, buf), std::out_of_range);
  EXPECT_THROW(b->node(1).recv(1, 99, 1, buf), std::out_of_range);
  EXPECT_THROW(b->node(1).probe(9, 0, 1), std::out_of_range);
  EXPECT_THROW(b->node(1).probe(1, 99, 1), std::out_of_range);
}

TEST_P(FabricConformance, ProbeSeesPendingMessage) {
  auto b = make(2);
  EXPECT_FALSE(b->node(1).probe(1, 0, 1));
  b->node(0).send(0, 1, 1, bytes_of("x"));
  // Over TCP the frame needs a moment to cross the loopback.
  bool seen = false;
  for (int i = 0; i < 2000 && !seen; ++i) {
    seen = b->node(1).probe(1, 0, 1);
    if (!seen) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(seen);
  EXPECT_FALSE(b->node(1).probe(1, 0, 2));  // different tag: no match
}

TEST_P(FabricConformance, BlockingRecvWaitsForSend) {
  auto b = make(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    b->node(0).send(0, 1, 1, bytes_of("late"));
  });
  std::vector<std::byte> buf(8);
  const RecvResult r = b->node(1).recv(1, 0, 1, buf);
  EXPECT_EQ(string_of(buf, r.bytes), "late");
  sender.join();
}

TEST_P(FabricConformance, TrafficStatsCountPayloads) {
  auto b = make(2);
  b->node(0).send(0, 1, 1, bytes_of("12345"));
  std::vector<std::byte> buf(8);
  b->node(1).recv(1, 0, 1, buf);
  const TrafficStats s0 = b->node(0).stats(0);
  const TrafficStats s1 = b->node(1).stats(1);
  EXPECT_EQ(s0.messages_sent, 1u);
  EXPECT_EQ(s0.bytes_sent, 5u);
  EXPECT_EQ(s1.messages_received, 1u);
  EXPECT_EQ(s1.bytes_received, 5u);
}

// -- abort propagation -------------------------------------------------------

TEST_P(FabricConformance, AbortWakesBlockedReceivers) {
  auto b = make(2);
  std::thread waiter([&] {
    std::vector<std::byte> buf(4);
    EXPECT_THROW(b->node(1).recv(1, 0, 1, buf), FabricAborted);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Abort on rank 0; over TCP the ABORT frame must cross to rank 1's
  // process and wake its blocked receive.
  b->node(0).abort();
  waiter.join();
  EXPECT_TRUE(b->node(0).aborted());
  EXPECT_TRUE(b->node(1).aborted());
  EXPECT_THROW(b->node(0).send(0, 1, 1, {}), FabricAborted);
}

TEST_P(FabricConformance, AbortWakesBarrier) {
  const int p = 4;
  auto b = make(p);
  std::atomic<int> woken{0};
  std::vector<std::thread> t;
  for (NodeId n = 1; n < p; ++n) {
    t.emplace_back([&, n] {
      EXPECT_THROW(b->node(n).barrier(n), FabricAborted);
      ++woken;
    });
  }
  // Node 0 never arrives, so the others are parked inside the barrier.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  b->node(0).abort();
  for (auto& th : t) th.join();
  EXPECT_EQ(woken.load(), p - 1);
}

TEST_P(FabricConformance, AbortWakesAlltoallv) {
  const int p = 3;
  auto b = make(p);
  std::atomic<int> woken{0};
  std::vector<std::thread> t;
  for (NodeId n = 1; n < p; ++n) {
    t.emplace_back([&, n] {
      std::vector<std::byte> mine(4);
      std::vector<std::span<const std::byte>> send(
          static_cast<std::size_t>(p), std::span<const std::byte>(mine));
      std::vector<std::byte> recv(64);
      // Blocks receiving node 0's contribution, which never comes.
      EXPECT_THROW(b->node(n).alltoallv(n, send, recv), FabricAborted);
      ++woken;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  b->node(0).abort();
  for (auto& th : t) th.join();
  EXPECT_EQ(woken.load(), p - 1);
}

// -- collectives -------------------------------------------------------------

TEST_P(FabricConformance, BarrierSynchronizes) {
  const int p = 5;
  auto b = make(p);
  std::atomic<int> arrived{0};
  std::atomic<bool> violation{false};
  on_all(p, [&](NodeId me) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * me));
    ++arrived;
    b->node(me).barrier(me);
    if (arrived.load() != p) violation = true;
  });
  EXPECT_FALSE(violation.load());
}

TEST_P(FabricConformance, RepeatedBarriersDoNotCrossTalk) {
  const int p = 4;
  auto b = make(p);
  std::atomic<int> phase{0};
  std::atomic<bool> violation{false};
  on_all(p, [&](NodeId me) {
    for (int round = 0; round < 20; ++round) {
      b->node(me).barrier(me);
      if (me == 0) ++phase;
      b->node(me).barrier(me);
      if (phase.load() != round + 1) violation = true;
    }
  });
  EXPECT_FALSE(violation.load());
}

TEST_P(FabricConformance, BroadcastDistributesRootData) {
  const int p = 6;
  auto b = make(p);
  std::vector<std::vector<std::byte>> got(p, std::vector<std::byte>(4));
  on_all(p, [&](NodeId me) {
    if (me == 2) {
      const auto msg = bytes_of("abcd");
      std::copy(msg.begin(), msg.end(),
                got[static_cast<std::size_t>(me)].begin());
    }
    b->node(me).broadcast(me, 2, got[static_cast<std::size_t>(me)]);
  });
  for (int n = 0; n < p; ++n) {
    EXPECT_EQ(string_of(got[static_cast<std::size_t>(n)], 4), "abcd");
  }
}

TEST_P(FabricConformance, AlltoallExchangesBlocks) {
  const int p = 4;
  auto b = make(p);
  std::vector<std::vector<std::uint64_t>> recv(
      p, std::vector<std::uint64_t>(static_cast<std::size_t>(p)));
  on_all(p, [&](NodeId me) {
    std::vector<std::uint64_t> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<std::size_t>(d)] =
          static_cast<std::uint64_t>(me * 100 + d);
    }
    b->node(me).alltoall(me,
                         {reinterpret_cast<const std::byte*>(send.data()),
                          send.size() * 8},
                         {reinterpret_cast<std::byte*>(
                              recv[static_cast<std::size_t>(me)].data()),
                          static_cast<std::size_t>(p) * 8},
                         8);
  });
  for (int me = 0; me < p; ++me) {
    for (int s = 0; s < p; ++s) {
      // Block from s holds s*100 + me.
      EXPECT_EQ(recv[static_cast<std::size_t>(me)][static_cast<std::size_t>(s)],
                static_cast<std::uint64_t>(s * 100 + me));
    }
  }
}

TEST_P(FabricConformance, AlltoallValidatesSizes) {
  auto b = make(2);
  std::vector<std::byte> tiny(4);
  EXPECT_THROW(b->node(0).alltoall(0, tiny, tiny, 8), std::length_error);
}

TEST_P(FabricConformance, AlltoallvVariableSizes) {
  const int p = 3;
  auto b = make(p);
  // Node m sends m+1 copies of its rank byte to every node.
  std::vector<std::vector<std::byte>> got(p);
  std::vector<std::vector<std::size_t>> sizes(p);
  on_all(p, [&](NodeId me) {
    std::vector<std::byte> mine(static_cast<std::size_t>(me + 1),
                                std::byte{static_cast<unsigned char>(me)});
    std::vector<std::span<const std::byte>> send(
        static_cast<std::size_t>(p), std::span<const std::byte>(mine));
    std::vector<std::byte> recv(64);
    const auto s = b->node(me).alltoallv(me, send, recv);
    got[static_cast<std::size_t>(me)] = recv;
    sizes[static_cast<std::size_t>(me)] = s;
  });
  for (int me = 0; me < p; ++me) {
    std::size_t off = 0;
    for (int src = 0; src < p; ++src) {
      ASSERT_EQ(
          sizes[static_cast<std::size_t>(me)][static_cast<std::size_t>(src)],
          static_cast<std::size_t>(src + 1));
      for (int i = 0; i <= src; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(me)]
                     [off + static_cast<std::size_t>(i)],
                  std::byte{static_cast<unsigned char>(src)});
      }
      off += static_cast<std::size_t>(src + 1);
    }
  }
}

TEST_P(FabricConformance, AlltoallvEmptyBlocksLegal) {
  const int p = 2;
  auto b = make(p);
  on_all(p, [&](NodeId me) {
    std::vector<std::byte> mine;
    if (me == 0) mine = bytes_of("x");
    std::vector<std::span<const std::byte>> send(
        static_cast<std::size_t>(p), std::span<const std::byte>(mine));
    std::vector<std::byte> recv(8);
    const auto s = b->node(me).alltoallv(me, send, recv);
    EXPECT_EQ(s[0], 1u);  // node 0 sent 1 byte to everyone
    EXPECT_EQ(s[1], 0u);  // node 1 sent nothing
  });
}

TEST_P(FabricConformance, AlltoallvOverflowThrows) {
  auto b = make(1);
  std::vector<std::byte> mine(16);
  std::vector<std::span<const std::byte>> send{
      std::span<const std::byte>(mine)};
  std::vector<std::byte> recv(4);
  EXPECT_THROW(b->node(0).alltoallv(0, send, recv), std::length_error);
}

TEST_P(FabricConformance, AlltoallvWrongBlockCountThrows) {
  auto b = make(2);
  std::vector<std::span<const std::byte>> send(1);
  std::vector<std::byte> recv(4);
  EXPECT_THROW(b->node(0).alltoallv(0, send, recv), std::invalid_argument);
}

// Regression (alltoallv bounds): a receive buffer that fits the early
// blocks but not a later one must surface as the documented
// std::length_error *from alltoallv* — never unsigned wraparound or an
// out-of-range subspan.  The partner completes normally: alltoallv posts
// all sends before any receive, so node 1 is not starved by node 0's
// failure.
TEST_P(FabricConformance, AlltoallvMidstreamTooSmallThrows) {
  const int p = 2;
  auto b = make(p);
  std::thread partner([&] {
    const auto mine = bytes_of("big payload!");  // 12 bytes to node 0
    std::vector<std::span<const std::byte>> send(
        static_cast<std::size_t>(p), std::span<const std::byte>(mine));
    std::vector<std::byte> recv(64);
    b->node(1).alltoallv(1, send, recv);
  });
  const auto small = bytes_of("tiny");  // 4 bytes to node 1
  std::vector<std::span<const std::byte>> send(
      static_cast<std::size_t>(p), std::span<const std::byte>(small));
  std::vector<std::byte> recv(8);  // holds node 0's own 4, not node 1's 12
  try {
    b->node(0).alltoallv(0, send, recv);
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("alltoallv"), std::string::npos)
        << "error should name the collective, got: " << e.what();
  }
  partner.join();
}

// Regression (collective tag isolation): two collectives of different
// kinds in flight at once on the same node pair must not cross-match each
// other's messages.  Before per-kind sequence-numbered internal tags,
// alltoall and alltoallv shared one tag and an unlucky interleaving fed
// one collective's payload to the other.
TEST_P(FabricConformance, OverlappedCollectivesDoNotCrossMatch) {
  const int p = 2;
  auto b = make(p);
  for (int round = 0; round < 40; ++round) {
    std::atomic<bool> ok{true};
    on_all(p, [&](NodeId me) {
      std::thread t_a([&] {
        // alltoall with 8-byte blocks.
        std::vector<std::uint64_t> send(static_cast<std::size_t>(p));
        std::vector<std::uint64_t> recv(static_cast<std::size_t>(p));
        for (int d = 0; d < p; ++d) {
          send[static_cast<std::size_t>(d)] =
              static_cast<std::uint64_t>(1000 + me);
        }
        b->node(me).alltoall(
            me,
            {reinterpret_cast<const std::byte*>(send.data()), send.size() * 8},
            {reinterpret_cast<std::byte*>(recv.data()), recv.size() * 8}, 8);
        for (int s = 0; s < p; ++s) {
          if (recv[static_cast<std::size_t>(s)] !=
              static_cast<std::uint64_t>(1000 + s)) {
            ok = false;
          }
        }
      });
      std::thread t_v([&] {
        // alltoallv with 16-byte blocks; a cross-match would truncate or
        // misdeliver.
        std::vector<std::byte> mine(16, std::byte{static_cast<unsigned char>(me)});
        std::vector<std::span<const std::byte>> send(
            static_cast<std::size_t>(p), std::span<const std::byte>(mine));
        std::vector<std::byte> recv(static_cast<std::size_t>(p) * 16);
        const auto sizes = b->node(me).alltoallv(me, send, recv);
        for (int s = 0; s < p; ++s) {
          if (sizes[static_cast<std::size_t>(s)] != 16u) ok = false;
          if (recv[static_cast<std::size_t>(s) * 16] !=
              std::byte{static_cast<unsigned char>(s)}) {
            ok = false;
          }
        }
      });
      t_a.join();
      t_v.join();
    });
    ASSERT_TRUE(ok.load()) << "cross-matched collectives in round " << round;
  }
}

TEST_P(FabricConformance, AllgatherU64) {
  const int p = 5;
  auto b = make(p);
  std::vector<std::vector<std::uint64_t>> got(p);
  on_all(p, [&](NodeId me) {
    got[static_cast<std::size_t>(me)] =
        b->node(me).allgather_u64(me, static_cast<std::uint64_t>(me * me));
  });
  for (int me = 0; me < p; ++me) {
    ASSERT_EQ(got[static_cast<std::size_t>(me)].size(),
              static_cast<std::size_t>(p));
    for (int n = 0; n < p; ++n) {
      EXPECT_EQ(got[static_cast<std::size_t>(me)][static_cast<std::size_t>(n)],
                static_cast<std::uint64_t>(n * n));
    }
  }
}

TEST_P(FabricConformance, SingleNodeDegenerates) {
  auto b = make(1);
  Fabric& f = b->node(0);
  f.barrier(0);
  std::vector<std::byte> d = bytes_of("z");
  f.broadcast(0, 0, d);
  const auto all = f.allgather_u64(0, 42);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], 42u);
}

// -- receive deadlines -------------------------------------------------------

TEST_P(FabricConformance, RecvTimesOutInsteadOfHanging) {
  auto b = make(2);
  b->set_recv_deadline_all(std::chrono::milliseconds(60));
  std::vector<std::byte> buf(4);
  util::Stopwatch sw;
  EXPECT_THROW(b->node(1).recv(1, 0, 1, buf), FabricTimeout);
  EXPECT_GE(sw.elapsed_seconds(), 0.05);
}

TEST_P(FabricConformance, DeliveredMessageBeatsDeadline) {
  auto b = make(2);
  b->set_recv_deadline_all(std::chrono::seconds(10));
  b->node(0).send(0, 1, 1, bytes_of("ok"));
  std::vector<std::byte> buf(4);
  const RecvResult r = b->node(1).recv(1, 0, 1, buf);
  EXPECT_EQ(string_of(buf, r.bytes), "ok");
}

TEST_P(FabricConformance, DeadlineUnblocksBarrier) {
  auto b = make(2);
  b->set_recv_deadline_all(std::chrono::milliseconds(60));
  // Node 0 never arrives; node 1 is blocked in the barrier's receive half
  // and must surface the silence as FabricTimeout.
  EXPECT_THROW(b->node(1).barrier(1), FabricTimeout);
}

TEST_P(FabricConformance, DroppedMessageSurfacesAsTimeout) {
  auto b = make(2);
  fault::Injector inj(9);
  inj.arm(fault::kFabricDrop, fault::Rule::every_nth(1));
  b->set_fault_injector_all(&inj);
  b->set_recv_deadline_all(std::chrono::milliseconds(60));
  b->node(0).send(0, 1, 1, bytes_of("lost"));
  EXPECT_EQ(b->node(0).stats(0).messages_dropped, 1u);
  std::vector<std::byte> buf(8);
  // The drop is invisible to the receiver except as silence; the deadline
  // turns that silence into a diagnosable failure.
  EXPECT_THROW(b->node(1).recv(1, 0, 1, buf), FabricTimeout);
  b->set_fault_injector_all(nullptr);
}

TEST_P(FabricConformance, SelfSendsAreNeverDropped) {
  auto b = make(2);
  fault::Injector inj(9);
  inj.arm(fault::kFabricDrop, fault::Rule::every_nth(1));
  b->set_fault_injector_all(&inj);
  b->node(0).send(0, 0, 1, bytes_of("x"));
  std::vector<std::byte> buf(4);
  EXPECT_EQ(b->node(0).recv(0, 0, 1, buf).bytes, 1u);
  b->set_fault_injector_all(nullptr);
}

TEST_P(FabricConformance, DelaySpikeDefersDelivery) {
  auto b = make(2);
  fault::Injector inj(9);
  inj.arm(fault::kFabricDelay, fault::Rule::every_nth(1));
  b->set_fault_injector_all(&inj);
  b->set_delay_spike_all(std::chrono::milliseconds(80));
  util::Stopwatch sw;
  b->node(0).send(0, 1, 1, bytes_of("slow"));
  std::vector<std::byte> buf(8);
  b->node(1).recv(1, 0, 1, buf);
  EXPECT_GE(sw.elapsed_seconds(), 0.07);
  b->set_fault_injector_all(nullptr);
}

TEST_P(FabricConformance, CrashedNodeThrowsAndStaysDown) {
  auto b = make(3);
  fault::Injector inj(9);
  inj.arm(fault::kFabricCrash, fault::Rule::one_shot(1).on_node(1));
  b->set_fault_injector_all(&inj);
  // A probe reads the crashed flag but is not a fabric.crash op: the
  // first op, where the rule fires, is still the send.
  EXPECT_FALSE(b->node(1).probe(1, 0, 1));
  EXPECT_THROW(b->node(1).send(1, 0, 1, bytes_of("x")), FabricNodeCrashed);
  EXPECT_TRUE(b->node(1).crashed(1));
  // Permanently down, even with the injector detached.
  b->set_fault_injector_all(nullptr);
  std::vector<std::byte> buf(4);
  EXPECT_THROW(b->node(1).recv(1, 0, 1, buf), FabricNodeCrashed);
  EXPECT_THROW(b->node(1).probe(1, 0, 1), FabricNodeCrashed);
  // Survivors keep talking.
  b->node(0).send(0, 2, 1, bytes_of("on"));
  EXPECT_EQ(b->node(2).recv(2, 0, 1, buf).bytes, 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, FabricConformance,
                         ::testing::Values("sim", "tcp", "shm"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// -- one-rank fabrics: the rank a process hosts --------------------------------

/// Expect `call` to throw the base's std::logic_error for a rank this
/// process does not host (not one of logic_error's range or argument
/// subclasses).
void expect_not_hosted(const std::function<void()>& call, NodeId rank) {
  try {
    call();
    ADD_FAILURE() << "expected std::logic_error for rank " << rank;
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("does not host rank " +
                                         std::to_string(rank)),
              std::string::npos)
        << e.what();
  }
}

class OneRankFabric : public FabricConformance {};

// A tcp or shm fabric hosts one rank.  A call that names another rank as
// its own is a programming error, whatever the wire.
TEST_P(OneRankFabric, RejectsRanksItDoesNotHost) {
  auto b = make(2);
  Fabric& f = b->node(0);
  std::vector<std::byte> buf(4);
  expect_not_hosted([&] { f.send(1, 0, 1, bytes_of("x")); }, 1);
  expect_not_hosted([&] { f.recv(1, 0, 1, buf); }, 1);
  expect_not_hosted([&] { (void)f.probe(1, 0, 1); }, 1);
  // The rank it does host still works, to itself and to its peer.
  f.send(0, 0, 1, bytes_of("me"));
  EXPECT_EQ(f.recv(0, 0, 1, buf).bytes, 2u);
  f.send(0, 1, 1, bytes_of("you"));
  EXPECT_EQ(b->node(1).recv(1, 0, 1, buf).bytes, 3u);
}

INSTANTIATE_TEST_SUITE_P(Backends, OneRankFabric,
                         ::testing::Values("tcp", "shm"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// -- TcpFabric-specific: endpoint parsing ------------------------------------

TEST(TcpEndpointTest, ParsesHostAndPort) {
  const TcpEndpoint e = parse_endpoint("127.0.0.1:31415");
  EXPECT_EQ(e.host, "127.0.0.1");
  EXPECT_EQ(e.port, 31415);
  EXPECT_EQ(parse_endpoint(":8080").host, "127.0.0.1");  // loopback shorthand
  EXPECT_EQ(parse_endpoint(":8080").port, 8080);
  EXPECT_EQ(parse_endpoint("example.com:65535").port, 65535);
}

// Regression (satellite): the port used to go through a bare std::stoul,
// so "host:80x" quietly parsed as port 80 and a typo'd peer list
// connected to the wrong place.  Trailing garbage must be rejected.
TEST(TcpEndpointTest, TrailingGarbageInPortRejected) {
  EXPECT_THROW(parse_endpoint("host:80x"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:8 0"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:0x50"), std::invalid_argument);
}

TEST(TcpEndpointTest, BadPortErrorNamesTheSpec) {
  try {
    parse_endpoint("badhost:notaport");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("notaport"), std::string::npos) << msg;
    EXPECT_NE(msg.find("badhost:notaport"), std::string::npos) << msg;
  }
}

TEST(TcpEndpointTest, PortRangeChecked) {
  EXPECT_THROW(parse_endpoint("host:0"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:65536"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:-1"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("hostonly"), std::invalid_argument);
}

// -- TcpFabric-specific: wire failures and the receive pool -------------------
//
// These tests speak the FGF1 framing by hand from a raw socket posing as
// rank 0, so they can do what a real TcpFabric never would: die partway
// through a frame.  Before the receive path grew its tri-state read
// outcome, every one of these deaths surfaced as the same anonymous
// abort; the assertions below pin the per-cause diagnostics.

namespace wire {

constexpr std::uint32_t kHelloMagic = 0x31484746u;  // "FGH1"
constexpr std::uint32_t kFrameMagic = 0x31464746u;  // "FGF1"
constexpr std::size_t kHelloBytes = 8;
constexpr std::size_t kHeaderBytes = 4 + 1 + 4 + 4 + 8 + 8;

void put_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
}

void put_u64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
}

std::vector<std::byte> data_frame_header(int tag, std::uint32_t seq,
                                         std::uint64_t len) {
  std::vector<std::byte> hdr(kHeaderBytes);
  put_u32(hdr.data(), kFrameMagic);
  hdr[4] = std::byte{0};  // DATA
  put_u32(hdr.data() + 5, static_cast<std::uint32_t>(tag));
  put_u32(hdr.data() + 9, seq);
  put_u64(hdr.data() + 13, len);
  put_u64(hdr.data() + 21, 0);  // no injected delay
  return hdr;
}

std::vector<std::byte> control_frame_header(std::uint8_t type,
                                            std::uint32_t seq) {
  std::vector<std::byte> hdr(kHeaderBytes);
  put_u32(hdr.data(), kFrameMagic);
  hdr[4] = static_cast<std::byte>(type);  // 1 = ABORT, 2 = BYE
  put_u32(hdr.data() + 5, 0);
  put_u32(hdr.data() + 9, seq);
  put_u64(hdr.data() + 13, 0);
  put_u64(hdr.data() + 21, 0);
  return hdr;
}

}  // namespace wire

/// A raw loopback socket standing in for rank 0 of a two-rank mesh: it
/// accepts the real fabric's dial + hello and then writes whatever bytes
/// the test wants on the wire — including none.
class FakePeer {
 public:
  FakePeer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listen_fd_, 1);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~FakePeer() {
    close_abruptly();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }

  bool accept_and_read_hello() {
    fd_ = ::accept(listen_fd_, nullptr, nullptr);
    if (fd_ < 0) return false;
    std::byte hello[wire::kHelloBytes];
    std::size_t got = 0;
    while (got < sizeof hello) {
      const ssize_t n = ::recv(fd_, hello + got, sizeof hello - got, 0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    std::uint32_t magic = 0;
    std::memcpy(&magic, hello, 4);
    return magic == wire::kHelloMagic;
  }

  void send_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd_, b + off, n - off, MSG_NOSIGNAL);
      if (w <= 0) return;
      off += static_cast<std::size_t>(w);
    }
  }

  /// Die without BYE, mid-whatever the previous writes left the stream in.
  void close_abruptly() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// True if the real fabric sends us any bytes within `ms` milliseconds.
  bool readable_within(int ms) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, ms) <= 0) return false;
    char c;
    return ::recv(fd_, &c, 1, MSG_PEEK) > 0;
  }

 private:
  int listen_fd_{-1};
  int fd_{-1};
  std::uint16_t port_{0};
};

/// Bring up a two-rank mesh where rank 0 is the FakePeer and rank 1 is a
/// real fabric (rank 1 dials rank 0, so the fake side only accepts).
void connect_fake_mesh(TcpFabric& fab, FakePeer& peer) {
  std::thread conn([&] {
    fab.connect({{"127.0.0.1", peer.port()},
                 {"127.0.0.1", fab.listen_port()}});
  });
  EXPECT_TRUE(peer.accept_and_read_hello());
  conn.join();
}

// Regression (satellite): a peer killed mid-payload used to be
// indistinguishable from any other receive failure.  The abort
// diagnostic must say the frame was truncated and how big it was — also
// when the peer died right after the header, before the payload's first
// byte, where the cause used to claim "a frame boundary".
TEST(TcpFabricWire, PeerDeathMidPayloadIsDiagnosed) {
  for (const std::size_t sent : {std::size_t{100}, std::size_t{0}}) {
    FakePeer peer;
    TcpFabric fab(2, 1);
    connect_fake_mesh(fab, peer);

    // A DATA frame that promises 4096 bytes, delivers `sent`, then dies.
    const auto hdr = wire::data_frame_header(/*tag=*/7, /*seq=*/0, 4096);
    peer.send_bytes(hdr.data(), hdr.size());
    const std::vector<std::byte> partial(sent, std::byte{0x42});
    peer.send_bytes(partial.data(), partial.size());
    peer.close_abruptly();

    std::vector<std::byte> buf(8192);
    EXPECT_THROW(fab.recv(1, 0, 7, buf), FabricAborted);
    const std::string detail = fab.abort_detail();
    EXPECT_NE(detail.find("rank 0"), std::string::npos) << detail;
    EXPECT_NE(detail.find("mid-frame"), std::string::npos) << detail;
    EXPECT_NE(detail.find("died mid-payload"), std::string::npos) << detail;
    EXPECT_NE(detail.find("4096-byte frame truncated"), std::string::npos)
        << detail;
    EXPECT_EQ(detail.find("frame boundary"), std::string::npos) << detail;
  }
}

TEST(TcpFabricWire, PeerDeathInsideHeaderIsDiagnosed) {
  FakePeer peer;
  TcpFabric fab(2, 1);
  connect_fake_mesh(fab, peer);

  const auto hdr = wire::data_frame_header(/*tag=*/7, /*seq=*/0, 64);
  peer.send_bytes(hdr.data(), 10);  // 10 of 29 header bytes
  peer.close_abruptly();

  std::vector<std::byte> buf(256);
  EXPECT_THROW(fab.recv(1, 0, 7, buf), FabricAborted);
  const std::string detail = fab.abort_detail();
  EXPECT_NE(detail.find("mid-frame"), std::string::npos) << detail;
  EXPECT_NE(detail.find("died inside a frame header"), std::string::npos)
      << detail;
}

TEST(TcpFabricWire, SilentDeathAtFrameBoundaryIsDiagnosed) {
  FakePeer peer;
  TcpFabric fab(2, 1);
  connect_fake_mesh(fab, peer);

  // EOF between frames but without BYE: the peer process died while
  // idle.  Still an abort, but the diagnostic says the stream was whole.
  peer.close_abruptly();

  std::vector<std::byte> buf(16);
  EXPECT_THROW(fab.recv(1, 0, 7, buf), FabricAborted);
  const std::string detail = fab.abort_detail();
  EXPECT_NE(detail.find("frame boundary"), std::string::npos) << detail;
}

// Regression (satellite bugfix): a failed send used to call abort() while
// still holding that peer's non-recursive send_mutex; the abort broadcast
// re-entered write_frame for the same peer and self-deadlocked.  The shape
// that hits it in the wild: a sender blocked in sendmsg on a full socket
// (the peer stopped reading), then the peer dies — the in-flight write
// fails INSIDE write_frame, past send_payload's aborted() precheck, so the
// failure path runs with the lock held no matter how fast the receiver
// thread notices the RST.  Pre-fix this test hangs in the deadlock (and
// fails by timeout); post-fix the wedged send unwinds as FabricAborted.
TEST(TcpFabricWire, SendFailureAbortBroadcastDoesNotSelfDeadlock) {
  FakePeer peer;
  TcpFabric fab(2, 1);
  connect_fake_mesh(fab, peer);

  // Far larger than both kernel socket buffers combined, so the sender
  // parks mid-frame: the fake peer never reads.
  std::atomic<bool> unwound{false};
  std::thread sender([&] {
    const std::vector<std::byte> huge(16 * 1024 * 1024, std::byte{0x5a});
    try {
      fab.send(1, 0, 3, huge);
      ADD_FAILURE() << "a 16 MiB send into a dead socket succeeded";
    } catch (const FabricAborted&) {
    }
    unwound.store(true);
  });
  // Give the send time to fill the buffers and wedge...
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // ...then kill the peer.  Unread data in the peer's receive queue makes
  // close() send RST, which fails the blocked sendmsg immediately.
  peer.close_abruptly();
  sender.join();
  EXPECT_TRUE(unwound.load());
  EXPECT_TRUE(fab.aborted());
}

// Regression (satellite bugfix): control frames consume send_seq, but the
// receiver used to validate seq only on DATA frames.  A data frame racing
// in behind an ABORT broadcast then mismatched expect_seq, and the
// receiver escalated the orderly drain into its own "frames lost" abort —
// observable as an ABORT frame broadcast back at the already-aborting
// peer.  Every frame is validated now, and the drain stays quiet.
TEST(TcpFabricWire, DataFrameBehindAbortBroadcastIsOrderlyDrain) {
  FakePeer peer;
  TcpFabric fab(2, 1);
  connect_fake_mesh(fab, peer);

  // What a peer's send side emits when its abort broadcast races an
  // in-flight send: DATA seq 0, ABORT seq 1, DATA seq 2.
  const auto d0 = wire::data_frame_header(/*tag=*/7, /*seq=*/0, 3);
  peer.send_bytes(d0.data(), d0.size());
  peer.send_bytes("one", 3);
  const auto ab = wire::control_frame_header(/*type=*/1, /*seq=*/1);
  peer.send_bytes(ab.data(), ab.size());
  const auto d2 = wire::data_frame_header(/*tag=*/7, /*seq=*/2, 3);
  peer.send_bytes(d2.data(), d2.size());
  peer.send_bytes("two", 3);

  // The abort must land (the peer asked for it)...
  for (int i = 0; i < 2000 && !fab.aborted(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fab.aborted());
  std::vector<std::byte> buf(8);
  EXPECT_THROW(fab.recv(1, 0, 7, buf), FabricAborted);
  // ...blamed on the peer's deliberate abort, not on a wire failure...
  const std::string detail = fab.abort_detail();
  EXPECT_NE(detail.find("broadcast an abort"), std::string::npos) << detail;
  // ...and the post-ABORT data frame is an orderly drain, so the fabric
  // must NOT broadcast an abort of its own back at us.
  EXPECT_FALSE(peer.readable_within(300));
}

// Regression (satellite): the receiver sized the payload from the header
// before checking it, so a hostile length ended the process in
// std::bad_alloc, and a corrupt stream aborted the run with an empty
// abort_detail().  Each corrupt header must abort with a cause that
// names the peer.
void expect_corrupt_header_abort(const std::vector<std::byte>& hdr,
                                 const std::string& cause) {
  FakePeer peer;
  TcpFabric fab(2, 1);
  connect_fake_mesh(fab, peer);
  peer.send_bytes(hdr.data(), hdr.size());

  std::vector<std::byte> buf(16);
  EXPECT_THROW(fab.recv(1, 0, 7, buf), FabricAborted);
  const std::string detail = fab.abort_detail();
  EXPECT_NE(detail.find("rank 0"), std::string::npos) << detail;
  EXPECT_NE(detail.find(cause), std::string::npos) << detail;
}

TEST(TcpFabricWire, OversizedFrameAbortsBeforeAllocating) {
  const std::uint64_t len = std::uint64_t{1} << 62;
  expect_corrupt_header_abort(wire::data_frame_header(/*tag=*/7, 0, len),
                              std::to_string(len) + " payload bytes");
}

TEST(TcpFabricWire, BadFrameMagicAbortsWithACause) {
  auto hdr = wire::data_frame_header(/*tag=*/7, /*seq=*/0, 0);
  wire::put_u32(hdr.data(), 0xdeadbeefu);
  expect_corrupt_header_abort(hdr, "bad frame magic");
}

TEST(TcpFabricWire, SequenceGapAbortsWithACause) {
  expect_corrupt_header_abort(wire::data_frame_header(/*tag=*/7, 5, 0),
                              "sequence 5, expected 0");
}

// Regression: the receiver added the frame's delay to the
// clock unchecked, so a delay just under 2^63 ns overflowed the signed time
// arithmetic (undefined behaviour; in practice it wrapped into the past
// and the message was delivered at once), and a delay of 2^63 or more read
// as negative and did the same.  A delay past the clock's range now means
// what it says: never deliverable.
TEST(TcpFabricWire, DelayPastTheClockNeverDelivers) {
  for (const std::uint64_t delay :
       {std::uint64_t{INT64_MAX}, std::uint64_t{UINT64_MAX}}) {
    FakePeer peer;
    TcpFabric fab(2, 1);
    connect_fake_mesh(fab, peer);
    auto hdr = wire::data_frame_header(/*tag=*/7, /*seq=*/0, 3);
    wire::put_u64(hdr.data() + 21, delay);
    peer.send_bytes(hdr.data(), hdr.size());
    peer.send_bytes("abc", 3);
    fab.set_recv_deadline(std::chrono::milliseconds(100));
    std::vector<std::byte> buf(8);
    EXPECT_THROW(fab.recv(1, 0, 7, buf), FabricTimeout) << delay;
    EXPECT_FALSE(fab.probe(1, 0, 7));
    EXPECT_FALSE(fab.aborted());
  }
}

TEST(TcpFabricWire, UnknownFrameTypeAbortsWithACause) {
  expect_corrupt_header_abort(wire::control_frame_header(/*type=*/9, 0),
                              "unknown frame type 9");
}

// A TcpFabric hosts its rank only once connect() has brought the mesh up;
// until then every call naming the rank is a usage error, not a hang.
TEST(TcpFabricWire, CallsBeforeConnectAreRejected) {
  TcpFabric f(2, 0);
  std::vector<std::byte> buf(4);
  expect_not_hosted([&] { f.send(0, 1, 1, bytes_of("x")); }, 0);
  expect_not_hosted([&] { f.send(0, 0, 1, bytes_of("x")); }, 0);
  expect_not_hosted([&] { f.recv(0, 1, 1, buf); }, 0);
  expect_not_hosted([&] { (void)f.probe(0, 1, 1); }, 0);
}

// The receive path recycles payload vectors through the frame pool
// instead of allocating per frame; steady-state traffic must show reuse.
TEST(TcpFabricWire, ReceivePayloadsAreRecycled) {
  TcpFabric a(2, 0);
  TcpFabric b(2, 1);
  const std::vector<TcpEndpoint> eps{{"127.0.0.1", a.listen_port()},
                                     {"127.0.0.1", b.listen_port()}};
  std::thread ca([&] { a.connect(eps); });
  b.connect(eps);
  ca.join();

  const std::vector<std::byte> payload(1024, std::byte{0x07});
  std::vector<std::byte> buf(1024);
  for (int i = 0; i < 8; ++i) {
    a.send(0, 1, 5, payload);
    // Receiving frame i recycles its vector before frame i+1 is sent, so
    // every later frame lands in pooled memory.
    const RecvResult r = b.recv(1, 0, 5, buf);
    EXPECT_EQ(r.bytes, payload.size());
  }
  EXPECT_GT(b.recv_pool_reuses(), 0u);
  a.shutdown();
  b.shutdown();
}

// -- FGF1 decoder fuzz ---------------------------------------------------------
//
// Seeded mutation fuzz of TcpFabric's frame decoder, on the FakePeer
// harness above.  Valid frame streams (data, ABORT, BYE) get byte flips,
// truncations, splices, and edits to magic, type, seq, length and delay;
// a fresh rank 1 decodes each one from a fake rank 0 that then closes.
// Every run must end one of two ways: the fabric delivered only messages
// the stream really framed, or it aborted with a cause.  A reference
// decoder written from the wire format says which, and the whole fuzz
// runs under a deadline (and, in ci, under each sanitizer).  Mutated
// lengths stay near the stream's own or above kMaxMessageBytes, and byte
// flips never touch a length field: an in-cap length is allocated before
// its payload arrives, so a random one would only measure the allocator.
// FG_CHAOS_SEED picks the schedule; ci's chaos soak replays ten seeds
// under TSan.

namespace fgf1 {

std::uint64_t seed() {
  if (const char* s = std::getenv("FG_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 10);
  }
  return 42;
}

std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const std::byte* p) {
  return get_u32(p) | (std::uint64_t{get_u32(p + 4)} << 32);
}

struct Frame {
  std::uint8_t type;  // 0 = DATA, 1 = ABORT, 2 = BYE
  int tag;
  std::size_t bytes;
};

/// A stream of `frames` with consecutive sequence numbers, and the offset
/// of each frame's header.  Payload bytes all have the top bit set, so a
/// length read from payload bytes after a desync is far above the cap.
struct Stream {
  std::vector<std::byte> bytes;
  std::vector<std::size_t> headers;
};

Stream encode(const std::vector<Frame>& frames) {
  Stream s;
  std::uint32_t seq = 0;
  for (const Frame& f : frames) {
    s.headers.push_back(s.bytes.size());
    std::vector<std::byte> hdr =
        f.type == 0 ? wire::data_frame_header(f.tag, seq, f.bytes)
                    : wire::control_frame_header(f.type, seq);
    s.bytes.insert(s.bytes.end(), hdr.begin(), hdr.end());
    for (std::size_t i = 0; i < f.bytes; ++i) {
      s.bytes.push_back(static_cast<std::byte>(0x80 | ((i * 37 + seq) & 0x7f)));
    }
    ++seq;
  }
  return s;
}

struct Message {
  int tag;
  std::vector<std::byte> payload;
};

/// What a correct decoder does with `s` followed by EOF: the messages a
/// kAnyTag receive can take, in order, whether the run ends without an
/// abort (only after a BYE, at a frame boundary), and the largest payload
/// length it allocates.
struct Expected {
  std::vector<Message> visible;
  bool clean{false};
  std::uint64_t max_alloc{0};
};

/// Longest injected delay the drain waits out.  A longer one pins its
/// message, and by per-source non-overtaking every later one.
constexpr std::uint64_t kMaxWaitedDelayNs = 100'000'000;

Expected reference_decode(const std::vector<std::byte>& s) {
  Expected e;
  std::size_t off = 0;
  std::uint32_t seq = 0;
  bool bye = false;
  bool aborted = false;  // after an ABORT frame, decoding goes on
  bool pinned = false;
  for (;;) {
    if (off == s.size()) {
      e.clean = bye && !aborted;
      return e;
    }
    if (s.size() - off < wire::kHeaderBytes) return e;  // EOF in a header
    const std::byte* h = s.data() + off;
    if (get_u32(h) != wire::kFrameMagic) return e;
    const auto type = std::to_integer<std::uint8_t>(h[4]);
    const auto tag = static_cast<std::int32_t>(get_u32(h + 5));
    const std::uint64_t len = get_u64(h + 13);
    const std::uint64_t delay = get_u64(h + 21);
    if (len > Fabric::kMaxMessageBytes) return e;
    e.max_alloc = std::max(e.max_alloc, len);
    if (s.size() - off - wire::kHeaderBytes < len) return e;  // EOF in payload
    if (get_u32(h + 9) != seq++ || type > 2) return e;
    if (type == 0 && !aborted) {
      pinned = pinned || delay > kMaxWaitedDelayNs;
      if (!pinned && tag >= 0) {
        const std::byte* p = h + wire::kHeaderBytes;
        e.visible.push_back({tag, std::vector<std::byte>(p, p + len)});
      }
    }
    aborted = aborted || type == 1;
    bye = bye || type == 2;
    off += wire::kHeaderBytes + len;
  }
}

/// Largest payload a run may make the decoder allocate.  Single edits keep
/// lengths near the corpus's own or above the cap, but a splice or a flip
/// can still assemble an in-cap length from bytes of several frames; such
/// a stream is drawn again.
constexpr std::uint64_t kMaxFuzzAlloc = std::uint64_t{1} << 20;

/// One to two in-place edits — a byte flip or a magic, type, seq, length
/// or delay edit — then, two times in three, a truncation or a splice
/// with another stream of the corpus.
std::vector<std::byte> mutate(const Stream& in, const std::vector<Stream>& corpus,
                              util::Xoshiro256& rng) {
  std::vector<std::byte> s = in.bytes;
  const auto is_length_byte = [&](std::size_t pos) {
    for (std::size_t h : in.headers) {
      if (pos >= h + 13 && pos < h + 21) return true;
    }
    return false;
  };
  for (std::uint64_t e = 1 + rng.below(2); e > 0; --e) {
    std::byte* h = s.data() + in.headers[rng.below(in.headers.size())];
    switch (rng.below(6)) {
      case 0: {
        std::size_t pos = rng.below(s.size());
        while (is_length_byte(pos)) pos = rng.below(s.size());
        s[pos] ^= static_cast<std::byte>(1 + rng.below(255));
        break;
      }
      case 1:
        wire::put_u32(h, static_cast<std::uint32_t>(rng.next()));
        break;
      case 2:
        h[4] = static_cast<std::byte>(rng.below(256));
        break;
      case 3:
        wire::put_u32(h + 9, get_u32(h + 9) + 1 +
                                 static_cast<std::uint32_t>(rng.below(4)));
        break;
      case 4:  // a delay the drain waits out, or any delay at all
        wire::put_u64(h + 21, rng.below(2) == 0 ? rng.below(50'000'000)
                                                : rng.next());
        break;
      default: {
        const std::uint64_t len = get_u64(h + 13);
        wire::put_u64(h + 13, rng.below(2) == 0
                                  ? len + rng.below(17) - std::min<std::uint64_t>(len, 8)
                                  : Fabric::kMaxMessageBytes + 1 +
                                        (rng.next() >> 2));
        break;
      }
    }
  }
  switch (rng.below(3)) {
    case 0:
      s.resize(rng.below(s.size()));
      break;
    case 1: {
      const std::vector<std::byte>& o = corpus[rng.below(corpus.size())].bytes;
      s.resize(rng.below(s.size() + 1));
      s.insert(s.end(), o.begin() + static_cast<std::ptrdiff_t>(
                                        rng.below(o.size() + 1)),
               o.end());
      break;
    }
    default:
      break;
  }
  return s;
}

}  // namespace fgf1

TEST(Fgf1DecoderFuzz, MutatedStreamsDeliverFramedMessagesOrAbortWithACause) {
  const std::vector<fgf1::Stream> corpus = {
      fgf1::encode({{0, 7, 5}, {0, 7, 64}, {0, 3, 0}, {2, 0, 0}}),
      fgf1::encode({{0, 7, 1000}, {1, 0, 0}}),
      fgf1::encode({{0, 5, 300}, {0, 7, 2}, {2, 0, 0}, {0, 5, 40}}),
  };
  util::Xoshiro256 rng(fgf1::seed());
  constexpr int kRuns = 1000;
  int clean = 0;
  util::Stopwatch sw;
  for (int run = 0; run < kRuns; ++run) {
    SCOPED_TRACE("FG_CHAOS_SEED=" + std::to_string(fgf1::seed()) + " run " +
                 std::to_string(run));
    std::vector<std::byte> stream;
    fgf1::Expected want;
    do {
      stream = fgf1::mutate(corpus[rng.below(corpus.size())], corpus, rng);
      want = fgf1::reference_decode(stream);
    } while (want.max_alloc > fgf1::kMaxFuzzAlloc);

    FakePeer peer;
    TcpFabric fab(2, 1);
    connect_fake_mesh(fab, peer);
    fab.set_recv_deadline(std::chrono::seconds(10));
    peer.send_bytes(stream.data(), stream.size());
    peer.close_abruptly();

    // Drain: a clean run delivers exactly the visible messages; any other
    // run must end in an abort, having delivered a prefix of them.
    std::vector<std::byte> buf(1 << 16);
    std::size_t got = 0;
    bool aborted = false;
    try {
      while (!want.clean || got < want.visible.size()) {
        const RecvResult r = fab.recv(1, kAnySource, kAnyTag, buf);
        ASSERT_LT(got, want.visible.size())
            << "delivered a message the stream did not frame";
        const fgf1::Message& m = want.visible[got++];
        ASSERT_EQ(r.tag, m.tag);
        ASSERT_EQ(r.bytes, m.payload.size());
        ASSERT_TRUE(std::equal(m.payload.begin(), m.payload.end(),
                               buf.begin()));
      }
    } catch (const FabricAborted&) {
      aborted = true;
    } catch (const FabricTimeout&) {
      ADD_FAILURE() << "decoder neither delivered nor aborted";
    }
    if (want.clean) {
      EXPECT_FALSE(aborted) << fab.abort_detail();
      fab.shutdown();
      EXPECT_FALSE(fab.probe(1, kAnySource, kAnyTag))
          << "delivered more than the stream framed";
      ++clean;
    } else {
      EXPECT_TRUE(aborted);
      EXPECT_FALSE(fab.abort_detail().empty());
    }
  }
  // Both outcomes were exercised, and no run waited out a deadline.
  EXPECT_GT(clean, 0);
  EXPECT_LT(clean, kRuns);
  EXPECT_LT(sw.elapsed_seconds(), 60.0);
}

// -- ShmFabric-specific: segment lifecycle and crash detection ---------------

TEST(ShmSegmentTest, CreateValidatesGeometry) {
  if (!ShmFabric::available()) GTEST_SKIP();
  EXPECT_THROW(ShmSegment::create(0), std::invalid_argument);
  EXPECT_THROW(ShmSegment::create(2, ShmSegmentOptions{.ring_slots = 1}),
               std::invalid_argument);
  EXPECT_THROW(
      ShmSegment::create(2, ShmSegmentOptions{.ring_slots = 4,
                                              .slot_bytes = 100}),
      std::invalid_argument);
}

/// An FG segment header (the SegHeader layout in shm_fabric.cpp).
struct SegmentGeometry {
  std::uint32_t nodes;
  std::uint32_t ring_slots;
  std::uint64_t slot_bytes;
  std::uint64_t ring_stride;
  std::uint64_t total_bytes;
};

/// A memfd of `file_bytes` bytes whose header claims geometry `g`.
int forged_segment(SegmentGeometry g, std::size_t file_bytes) {
  const int fd =
      static_cast<int>(::syscall(SYS_memfd_create, "fg-test-forged", 1u));
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::ftruncate(fd, static_cast<off_t>(file_bytes)), 0);
  const std::uint32_t words[4] = {0x314D4746u /* "FGM1" */, 1, g.nodes,
                                  g.ring_slots};
  const std::uint64_t sizes[3] = {g.slot_bytes, g.ring_stride, g.total_bytes};
  EXPECT_EQ(::pwrite(fd, words, sizeof words, 0),
            static_cast<ssize_t>(sizeof words));
  EXPECT_EQ(::pwrite(fd, sizes, sizeof sizes, sizeof words),
            static_cast<ssize_t>(sizeof sizes));
  return fd;
}

TEST(ShmSegmentTest, AttachRejectsForeignFds) {
  if (!ShmFabric::available()) GTEST_SKIP();
  // A pipe is not a segment (and has no size at all).
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EXPECT_THROW(ShmSegment::attach(fds[0]), std::invalid_argument);
  ::close(fds[0]);
  ::close(fds[1]);
  // A right-shaped memfd full of zeros is not a segment either.
  auto seg = ShmSegment::create(2);
  const int blank =
      static_cast<int>(::syscall(SYS_memfd_create, "fg-test-blank", 1u));
  ASSERT_GE(blank, 0);
  ASSERT_EQ(::ftruncate(blank, 1 << 16), 0);
  EXPECT_THROW(ShmSegment::attach(blank), std::invalid_argument);
  ::close(blank);

  // Forged headers.  The fd reaches attach() from outside (fgsort
  // --shm-fd), and every ring offset comes from the header, so a geometry
  // that does not describe the mapping must be refused, never mapped and
  // trusted.  For 3 ranks with 2 slots of 64 B, the ring stride is 384 B
  // (head and tail lines plus 2 slots of header line + payload) and the
  // segment 2,624 B (header, 3 status lines, abort line, then 6 rings).
  // Only attach() is called: a ShmFabric on a forged header would start
  // its receiver threads on it.
  const auto attaches = [](SegmentGeometry g, std::size_t file_bytes) {
    const int fd = forged_segment(g, file_bytes);
    bool ok = true;
    try {
      ShmSegment::attach(fd);
    } catch (const std::invalid_argument&) {
      ok = false;
    }
    ::close(fd);
    return ok;
  };
  EXPECT_TRUE(attaches({3, 2, 64, 384, 2624}, 2624));  // the honest header
  // slot_bytes not a multiple of 64 (stride and size consistent with it).
  EXPECT_FALSE(attaches({3, 2, 100, 456, 3056}, 3056));
  // A 1 MiB ring stride over a 2,624-byte mapping.
  EXPECT_FALSE(attaches({3, 2, 64, 1 << 20, 2624}, 2624));
  // 4 ranks claimed in a segment sized for 3 (4 ranks need 4,992 B).
  EXPECT_FALSE(attaches({4, 2, 64, 384, 2624}, 2624));
  // A geometry whose size overflows 64 bits.
  EXPECT_FALSE(
      attaches({3, 2, std::uint64_t{1} << 62, (std::uint64_t{1} << 63) + 256,
                2624},
               2624));
}

TEST(ShmSegmentTest, AttachByFdSharesTheSegment) {
  if (!ShmFabric::available()) GTEST_SKIP();
  // attach() maps the same pages again (the fgnode parent/child shape); a
  // message sent through one mapping arrives through the other.
  auto seg = ShmSegment::create(2);
  auto seg2 = ShmSegment::attach(seg->fd());
  EXPECT_EQ(seg2->nodes(), 2);
  EXPECT_EQ(seg2->ring_slots(), seg->ring_slots());
  ShmFabric a(seg, 0);
  ShmFabric b(seg2, 1);
  a.send(0, 1, 7, bytes_of("via mmap"));
  std::vector<std::byte> buf(16);
  EXPECT_EQ(string_of(buf, b.recv(1, 0, 7, buf).bytes), "via mmap");
}

// Regression (satellite): a slot header declaring a huge message used to
// size the reassembly buffer unchecked and end the process in
// std::bad_alloc.  The test plays rank 0 through its own mapping of the
// segment and stomps slot 0 of the 0 -> 1 ring.  Offsets follow the
// layout in shm_fabric.cpp: a header line, one status line per rank and
// the abort line, then the ring's head and tail lines and its slots.
TEST(ShmSegmentTest, StompedSlotHeaderAbortsWithACause) {
  if (!ShmFabric::available()) GTEST_SKIP();
  auto seg = ShmSegment::create(2);
  ShmFabric b(seg, 1);
  struct stat st {};
  ASSERT_EQ(::fstat(seg->fd(), &st), 0);
  const auto len = static_cast<std::size_t>(st.st_size);
  void* map =
      ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, seg->fd(), 0);
  ASSERT_NE(map, MAP_FAILED);
  auto* base = static_cast<std::byte*>(map);
  constexpr std::size_t kRing = 4 * 64;          // ring 0 -> 1
  constexpr std::size_t kSlot0 = kRing + 2 * 64;  // its first slot
  const std::uint64_t huge = std::uint64_t{1} << 62;
  struct {
    std::int32_t tag;
    std::uint32_t first;
    std::uint64_t msg_bytes, chunk_bytes, delay_ns;
  } hdr{7, 1, huge, 0, 0};
  std::memcpy(base + kSlot0, &hdr, sizeof hdr);
  auto* head = reinterpret_cast<std::uint32_t*>(base + kRing);
  std::atomic_ref<std::uint32_t>(*head).store(1, std::memory_order_release);

  std::vector<std::byte> buf(16);
  EXPECT_THROW(b.recv(1, 0, 7, buf), FabricAborted);
  const std::string detail = b.abort_detail();
  EXPECT_NE(detail.find("rank 0"), std::string::npos) << detail;
  EXPECT_NE(detail.find(std::to_string(huge) + " bytes"), std::string::npos)
      << detail;
  ::munmap(map, len);
}

TEST(ShmFabricTest, DuplicateRankAttachRejected) {
  if (!ShmFabric::available()) GTEST_SKIP();
  auto seg = ShmSegment::create(2);
  ShmFabric a(seg, 0);
  EXPECT_THROW(ShmFabric(seg, 0), std::invalid_argument);
}

TEST(ShmFabricTest, MessagesLargerThanASlotAreChunked) {
  if (!ShmFabric::available()) GTEST_SKIP();
  // 10000 bytes through 256-byte slots in a 4-slot ring: the sender must
  // ride the ring-full backpressure while the receiver drains.
  auto seg = ShmSegment::create(
      2, ShmSegmentOptions{.ring_slots = 4, .slot_bytes = 256});
  ShmFabric a(seg, 0);
  ShmFabric b(seg, 1);
  std::vector<std::byte> big(10'000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(i * 31 + 7);
  }
  std::thread sender([&] { a.send(0, 1, 3, big); });
  std::vector<std::byte> buf(big.size());
  const RecvResult r = b.recv(1, 0, 3, buf);
  sender.join();
  ASSERT_EQ(r.bytes, big.size());
  EXPECT_EQ(std::memcmp(big.data(), buf.data(), big.size()), 0);
}

TEST(ShmFabricTest, ReceivePayloadsAreRecycled) {
  if (!ShmFabric::available()) GTEST_SKIP();
  auto seg = ShmSegment::create(2);
  ShmFabric a(seg, 0);
  ShmFabric b(seg, 1);
  const std::vector<std::byte> payload(1024, std::byte{0x07});
  std::vector<std::byte> buf(1024);
  for (int i = 0; i < 8; ++i) {
    a.send(0, 1, 5, payload);
    const RecvResult r = b.recv(1, 0, 5, buf);
    EXPECT_EQ(r.bytes, payload.size());
  }
  EXPECT_GT(b.recv_pool_reuses(), 0u);
}

#if defined(__SANITIZE_THREAD__)
#define FG_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FG_TEST_TSAN 1
#endif
#endif

// A rank that dies without its bye flag freezes its heartbeat word; a
// survivor must presume it dead and abort the run with a diagnostic.  The
// dead rank is a real forked process that attaches through the inherited
// fd and _exits without running destructors — which also exercises the
// cross-process attach path end to end.
TEST(ShmFabricTest, FrozenHeartbeatAbortsSurvivors) {
#ifdef FG_TEST_TSAN
  GTEST_SKIP() << "fork + child threads is unsupported under TSan";
#else
  if (!ShmFabric::available()) GTEST_SKIP();
  auto seg = ShmSegment::create(2);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: rank 1 joins, beats briefly, dies silently (no shutdown, no
    // bye — _exit skips every destructor).
    try {
      auto mine = ShmSegment::attach(seg->fd());
      ShmFabric dead(mine, 1,
                     ShmFabricOptions{
                         .heartbeat_period = std::chrono::milliseconds(5),
                         .heartbeat_timeout = std::chrono::seconds(30)});
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ::_exit(0);
    } catch (...) {
      ::_exit(2);
    }
  }
  ShmFabric survivor(seg, 0,
                     ShmFabricOptions{
                         .heartbeat_period = std::chrono::milliseconds(5),
                         .heartbeat_timeout = std::chrono::milliseconds(250)});
  std::vector<std::byte> buf(4);
  EXPECT_THROW(survivor.recv(0, 1, 1, buf), FabricAborted);
  const std::string detail = survivor.abort_detail();
  EXPECT_NE(detail.find("rank 1"), std::string::npos) << detail;
  EXPECT_NE(detail.find("heartbeat frozen"), std::string::npos) << detail;
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
#endif
}

// -- Mailbox: deposit cost and wildcard interleaving -------------------------

// Regression (satellite bugfix): deposit used to rediscover the
// non-overtaking floor by scanning the queue backwards for the last
// message from the same source, so a source with nothing of its own
// queued paid a full-queue scan per deposit — O(n^2) across n deposits.
// The per-source floor map makes deposit O(1); this bound is generous
// even under TSan, and minutes away from what the scan costs at this
// depth.
TEST(MailboxTest, DeepQueueDepositStaysCheap) {
  PayloadPool pool;
  Mailbox mb(0, pool);
  const util::TimePoint now = util::Clock::now();
  util::Stopwatch sw;
  // Worst case for the old scan: every deposit's source has no earlier
  // message in the queue, so every scan walks the whole (growing) list.
  constexpr int kMessages = 100'000;
  for (int i = 0; i < kMessages; ++i) {
    mb.deposit(/*src=*/i, /*tag=*/1, {}, now);
  }
  EXPECT_LT(sw.elapsed_seconds(), 10.0);
}

// Satellite: wildcard takes interleaved with deep queues.  A pile of
// internal-tag traffic (invisible to kAnyTag) keeps the queue deep while
// producers race a wildcard consumer; per-source FIFO must hold, the
// wildcard must never surface an internal tag, and the internal traffic
// must all still be there afterwards.
TEST(MailboxTest, WildcardTakesInterleaveWithDeepQueues) {
  PayloadPool pool;
  Mailbox mb(0, pool);
  const util::TimePoint now = util::Clock::now();
  constexpr int kNoise = 10'000;
  for (int i = 0; i < kNoise; ++i) mb.deposit(9, -5, {}, now);

  constexpr int kProducers = 4;
  constexpr std::uint32_t kPerProducer = 1'500;
  std::vector<std::thread> producers;
  for (int s = 0; s < kProducers; ++s) {
    producers.emplace_back([&mb, s] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        std::vector<std::byte> payload(8);
        std::memcpy(payload.data(), &s, 4);
        std::memcpy(payload.data() + 4, &i, 4);
        mb.deposit(s, /*tag=*/1, std::move(payload), util::Clock::now());
      }
    });
  }
  std::vector<std::uint32_t> next_from(kProducers, 0);
  std::vector<std::byte> buf(8);
  for (std::uint32_t i = 0; i < kProducers * kPerProducer; ++i) {
    const RecvResult r =
        mb.take(kAnySource, kAnyTag, buf, std::chrono::seconds(60));
    ASSERT_GE(r.tag, 0) << "wildcard surfaced internal traffic";
    int s = -1;
    std::uint32_t seq = 0;
    std::memcpy(&s, buf.data(), 4);
    std::memcpy(&seq, buf.data() + 4, 4);
    ASSERT_EQ(s, r.source);
    ASSERT_LT(s, kProducers);
    ASSERT_EQ(seq, next_from[static_cast<std::size_t>(s)]++)
        << "overtaking on channel " << s;
  }
  for (auto& t : producers) t.join();
  // The internal traffic survives, delivered only when named explicitly.
  for (int i = 0; i < kNoise; ++i) {
    ASSERT_EQ(mb.take(9, -5, buf, std::chrono::seconds(10)).tag, -5);
  }
}

// -- SimFabric-specific: the latency model ----------------------------------

TEST(SimFabric, ConstructorRejectsZeroNodes) {
  EXPECT_THROW(SimFabric(0), std::invalid_argument);
  EXPECT_THROW(TcpFabric(0, 0), std::invalid_argument);
}

// The send side enforces Fabric::kMaxMessageBytes on every fabric.  A
// read-only MAP_NORESERVE mapping one byte over the limit is a valid
// span that commits no memory.
TEST(SimFabric, SendRejectsPayloadsOverTheLimit) {
  SimFabric f(2);
  const std::size_t n = Fabric::kMaxMessageBytes + 1;
  void* p = ::mmap(nullptr, n, PROT_READ,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(p, MAP_FAILED);
  EXPECT_THROW(f.send(0, 1, 3, {static_cast<const std::byte*>(p), n}),
               std::length_error);
  ::munmap(p, n);
}

// Every message between hosted ranks lands in a vector from the fabric's
// payload pool; steady-state traffic must show reuse.
TEST(SimFabric, PayloadsAreRecycled) {
  SimFabric f(2);
  const std::vector<std::byte> payload(1024, std::byte{0x07});
  std::vector<std::byte> buf(1024);
  for (int i = 0; i < 8; ++i) {
    f.send(0, 1, 5, payload);
    const RecvResult r = f.recv(1, 0, 5, buf);
    EXPECT_EQ(r.bytes, payload.size());
    EXPECT_EQ(buf, payload);
  }
  EXPECT_GT(f.recv_pool_reuses(), 0u);
}

// The hosted ranks share one pool: a payload spent at rank 1 serves the
// next message to rank 2.  With a freelist per mailbox, paper-fig8's 16
// ranks each pinned their own.
TEST(SimFabric, HostedRanksShareOnePayloadPool) {
  SimFabric f(3);
  const std::vector<std::byte> payload(1024, std::byte{0x07});
  std::vector<std::byte> buf(1024);
  f.send(0, 1, 5, payload);
  EXPECT_EQ(f.recv(1, 0, 5, buf).bytes, payload.size());
  f.send(0, 2, 5, payload);
  EXPECT_EQ(f.recv(2, 0, 5, buf).bytes, payload.size());
  EXPECT_EQ(f.recv_pool_reuses(), 1u);
}

TEST(SimFabric, FifoSurvivesSizeVariation) {
  // A large (slow) message followed by a tiny one must still deliver in
  // order on the same channel (MPI non-overtaking).
  SimFabric f(2, util::LatencyModel::of(0, 10));  // 10 MiB/s
  std::vector<std::byte> big(512 * 1024, std::byte{1});
  f.send(0, 1, 1, big);
  f.send(0, 1, 1, bytes_of("\x02"));
  std::vector<std::byte> buf(512 * 1024);
  RecvResult r = f.recv(1, 0, 1, buf);
  EXPECT_EQ(r.bytes, big.size());
  r = f.recv(1, 0, 1, buf);
  EXPECT_EQ(r.bytes, 1u);
  EXPECT_EQ(buf[0], std::byte{2});
}

TEST(SimFabric, LatencyDelaysDelivery) {
  SimFabric f(2, util::LatencyModel::of(50000, 0));  // 50 ms per message
  util::Stopwatch sw;
  f.send(0, 1, 1, bytes_of("x"));
  // Sender returns immediately (buffered send).
  EXPECT_LT(sw.elapsed_seconds(), 0.04);
  std::vector<std::byte> buf(4);
  f.recv(1, 0, 1, buf);
  EXPECT_GE(sw.elapsed_seconds(), 0.045);
}

TEST(SimFabric, SelfSendIsFree) {
  SimFabric f(2, util::LatencyModel::of(100000, 0));  // 100 ms per message
  util::Stopwatch sw;
  f.send(0, 0, 1, bytes_of("x"));
  std::vector<std::byte> buf(4);
  f.recv(0, 0, 1, buf);
  EXPECT_LT(sw.elapsed_seconds(), 0.05);
}

TEST(SimFabric, ProbeSeesOnlyDeliveredMessages) {
  SimFabric f(2, util::LatencyModel::of(60000, 0));
  EXPECT_FALSE(f.probe(1, 0, 1));
  f.send(0, 1, 1, bytes_of("x"));
  EXPECT_FALSE(f.probe(1, 0, 1));  // still in flight
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(f.probe(1, 0, 1));
}

}  // namespace
}  // namespace fg::comm
