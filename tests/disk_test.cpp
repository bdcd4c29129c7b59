// Tests for the PDM storage substrate.
//
// The core of this file is a conformance suite parameterized over all
// three Disk backends (stdio, native, and io_uring), mirroring
// fabric_test's backend pattern: every behavior the base class owns —
// positioned I/O, handle validation, stats, fault injection, retry
// absorption, the async request path — must be observably identical no
// matter what sits underneath.  The uring rows skip (not fail) on
// systems without io_uring.  Backend-specific behavior (the stdio
// latency model and spindle, O_DIRECT alignment, the ring's registered
// resources) gets its own suites below, followed by Workspace lifecycle
// and StripeLayout arithmetic.
#include "pdm/aio.hpp"
#include "pdm/disk.hpp"
#include "pdm/native_disk.hpp"
#include "pdm/striping.hpp"
#include "pdm/uring_disk.hpp"
#include "pdm/workspace.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

namespace fg::pdm {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

std::vector<std::byte> pattern_bytes(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + static_cast<std::size_t>(seed)) &
                                  0xff);
  }
  return v;
}

// -- Backend registry ---------------------------------------------------------

TEST(DiskBackendTest, ParseRoundTrips) {
  EXPECT_EQ(parse_disk_backend("stdio"), DiskBackend::kStdio);
  EXPECT_EQ(parse_disk_backend("native"), DiskBackend::kNative);
  EXPECT_EQ(parse_disk_backend("uring"), DiskBackend::kUring);
  EXPECT_STREQ(to_string(DiskBackend::kStdio), "stdio");
  EXPECT_STREQ(to_string(DiskBackend::kNative), "native");
  EXPECT_STREQ(to_string(DiskBackend::kUring), "uring");
  EXPECT_THROW(parse_disk_backend("mmap"), std::invalid_argument);
}

TEST(DiskBackendTest, FactoryBuildsTheRequestedBackend) {
  Workspace ws(1);
  auto stdio = make_disk(DiskBackend::kStdio, ws.root() / "s");
  auto native = make_disk(DiskBackend::kNative, ws.root() / "n");
  EXPECT_EQ(stdio->backend(), DiskBackend::kStdio);
  EXPECT_EQ(native->backend(), DiskBackend::kNative);
  EXPECT_STREQ(native->backend_name(), "native");
}

// make_disk(kUring) is the soft path: the real backend where the probe
// succeeds, NativeDisk (with a logged warning) where it doesn't — never
// a throw.  Workspace::backend() reports whichever was actually built.
TEST(DiskBackendTest, UringFactoryFallsBackWhenUnavailable) {
  Workspace ws(1, util::LatencyModel::free(), DiskBackend::kUring);
  if (UringDisk::available()) {
    EXPECT_EQ(ws.backend(), DiskBackend::kUring);
    EXPECT_STREQ(ws.disk(0).backend_name(), "uring");
  } else {
    EXPECT_EQ(ws.backend(), DiskBackend::kNative);
    EXPECT_STREQ(ws.disk(0).backend_name(), "native");
  }
  File f = ws.disk(0).create("either");
  ws.disk(0).write(f, 0, bytes_of("works"));
  std::vector<std::byte> buf(5);
  EXPECT_EQ(ws.disk(0).read(f, 0, buf), 5u);
}

TEST(DiskBackendTest, DirectRequiresNative) {
  Workspace ws(1);
  EXPECT_THROW(
      make_disk(DiskBackend::kStdio, ws.root() / "d", util::LatencyModel::free(),
                /*direct=*/true),
      std::invalid_argument);
}

// -- Conformance suite: all three backends -----------------------------------

class DiskConformance : public ::testing::TestWithParam<const char*> {
 protected:
  // The Workspace is built in SetUp (not the constructor) so the uring
  // rows can skip cleanly on systems without io_uring.
  void SetUp() override {
    const DiskBackend backend = parse_disk_backend(GetParam());
    if (backend == DiskBackend::kUring && !UringDisk::available()) {
      GTEST_SKIP() << "io_uring unavailable on this system";
    }
    ws_.emplace(1, util::LatencyModel::free(), backend);
  }
  Disk& disk() { return ws_->disk(0); }
  std::optional<Workspace> ws_;
};

INSTANTIATE_TEST_SUITE_P(Backends, DiskConformance,
                         ::testing::Values("stdio", "native", "uring"),
                         [](const auto& info) { return std::string(info.param); });

TEST_P(DiskConformance, CreateWriteReadRoundTrip) {
  File f = disk().create("a");
  disk().write(f, 0, bytes_of("hello world"));
  std::vector<std::byte> buf(11);
  EXPECT_EQ(disk().read(f, 0, buf), 11u);
  EXPECT_EQ(std::memcmp(buf.data(), "hello world", 11), 0);
}

TEST_P(DiskConformance, PositionedAccess) {
  File f = disk().create("a");
  disk().write(f, 100, bytes_of("xyz"));
  std::vector<std::byte> buf(2);
  EXPECT_EQ(disk().read(f, 101, buf), 2u);
  EXPECT_EQ(std::memcmp(buf.data(), "yz", 2), 0);
  EXPECT_EQ(disk().size(f), 103u);
}

TEST_P(DiskConformance, ShortReadAtEof) {
  File f = disk().create("a");
  disk().write(f, 0, bytes_of("abc"));
  std::vector<std::byte> buf(10);
  EXPECT_EQ(disk().read(f, 0, buf), 3u);
  EXPECT_EQ(disk().read(f, 3, buf), 0u);
}

// Regression (satellite): callers that plan their accesses from known
// file sizes used to call read() and drop the count, silently processing
// stale buffer contents when the file was shorter than the plan assumed.
// read_exact turns that into a named error carrying the coordinates.
TEST_P(DiskConformance, ReadExactSurfacesPastEofShortRead) {
  File f = disk().create("trunc");
  disk().write(f, 0, bytes_of("abc"));
  std::vector<std::byte> buf(10);
  try {
    disk().read_exact(f, 0, buf);
    FAIL() << "expected ShortReadError";
  } catch (const ShortReadError& e) {
    EXPECT_EQ(e.file(), "trunc");
    EXPECT_EQ(e.offset(), 0u);
    EXPECT_EQ(e.requested(), 10u);
    EXPECT_EQ(e.got(), 3u);
    EXPECT_NE(std::string(e.what()).find("past EOF"), std::string::npos);
  }
}

TEST_P(DiskConformance, ReadExactIsQuietWhenSatisfied) {
  File f = disk().create("full");
  const auto data = pattern_bytes(512, 17);
  disk().write(f, 0, data);
  std::vector<std::byte> buf(512);
  disk().read_exact(f, 0, buf);  // no throw
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 512), 0);
}

TEST_P(DiskConformance, PersistsAcrossReopen) {
  {
    File f = disk().create("persist");
    disk().write(f, 0, bytes_of("data"));
  }
  EXPECT_TRUE(disk().exists("persist"));
  File f = disk().open("persist");
  std::vector<std::byte> buf(4);
  EXPECT_EQ(disk().read(f, 0, buf), 4u);
  EXPECT_EQ(std::memcmp(buf.data(), "data", 4), 0);
}

TEST_P(DiskConformance, OpenMissingThrows) {
  EXPECT_THROW(disk().open("nope"), std::runtime_error);
  EXPECT_FALSE(disk().exists("nope"));
}

TEST_P(DiskConformance, RemoveDeletesFile) {
  { File f = disk().create("gone"); }
  EXPECT_TRUE(disk().exists("gone"));
  disk().remove("gone");
  EXPECT_FALSE(disk().exists("gone"));
}

TEST_P(DiskConformance, CreateTruncatesExisting) {
  {
    File f = disk().create("t");
    disk().write(f, 0, bytes_of("long content"));
  }
  File f = disk().create("t");
  EXPECT_EQ(disk().size(f), 0u);
}

TEST_P(DiskConformance, ClosedFileRejected) {
  File f;
  EXPECT_FALSE(f.is_open());
  std::vector<std::byte> buf(1);
  EXPECT_THROW(disk().read(f, 0, buf), std::logic_error);
  EXPECT_THROW(disk().write(f, 0, buf), std::logic_error);
  EXPECT_THROW(disk().size(f), std::logic_error);
  EXPECT_THROW(disk().sync(f), std::logic_error);
}

TEST_P(DiskConformance, CloseIsCheckedAndIdempotent) {
  File f = disk().create("c");
  disk().write(f, 0, bytes_of("x"));
  disk().close(f);
  EXPECT_FALSE(f.is_open());
  disk().close(f);  // no-op on an already-closed handle
}

TEST_P(DiskConformance, SyncFlushesWithoutError) {
  File f = disk().create("sync");
  disk().write(f, 0, bytes_of("durable"));
  disk().sync(f);
  EXPECT_EQ(disk().size(f), 7u);
}

TEST_P(DiskConformance, MoveTransfersOwnership) {
  File a = disk().create("m");
  File b = std::move(a);
  EXPECT_FALSE(a.is_open());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.is_open());
  disk().write(b, 0, bytes_of("ok"));
}

TEST_P(DiskConformance, StatsCountOperations) {
  File f = disk().create("s");
  disk().write(f, 0, bytes_of("12345678"));
  std::vector<std::byte> buf(8);
  disk().read(f, 0, buf);
  disk().read(f, 4, buf);
  const IoStats st = disk().stats();
  EXPECT_EQ(st.write_ops, 1u);
  EXPECT_EQ(st.bytes_written, 8u);
  EXPECT_EQ(st.read_ops, 2u);
  EXPECT_EQ(st.bytes_read, 12u);
  disk().reset_stats();
  EXPECT_EQ(disk().stats().read_ops, 0u);
}

TEST_P(DiskConformance, ConcurrentAccessKeepsDataIntact) {
  File f = disk().create("c");
  disk().write(f, 0, std::vector<std::byte>(4096));
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte> buf(64);
      for (int i = 0; i < 50; ++i) {
        const std::uint64_t off =
            static_cast<std::uint64_t>((t * 50 + i) % 60) * 64;
        try {
          disk().write(f, off, buf);
          disk().read(f, off, buf);
        } catch (...) {
          ++errors;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
}

// -- fault injection and retries: identical on both backends ------------------

TEST_P(DiskConformance, RetryAbsorbsInjectedTransientReads) {
  fault::Injector inj(7);
  inj.arm(fault::kDiskReadError, fault::Rule::every_nth(2, 3));
  disk().set_fault_injector(&inj, 0);
  disk().set_retry_policy(util::RetryPolicy::standard(4, 7));
  File f = disk().create("r");
  const auto data = pattern_bytes(4096, 1);
  disk().write(f, 0, data);
  std::vector<std::byte> buf(4096);
  for (int i = 0; i < 8; ++i) {
    buf.assign(buf.size(), std::byte{0});
    ASSERT_EQ(disk().read(f, 0, buf), 4096u);
    ASSERT_EQ(std::memcmp(buf.data(), data.data(), 4096), 0);
  }
  const util::RetryStats rs = disk().retry_stats();
  EXPECT_GE(rs.retries, 3u);
  EXPECT_GE(rs.absorbed, 1u);
  EXPECT_EQ(rs.exhausted, 0u);
}

TEST_P(DiskConformance, InjectedShortTransfersAreCompleted) {
  fault::Injector inj(3);
  inj.arm(fault::kDiskReadShort, fault::Rule::every_nth(1, 1));
  inj.arm(fault::kDiskWriteShort, fault::Rule::every_nth(1, 1));
  disk().set_fault_injector(&inj, 0);
  File f = disk().create("short");
  const auto data = pattern_bytes(1024, 2);
  disk().write(f, 0, data);  // first write truncated, then completed
  std::vector<std::byte> buf(1024);
  EXPECT_EQ(disk().read(f, 0, buf), 1024u);  // same for the read
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 1024), 0);
  EXPECT_GE(disk().retry_stats().retries, 2u);
}

TEST_P(DiskConformance, PermanentFaultExhaustsRetries) {
  fault::Injector inj(5);
  inj.arm(fault::kDiskWriteError, fault::Rule::always_after(0));
  disk().set_fault_injector(&inj, 0);
  disk().set_retry_policy(util::RetryPolicy::standard(3, 5));
  File f = disk().create("doom");
  EXPECT_THROW(disk().write(f, 0, bytes_of("x")), fault::TransientError);
  EXPECT_EQ(disk().retry_stats().exhausted, 1u);
}

// Regression (satellite): Disk::size used to ignore the flush step's
// failure and happily report a stale size.  A failed flush must throw.
TEST_P(DiskConformance, FlushFailureSurfacesInSize) {
  fault::Injector inj(1);
  inj.arm(fault::kDiskFlushError, fault::Rule::one_shot(1));
  disk().set_fault_injector(&inj, 0);
  File f = disk().create("stale");
  disk().write(f, 0, bytes_of("data"));
  EXPECT_THROW(disk().size(f), std::runtime_error);
  EXPECT_EQ(disk().size(f), 4u);  // one-shot: the next flush succeeds
}

TEST_P(DiskConformance, FlushFailureSurfacesInSync) {
  fault::Injector inj(2);
  inj.arm(fault::kDiskFlushError, fault::Rule::one_shot(1));
  disk().set_fault_injector(&inj, 0);
  File f = disk().create("unsynced");
  disk().write(f, 0, bytes_of("data"));
  EXPECT_THROW(disk().sync(f), std::runtime_error);
  disk().sync(f);
}

// -- async request path -------------------------------------------------------

TEST_P(DiskConformance, AsyncRoundTrip) {
  File f = disk().create("async");
  const auto data = pattern_bytes(8192, 3);
  IoHandle w = disk().write_async(f, 0, data);
  EXPECT_EQ(w.wait(), 8192u);
  std::vector<std::byte> buf(8192);
  IoHandle r = disk().read_async(f, 0, buf);
  EXPECT_EQ(r.wait(), 8192u);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 8192), 0);
  EXPECT_EQ(disk().io_queue_depth(), 0u);
}

TEST_P(DiskConformance, AsyncSingleWorkerCompletesInSubmissionOrder) {
  disk().set_io_workers(1);
  File f = disk().create("fifo");
  const auto a = pattern_bytes(1024, 4);
  const auto b = pattern_bytes(1024, 5);
  IoHandle w1 = disk().write_async(f, 0, a);
  IoHandle w2 = disk().write_async(f, 1024, b);
  std::vector<std::byte> buf(2048);
  IoHandle r = disk().read_async(f, 0, buf);
  // One worker serves the queue FIFO, so by the time the read completes
  // both earlier writes must have completed too — and be visible.
  EXPECT_EQ(r.wait(), 2048u);
  EXPECT_TRUE(w1.done());
  EXPECT_TRUE(w2.done());
  EXPECT_EQ(w1.wait(), 1024u);
  EXPECT_EQ(w2.wait(), 1024u);
  EXPECT_EQ(std::memcmp(buf.data(), a.data(), 1024), 0);
  EXPECT_EQ(std::memcmp(buf.data() + 1024, b.data(), 1024), 0);
}

TEST_P(DiskConformance, AsyncErrorRethrownOnWait) {
  fault::Injector inj(9);
  inj.arm(fault::kDiskWriteError, fault::Rule::always_after(0));
  disk().set_fault_injector(&inj, 0);
  File f = disk().create("asyncerr");
  const auto data = pattern_bytes(256, 6);
  IoHandle h = disk().write_async(f, 0, data);
  EXPECT_THROW(h.wait(), fault::TransientError);
}

TEST_P(DiskConformance, AsyncRetriesApplyLikeSync) {
  fault::Injector inj(11);
  inj.arm(fault::kDiskReadError, fault::Rule::one_shot(1));
  disk().set_fault_injector(&inj, 0);
  disk().set_retry_policy(util::RetryPolicy::standard(4, 11));
  File f = disk().create("asyncretry");
  const auto data = pattern_bytes(512, 7);
  disk().write(f, 0, data);
  std::vector<std::byte> buf(512);
  IoHandle h = disk().read_async(f, 0, buf);
  EXPECT_EQ(h.wait(), 512u);  // the transient was absorbed on the worker
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 512), 0);
  EXPECT_GE(disk().retry_stats().absorbed, 1u);
}

TEST_P(DiskConformance, EmptyHandleRejectsWait) {
  IoHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.done());
  EXPECT_THROW(h.wait(), std::logic_error);
}

// -- read-ahead / write-behind ------------------------------------------------

TEST_P(DiskConformance, ReadAheadDeliversThePlannedStream) {
  File f = disk().create("ra");
  const std::size_t kRound = 1024;
  const int kRounds = 7;
  std::vector<std::byte> all;
  for (int r = 0; r < kRounds; ++r) {
    const auto chunk = pattern_bytes(kRound, r);
    disk().write(f, static_cast<std::uint64_t>(r) * kRound, chunk);
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  ReadAhead ra(disk(), f, kRound,
               [&](std::uint64_t round, std::uint64_t* offset,
                   std::size_t* bytes) {
                 if (round >= static_cast<std::uint64_t>(kRounds)) return false;
                 *offset = round * kRound;
                 *bytes = kRound;
                 return true;
               });
  std::vector<std::byte> buf(kRound);
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_EQ(ra.next(buf), kRound) << "round " << r;
    ASSERT_EQ(std::memcmp(buf.data(), all.data() + r * kRound, kRound), 0)
        << "round " << r;
  }
  EXPECT_EQ(ra.next(buf), 0u);  // exhausted
  EXPECT_EQ(ra.next(buf), 0u);  // stays exhausted
}

// Regression (satellite): a plan that runs past EOF used to hand the
// consumer a short round whose count it typically ignored.  The prefetch
// pipeline now surfaces it as ShortReadError at the round that broke.
TEST_P(DiskConformance, ReadAheadSurfacesShortPlannedRead) {
  File f = disk().create("rashort");
  const std::size_t kRound = 1024;
  disk().write(f, 0, pattern_bytes(kRound + kRound / 2, 11));  // 1.5 rounds
  ReadAhead ra(disk(), f, kRound,
               [&](std::uint64_t round, std::uint64_t* offset,
                   std::size_t* bytes) {
                 if (round >= 2) return false;  // plan claims 2 full rounds
                 *offset = round * kRound;
                 *bytes = kRound;
                 return true;
               });
  std::vector<std::byte> buf(kRound);
  ASSERT_EQ(ra.next(buf), kRound);  // round 0 is whole
  try {
    ra.next(buf);
    FAIL() << "expected ShortReadError";
  } catch (const ShortReadError& e) {
    EXPECT_EQ(e.offset(), kRound);
    EXPECT_EQ(e.requested(), kRound);
    EXPECT_EQ(e.got(), kRound / 2);
  }
}

TEST_P(DiskConformance, WriteBehindLandsEveryPiece) {
  File f = disk().create("wb");
  const std::size_t kSlot = 4096;
  WriteBehind wb(disk(), f, kSlot);
  std::vector<std::byte> expect(3 * kSlot);
  for (int r = 0; r < 3; ++r) {
    auto slot = wb.stage();
    const auto data = pattern_bytes(kSlot, 100 + r);
    std::memcpy(slot.data(), data.data(), kSlot);
    // Two pieces per round, written out of order within the slot.
    wb.submit({WriteBehind::Piece{static_cast<std::uint64_t>(r) * kSlot +
                                      kSlot / 2,
                                  kSlot / 2, kSlot / 2},
               WriteBehind::Piece{static_cast<std::uint64_t>(r) * kSlot, 0,
                                  kSlot / 2}});
    std::memcpy(expect.data() + r * kSlot, data.data(), kSlot);
  }
  wb.drain();
  std::vector<std::byte> buf(3 * kSlot);
  EXPECT_EQ(disk().read(f, 0, buf), 3 * kSlot);
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), buf.size()), 0);
}

TEST_P(DiskConformance, WriteBehindDrainReportsFailure) {
  fault::Injector inj(13);
  inj.arm(fault::kDiskWriteError, fault::Rule::always_after(0));
  disk().set_fault_injector(&inj, 0);
  File f = disk().create("wberr");
  WriteBehind wb(disk(), f, 256);
  auto slot = wb.stage();
  std::memset(slot.data(), 0x5a, slot.size());
  wb.submit({WriteBehind::Piece{0, 0, 256}});
  EXPECT_THROW(wb.drain(), fault::TransientError);
}

// -- stdio backend: latency model and spindle ---------------------------------

TEST(DiskLatency, BusyTimeAccumulates) {
  Workspace ws(1, util::LatencyModel::of(5000, 0));  // 5 ms per op
  Disk& d = ws.disk(0);
  File f = d.create("lat");
  util::Stopwatch sw;
  d.write(f, 0, bytes_of("x"));
  d.write(f, 1, bytes_of("y"));
  EXPECT_GE(sw.elapsed_seconds(), 0.009);
  EXPECT_GE(util::to_seconds(d.stats().busy), 0.009);
}

TEST(DiskLatency, ModelSwappable) {
  Workspace ws(1, util::LatencyModel::of(50000, 0));
  ws.set_disk_model(util::LatencyModel::free());
  Disk& d = ws.disk(0);
  File f = d.create("fast");
  util::Stopwatch sw;
  d.write(f, 0, bytes_of("x"));
  EXPECT_LT(sw.elapsed_seconds(), 0.02);
}

TEST(DiskLatency, NativeBackendIgnoresTheModel) {
  Workspace ws(1, util::LatencyModel::of(50000, 0), DiskBackend::kNative);
  Disk& d = ws.disk(0);
  File f = d.create("raw");
  util::Stopwatch sw;
  for (int i = 0; i < 4; ++i) d.write(f, 0, bytes_of("x"));
  EXPECT_LT(sw.elapsed_seconds(), 0.05);  // 4 ops would cost 200 ms modeled
  EXPECT_EQ(util::to_seconds(d.stats().busy), 0.0);
}

TEST(DiskLatency, SeekAwareSequentialSkipsSetup) {
  Workspace ws(1, util::LatencyModel::of(10000, 0));  // pure 10 ms "seek"
  Disk& d = ws.disk(0);
  d.set_seek_aware(true);
  File f = d.create("seq");
  util::Stopwatch sw;
  // First write seeks; the next three continue where it left off.
  for (int i = 0; i < 4; ++i) {
    d.write(f, static_cast<std::uint64_t>(i) * 8, bytes_of("12345678"));
  }
  const double seq = sw.elapsed_seconds();
  EXPECT_LT(seq, 0.025);  // ~1 seek, not 4

  // Now jump around: every op seeks.
  sw.restart();
  for (int i = 0; i < 4; ++i) {
    d.write(f, static_cast<std::uint64_t>((i * 7) % 5) * 64, bytes_of("x"));
  }
  EXPECT_GE(sw.elapsed_seconds(), 0.035);
}

TEST(DiskLatency, SeekAwareDetectsFileSwitch) {
  Workspace ws(1, util::LatencyModel::of(10000, 0));
  Disk& d = ws.disk(0);
  d.set_seek_aware(true);
  File a = d.create("a");
  File b = d.create("b");
  util::Stopwatch sw;
  d.write(a, 0, bytes_of("x"));  // seek
  d.write(b, 1, bytes_of("y"));  // different file: seek
  d.write(a, 1, bytes_of("z"));  // back: seek
  EXPECT_GE(sw.elapsed_seconds(), 0.027);
}

TEST(DiskLatency, SeekAwareOffByDefault) {
  Workspace ws(1, util::LatencyModel::of(10000, 0));
  Disk& d = ws.disk(0);
  EXPECT_FALSE(d.seek_aware());
  File f = d.create("f");
  util::Stopwatch sw;
  d.write(f, 0, bytes_of("ab"));
  d.write(f, 2, bytes_of("cd"));  // contiguous, but default charges setup
  EXPECT_GE(sw.elapsed_seconds(), 0.018);
}

// Contiguity must not be keyed on a handle the system reuses (an fd
// number, a FILE* address) — after dropping one file and creating
// another, a cold first access would be mischarged as contiguous.  The
// head is keyed on File::open_id, so a fresh handle always pays the
// seek, even at the old head offset.
TEST(DiskLatency, SeekAwareColdHandleAlwaysPaysTheSeek) {
  Workspace ws(1, util::LatencyModel::of(10000, 0));
  Disk& d = ws.disk(0);
  d.set_seek_aware(true);
  {
    File a = d.create("a");
    d.write(a, 0, bytes_of("12345678"));  // head at (a, 8)
  }  // dropped via destructor: its fd number is free again
  File b = d.create("b");  // open(2) hands out the lowest free fd: a's
  util::Stopwatch sw;
  d.write(b, 8, bytes_of("x"));  // offset happens to equal the old head
  EXPECT_GE(sw.elapsed_seconds(), 0.009);
}

TEST(DiskLatency, SeekAwareCloseReopenPaysTheSeek) {
  Workspace ws(1, util::LatencyModel::of(10000, 0));
  Disk& d = ws.disk(0);
  d.set_seek_aware(true);
  File f = d.create("f");
  d.write(f, 0, bytes_of("12345678"));
  d.close(f);
  File g = d.open("f");
  util::Stopwatch sw;
  d.write(g, 8, bytes_of("x"));  // continues the *file*, not the *open*
  EXPECT_GE(sw.elapsed_seconds(), 0.009);
}

// The spindle is one arm: two threads' operations on one disk queue
// behind each other instead of overlapping.
TEST(DiskLatency, SpindleServesOneOperationAtATime) {
  Workspace ws(1, util::LatencyModel::of(10000, 0));  // 10 ms per op
  Disk& d = ws.disk(0);
  File f = d.create("arm");
  util::Stopwatch sw;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&d, &f, t] {
      for (int i = 0; i < 4; ++i) {
        d.write(f, static_cast<std::uint64_t>(t * 4 + i), bytes_of("x"));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // 8 ops × 10 ms in series; two overlapping threads would take ~40 ms.
  EXPECT_GE(sw.elapsed_seconds(), 0.080);
  EXPECT_GE(util::to_seconds(d.stats().busy), 0.080);
}

// -- native backend: O_DIRECT -------------------------------------------------

class NativeDirectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fg_odirect_" + std::to_string(::getpid()));
    NativeDiskOptions opts;
    opts.direct = true;
    disk_ = std::make_unique<NativeDisk>(dir_, opts);
    try {
      file_ = disk_->create("x");
    } catch (const std::runtime_error&) {
      GTEST_SKIP() << "filesystem does not support O_DIRECT";
    }
  }
  void TearDown() override {
    file_ = File{};
    disk_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<NativeDisk> disk_;
  File file_;
};

TEST_F(NativeDirectTest, AlignedTransfersWork) {
  constexpr std::size_t kAlign = NativeDisk::kDirectAlign;
  void* raw = std::aligned_alloc(kAlign, kAlign);
  ASSERT_NE(raw, nullptr);
  auto* p = static_cast<std::byte*>(raw);
  for (std::size_t i = 0; i < kAlign; ++i) p[i] = static_cast<std::byte>(i);
  disk_->write(file_, 0, {p, kAlign});
  std::memset(p, 0, kAlign);
  EXPECT_EQ(disk_->read(file_, 0, {p, kAlign}), kAlign);
  EXPECT_EQ(p[100], static_cast<std::byte>(100));
  std::free(raw);
}

TEST_F(NativeDirectTest, MisalignedRequestsRejectedUpFront) {
  constexpr std::size_t kAlign = NativeDisk::kDirectAlign;
  void* raw = std::aligned_alloc(kAlign, 2 * kAlign);
  ASSERT_NE(raw, nullptr);
  auto* p = static_cast<std::byte*>(raw);
  // Misaligned offset, length, and buffer each fail before the syscall.
  EXPECT_THROW(disk_->write(file_, 512, {p, kAlign}), std::invalid_argument);
  EXPECT_THROW(disk_->write(file_, 0, {p, 100}), std::invalid_argument);
  EXPECT_THROW(disk_->write(file_, 0, {p + 1, kAlign}), std::invalid_argument);
  std::vector<std::byte> unaligned_len(100);
  EXPECT_THROW(disk_->read(file_, 512, {p, kAlign}), std::invalid_argument);
  EXPECT_THROW(disk_->read(file_, 0, {p, 100}), std::invalid_argument);
  std::free(raw);
}

// -- uring backend: the ring and its registered resources ---------------------

class UringDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!UringDisk::available()) {
      GTEST_SKIP() << "io_uring unavailable on this system";
    }
    ws_.emplace(1, util::LatencyModel::free(), DiskBackend::kUring);
  }
  UringDisk& disk() { return static_cast<UringDisk&>(ws_->disk(0)); }
  std::optional<Workspace> ws_;
};

TEST_F(UringDiskTest, AsyncIoRidesTheRing) {
  File f = disk().create("ring");
  const auto data = pattern_bytes(8192, 21);
  EXPECT_EQ(disk().write_async(f, 0, data).wait(), 8192u);
  std::vector<std::byte> buf(8192);
  EXPECT_EQ(disk().read_async(f, 0, buf).wait(), 8192u);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 8192), 0);
  // The transfers went through SQEs, and the create() hook registered
  // the fd into the fixed-file table, so they addressed it by slot.
  EXPECT_GT(disk().sqes_submitted(), 0u);
  EXPECT_GT(disk().fixed_file_ops(), 0u);
}

TEST_F(UringDiskTest, PinnedBuffersUseTheFixedOpcodes) {
  File f = disk().create("pin");
  constexpr std::size_t kLen = 8192;
  void* raw = std::aligned_alloc(NativeDisk::kDirectAlign, kLen);
  ASSERT_NE(raw, nullptr);
  auto* p = static_cast<std::byte*>(raw);
  ASSERT_TRUE(disk().pin_buffer({p, kLen}));
  const auto data = pattern_bytes(kLen, 22);
  std::memcpy(p, data.data(), kLen);
  EXPECT_EQ(disk().write_async(f, 0, {p, kLen}).wait(), kLen);
  std::memset(p, 0, kLen);
  EXPECT_EQ(disk().read_async(f, 0, {p, kLen}).wait(), kLen);
  EXPECT_EQ(std::memcmp(p, data.data(), kLen), 0);
  EXPECT_GT(disk().fixed_buffer_ops(), 0u);
  disk().unpin_buffer({p, kLen});
  std::free(raw);
}

TEST_F(UringDiskTest, MisalignedPinRefusedButIoStillWorks) {
  File f = disk().create("nopin");
  std::vector<std::byte> backing(4096 + 1);
  std::byte* misaligned = backing.data() + 1;
  EXPECT_FALSE(disk().pin_buffer({misaligned, 4096}));
  const auto data = pattern_bytes(4096, 23);
  std::memcpy(misaligned, data.data(), 4096);
  EXPECT_EQ(disk().write_async(f, 0, {misaligned, 4096}).wait(), 4096u);
  std::vector<std::byte> buf(4096);
  EXPECT_EQ(disk().read_async(f, 0, buf).wait(), 4096u);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 4096), 0);
}

TEST_F(UringDiskTest, ReadAheadPinsItsSlotBuffers) {
  File f = disk().create("rapin");
  const std::size_t kRound = 4096;
  for (int r = 0; r < 4; ++r) {
    disk().write(f, static_cast<std::uint64_t>(r) * kRound,
                 pattern_bytes(kRound, 30 + r));
  }
  ReadAhead ra(disk(), f, kRound,
               [&](std::uint64_t round, std::uint64_t* offset,
                   std::size_t* bytes) {
                 if (round >= 4) return false;
                 *offset = round * kRound;
                 *bytes = kRound;
                 return true;
               });
  std::vector<std::byte> buf(kRound);
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(ra.next(buf), kRound) << "round " << r;
    ASSERT_EQ(std::memcmp(buf.data(), pattern_bytes(kRound, 30 + r).data(),
                          kRound),
              0);
  }
  // The prefetch slots are page-aligned and pinned for the ReadAhead's
  // lifetime, so the planned reads ran as READ_FIXED.
  EXPECT_GT(disk().fixed_buffer_ops(), 0u);
}

// -- Workspace ----------------------------------------------------------------

TEST(WorkspaceTest, CreatesPerNodeDirs) {
  Workspace ws(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::filesystem::is_directory(ws.disk(i).dir()));
  }
  EXPECT_EQ(ws.nodes(), 3);
  EXPECT_EQ(ws.backend(), DiskBackend::kStdio);
}

TEST(WorkspaceTest, NativeBackendWorkspace) {
  Workspace ws(2, util::LatencyModel::free(), DiskBackend::kNative);
  EXPECT_EQ(ws.backend(), DiskBackend::kNative);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(ws.disk(i).backend(), DiskBackend::kNative);
  }
  File f = ws.disk(1).create("file");
  ws.disk(1).write(f, 0, bytes_of("native"));
  std::vector<std::byte> buf(6);
  EXPECT_EQ(ws.disk(1).read(f, 0, buf), 6u);
}

TEST(WorkspaceTest, CleansUpOnDestruction) {
  std::filesystem::path root;
  {
    Workspace ws(2);
    root = ws.root();
    File f = ws.disk(0).create("file");
    EXPECT_TRUE(std::filesystem::exists(root));
  }
  EXPECT_FALSE(std::filesystem::exists(root));
}

TEST(WorkspaceTest, KeepPreservesTree) {
  std::filesystem::path root;
  {
    Workspace ws(1);
    root = ws.root();
    ws.keep();
  }
  EXPECT_TRUE(std::filesystem::exists(root));
  std::filesystem::remove_all(root);
}

TEST(WorkspaceTest, UniqueRoots) {
  Workspace a(1), b(1);
  EXPECT_NE(a.root(), b.root());
}

// -- StripeLayout -------------------------------------------------------------

TEST(StripeLayoutTest, BlockArithmetic) {
  StripeLayout l(4, 16, 8);  // P=4, 16-byte records, 8 records/block
  EXPECT_EQ(l.block_bytes(), 128u);
  EXPECT_EQ(l.block_of(0), 0u);
  EXPECT_EQ(l.block_of(7), 0u);
  EXPECT_EQ(l.block_of(8), 1u);
  EXPECT_EQ(l.node_of(0), 0);
  EXPECT_EQ(l.node_of(8), 1);
  EXPECT_EQ(l.node_of(31), 3);
  EXPECT_EQ(l.node_of(32), 0);  // block 4 wraps to node 0
}

TEST(StripeLayoutTest, LocalOffsets) {
  StripeLayout l(4, 16, 8);
  // Record 32 is in block 4, node 0's second local block.
  EXPECT_EQ(l.local_byte_offset(32), 8u * 16u);
  // Record 35: 3 records into that block.
  EXPECT_EQ(l.local_byte_offset(35), 8u * 16u + 3u * 16u);
  // Record 0: start of node 0's file.
  EXPECT_EQ(l.local_byte_offset(0), 0u);
}

TEST(StripeLayoutTest, RunWithinBlock) {
  StripeLayout l(2, 16, 10);
  EXPECT_EQ(l.run_within_block(0), 10u);
  EXPECT_EQ(l.run_within_block(7), 3u);
  EXPECT_EQ(l.run_within_block(10), 10u);
}

TEST(StripeLayoutTest, NodeRecordsSumToTotal) {
  for (int p : {1, 2, 3, 5, 8}) {
    StripeLayout l(p, 16, 7);
    for (std::uint64_t total : {0ull, 1ull, 6ull, 7ull, 50ull, 699ull, 700ull}) {
      std::uint64_t sum = 0;
      for (int n = 0; n < p; ++n) sum += l.node_records(n, total);
      EXPECT_EQ(sum, total) << "P=" << p << " total=" << total;
    }
  }
}

TEST(StripeLayoutTest, NodeRecordsMatchNodeOf) {
  StripeLayout l(3, 16, 4);
  const std::uint64_t total = 101;
  std::vector<std::uint64_t> count(3, 0);
  for (std::uint64_t g = 0; g < total; ++g) {
    ++count[static_cast<std::size_t>(l.node_of(g))];
  }
  for (int n = 0; n < 3; ++n) {
    EXPECT_EQ(l.node_records(n, total), count[static_cast<std::size_t>(n)]);
  }
}

TEST(StripeLayoutTest, InvalidParamsRejected) {
  EXPECT_THROW(StripeLayout(0, 16, 4), std::invalid_argument);
  EXPECT_THROW(StripeLayout(2, 0, 4), std::invalid_argument);
  EXPECT_THROW(StripeLayout(2, 16, 0), std::invalid_argument);
}

}  // namespace
}  // namespace fg::pdm
