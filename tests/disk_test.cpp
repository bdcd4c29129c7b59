// Tests for the PDM storage substrate.
//
// The core of this file is a conformance suite parameterized over both
// Disk backends (stdio and native), mirroring fabric_test's backend
// pattern: positioned I/O, handle validation, stats, fault injection and
// retry absorption must be observably identical no matter which backend
// runs.  Backend-specific behavior (the stdio latency model and spindle,
// O_DIRECT alignment) gets its own suites below, followed by Workspace
// lifecycle and StripeLayout arithmetic.
#include "pdm/disk.hpp"
#include "pdm/striping.hpp"
#include "pdm/workspace.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
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
  EXPECT_STREQ(to_string(DiskBackend::kStdio), "stdio");
  EXPECT_STREQ(to_string(DiskBackend::kNative), "native");
  EXPECT_THROW(parse_disk_backend("mmap"), std::invalid_argument);
  EXPECT_THROW(parse_disk_backend("uring"), std::invalid_argument);
}

TEST(DiskBackendTest, FactoryBuildsTheRequestedBackend) {
  Workspace ws(1);
  auto stdio = make_disk(DiskBackend::kStdio, ws.root() / "s");
  auto native = make_disk(DiskBackend::kNative, ws.root() / "n");
  EXPECT_EQ(stdio->backend(), DiskBackend::kStdio);
  EXPECT_EQ(native->backend(), DiskBackend::kNative);
  EXPECT_STREQ(native->backend_name(), "native");
}

TEST(DiskBackendTest, DirectRequiresNative) {
  Workspace ws(1);
  EXPECT_THROW(
      make_disk(DiskBackend::kStdio, ws.root() / "d", util::LatencyModel::free(),
                /*direct=*/true),
      std::invalid_argument);
}

// -- Conformance suite: both backends -----------------------------------------

class DiskConformance : public ::testing::TestWithParam<const char*> {
 protected:
  Disk& disk() { return ws_.disk(0); }
  Workspace ws_{1, util::LatencyModel::free(),
                parse_disk_backend(GetParam())};
};

INSTANTIATE_TEST_SUITE_P(Backends, DiskConformance,
                         ::testing::Values("stdio", "native"),
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

// fgbench's disk probe calls read_async(...).wait(): the shim is the
// synchronous read, short at EOF like read().
TEST_P(DiskConformance, ReadAsyncShimIsTheSynchronousRead) {
  File f = disk().create("shim");
  const auto data = pattern_bytes(8192, 3);
  disk().write(f, 0, data);
  std::vector<std::byte> buf(8192);
  EXPECT_EQ(disk().read_async(f, 0, buf).wait(), 8192u);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 8192), 0);
  EXPECT_EQ(disk().read_async(f, 8000, buf).wait(), 192u);
  EXPECT_EQ(disk().stats().read_ops, 2u);
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
    disk_ = make_disk(DiskBackend::kNative, dir_, util::LatencyModel::free(),
                      /*direct=*/true);
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
  std::unique_ptr<Disk> disk_;
  File file_;
};

TEST_F(NativeDirectTest, AlignedTransfersWork) {
  constexpr std::size_t kAlign = Disk::kDirectAlign;
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
  constexpr std::size_t kAlign = Disk::kDirectAlign;
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
