// The storage substrate: one Disk per cluster node, file-backed.
//
// Disk is positioned file I/O over fds (all operations are pread/pwrite
// style, because FG stages on several threads interleave accesses to the
// same file).  It owns handle validation, fault injection, retry/backoff
// absorption of transient failures, IoStats accounting and obs trace
// spans, so every caller fails and retries the same way.  Calls are
// synchronous: overlap comes from FG's stage threads, which block in a
// transfer while the pipeline's other buffers keep the rest of it busy.
//
// Two backends, chosen at construction:
//
//  * kNative — the hardware path.  No spindle mutex: the kernel
//    serializes positioned I/O on one fd, so concurrent stages issue
//    transfers directly and the drive (or page cache) sets the pace.
//    Optional O_DIRECT bypasses the page cache; it requires
//    kDirectAlign-aligned offsets, lengths, and buffers, and misaligned
//    requests are rejected up front with std::invalid_argument rather
//    than surfacing as a kernel EINVAL mid-run.
//
//  * kStdio — the simulation backend the paper's numbers are reproduced
//    on (the name is kept for the command line).  The same transfers,
//    each one (and each sync) under a per-disk spindle mutex, so a
//    node's disk serves one request at a time like one arm, with the
//    latency model (seek + transfer cost) charged while the mutex is
//    held.
#pragma once

#include "util/budget.hpp"
#include "util/latency.hpp"
#include "util/retry.hpp"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>

namespace fg::fault {
class Injector;
}  // namespace fg::fault

namespace fg::pdm {

/// Cumulative per-disk counters.
struct IoStats {
  std::uint64_t read_ops{0};
  std::uint64_t bytes_read{0};
  std::uint64_t write_ops{0};
  std::uint64_t bytes_written{0};
  /// Modeled time this disk spent busy (latency charges; the stdio
  /// backend only — native takes exactly as long as the hardware).
  util::Duration busy{};
};

/// Which backend a Disk runs.
enum class DiskBackend {
  kStdio,   ///< "stdio": one op at a time behind a spindle mutex, with the
            ///< latency model
  kNative,  ///< fd-based pread/pwrite, kernel-serialized, no model
};

const char* to_string(DiskBackend b) noexcept;
/// "stdio" or "native"; throws std::invalid_argument naming the input
/// otherwise.
DiskBackend parse_disk_backend(const std::string& name);

/// Named error for a read that came back shorter than the caller
/// requires.  Disk::read itself legitimately returns short at EOF; the
/// callers that *assume* full reads (sort stages reading planned block
/// layouts) route through read_exact, which turns a past-EOF short read
/// into this instead of silently processing garbage.
class ShortReadError : public std::runtime_error {
 public:
  ShortReadError(const std::string& file, std::uint64_t offset,
                 std::size_t requested, std::size_t got);

  const std::string& file() const noexcept { return file_; }
  std::uint64_t offset() const noexcept { return offset_; }
  std::size_t requested() const noexcept { return requested_; }
  std::size_t got() const noexcept { return got_; }

 private:
  std::string file_;
  std::uint64_t offset_;
  std::size_t requested_;
  std::size_t got_;
};

class Disk;

/// Move-only RAII handle to an open file on a Disk: the fd, plus an id
/// unique to this open on its disk.  Disk::close is the checked close;
/// the destructor is a best-effort fallback that logs a failed close.
class File {
 public:
  File() = default;
  ~File();
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool is_open() const noexcept { return fd_ >= 0; }
  const std::string& name() const noexcept { return name_; }
  /// The open file descriptor; -1 once closed.
  int fd() const noexcept { return fd_; }
  /// Minted per open and never reused, unlike the fd number: the seek
  /// model keys its head on it.
  std::uint64_t open_id() const noexcept { return open_id_; }

 private:
  friend class Disk;
  File(int fd, std::uint64_t open_id, std::string name) noexcept
      : fd_(fd), open_id_(open_id), name_(std::move(name)) {}
  /// Close the fd exactly once; false if close(2) failed.
  bool close_fd() noexcept;

  int fd_{-1};
  std::uint64_t open_id_{0};
  std::string name_;
};

/// The result of Disk::read_async: the byte count of a read that has
/// already completed.  It exists only for fgbench's disk probe; new code
/// calls Disk::read.
class IoHandle {
 public:
  explicit IoHandle(std::size_t bytes) noexcept : bytes_(bytes) {}
  std::size_t wait() const noexcept { return bytes_; }

 private:
  std::size_t bytes_;
};

class Disk {
 public:
  /// Alignment O_DIRECT requires of offsets, lengths, and buffers.
  static constexpr std::size_t kDirectAlign = 4096;

  /// @param dir     directory backing this disk (created if absent)
  /// @param model   latency model; charged by the stdio backend only
  /// @param direct  open files with O_DIRECT (native backend only;
  ///                std::invalid_argument otherwise)
  Disk(DiskBackend backend, std::filesystem::path dir,
       util::LatencyModel model = util::LatencyModel::free(),
       bool direct = false);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  DiskBackend backend() const noexcept { return backend_; }
  const char* backend_name() const noexcept { return to_string(backend_); }

  const std::filesystem::path& dir() const noexcept { return dir_; }

  /// The latency model (the stdio backend charges it per operation;
  /// native stores but ignores it).  Dataset generation and verification
  /// run with a free model so that only the measured passes pay
  /// simulated I/O latency.
  util::LatencyModel model() const;
  void set_model(util::LatencyModel m);

  /// Seek-aware mode: the model's setup cost represents the seek, so an
  /// operation that continues exactly where the previous operation on
  /// this disk left off (same open file, next byte) pays only the
  /// transfer cost.  Off by default.  Toggling it forgets the head
  /// position.  Only the stdio backend charges the model.
  void set_seek_aware(bool on);
  bool seek_aware() const;

  /// Attach a fault injector: every operation consults the disk.* sites
  /// and translates a firing into a transient EIO, a short transfer, or
  /// a flush failure.  `node` tags this disk's operations for
  /// @node-scoped rules.  Pass nullptr to detach.  The injector must
  /// outlive the disk.
  void set_fault_injector(fault::Injector* inj, int node = -1);

  /// Node id used to tag this disk's trace spans (obs::SpanKind::kDisk*).
  /// Set once at workspace construction, before any worker thread runs.
  void set_node(int node) noexcept { node_ = node; }
  int node() const noexcept { return node_; }

  /// Attach a write-traffic quota: every write charges its byte count
  /// against the budget before touching the file and throws
  /// util::QuotaExceeded once the allowance is gone — deliberately not a
  /// TransientError, so the retry layer propagates it instead of
  /// spinning.  This is fgserve's per-job disk quota hook; charges are
  /// never released (the quota bounds cumulative write traffic, which
  /// also bounds file growth).  Pass nullptr to detach.  The budget must
  /// outlive the disk's use of it.
  void set_write_budget(util::ByteBudget* budget);

  /// How read/write respond to transient failures.  The default policy
  /// (no retries) propagates every failure, which is what logic tests
  /// want; chaos runs install util::RetryPolicy::standard().
  void set_retry_policy(util::RetryPolicy p);
  util::RetryPolicy retry_policy() const;

  /// What the retry layer absorbed since construction / reset_stats().
  util::RetryStats retry_stats() const;

  /// Create (truncate) a file for read/write.
  File create(const std::string& name);
  /// Open an existing file for read/write; throws if missing.
  File open(const std::string& name);
  bool exists(const std::string& name) const;
  void remove(const std::string& name);

  /// Close `f`, throwing if close(2) fails.  Idempotent: closing an
  /// already-closed handle is a no-op.  (The File destructor remains a
  /// best-effort fallback that logs, rather than loses, a close failure.)
  void close(File& f);

  /// Current size in bytes.
  std::uint64_t size(const File& f) const;

  /// Flush `f`'s bytes to stable storage (fdatasync); throws on failure.
  void sync(const File& f);

  /// Positioned read; returns bytes actually read (short at EOF).
  std::size_t read(const File& f, std::uint64_t offset,
                   std::span<std::byte> out);

  /// Positioned read that must be fully satisfied: a short (past-EOF)
  /// result throws ShortReadError naming the file, offset, and counts
  /// instead of returning a count the caller was going to ignore.  Use
  /// wherever the access pattern is planned from known file sizes.
  void read_exact(const File& f, std::uint64_t offset,
                  std::span<std::byte> out);

  /// Positioned write; extends the file as needed.
  void write(const File& f, std::uint64_t offset,
             std::span<const std::byte> data);

  /// read(), wrapped for fgbench's disk probe (see IoHandle).
  IoHandle read_async(const File& f, std::uint64_t offset,
                      std::span<std::byte> out) {
    return IoHandle(read(f, offset, out));
  }

  IoStats stats() const;
  void reset_stats();

 private:
  int open_path(const std::filesystem::path& path, int extra_flags) const;
  void check_aligned(const char* what, const std::string& name,
                     std::uint64_t offset, std::size_t bytes,
                     const void* buf) const;
  /// The spindle, locked on the stdio backend; an empty lock on native.
  std::unique_lock<std::mutex> spindle();
  /// Charge the model for one transfer; the spindle must be held.
  void charge_locked(const File& f, std::uint64_t offset, std::size_t bytes);
  std::size_t attempt_read(const File& f, std::uint64_t offset,
                           std::span<std::byte> out, bool* injected_short);
  std::size_t attempt_write(const File& f, std::uint64_t offset,
                            std::span<const std::byte> data,
                            bool* injected_short);
  void check_flush_fault(const char* what) const;

  const DiskBackend backend_;
  const bool direct_;
  std::filesystem::path dir_;
  std::atomic<std::uint64_t> next_open_id_{1};  ///< File::open_id source

  mutable std::mutex config_mutex_;  ///< knobs below
  util::LatencyModel model_;
  bool seek_aware_{false};
  fault::Injector* injector_{nullptr};
  int fault_node_{-1};
  util::RetryPolicy retry_policy_{};
  util::ByteBudget* write_budget_{nullptr};

  mutable std::mutex stats_mutex_;  ///< counters below
  IoStats stats_;
  util::RetryStats retry_stats_;

  int node_{0};  ///< span scope; written before threads, read-only after

  /// Held for every transfer and sync on the stdio backend, so a node's
  /// disk serves one request at a time, like one arm.
  std::mutex spindle_mutex_;
  /// Seek-model head position, keyed by File::open_id — never by fd,
  /// which the kernel reuses across close/reopen.  Guarded by
  /// spindle_mutex_ on both backends (only stdio transfers move it).
  std::uint64_t head_open_id_{0};  ///< 0 = head position unknown
  std::uint64_t head_end_{0};
};

/// Construct a Disk of the given backend; `direct` requests O_DIRECT
/// (native only — std::invalid_argument on stdio).
std::unique_ptr<Disk> make_disk(DiskBackend backend, std::filesystem::path dir,
                                util::LatencyModel model = util::LatencyModel::free(),
                                bool direct = false);

}  // namespace fg::pdm
