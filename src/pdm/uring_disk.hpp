// The io_uring backend: NativeDisk's files and synchronous path, with
// the asynchronous request path rebuilt on a real io_uring
// submission/completion ring instead of the base class's worker pool.
//
// Shape.  read_async/write_async build one operation record per request
// and drive it as a small state machine: each *attempt* consults the
// fault injector (exactly like Disk::attempt_read/attempt_write), then
// lands on the ring as an IORING_OP_READ/WRITE SQE — or the _FIXED
// variants when the file/buffer is registered.  A single reaper thread
// blocks in io_uring_enter(GETEVENTS), completes attempts from CQEs,
// resubmits partial transfers, schedules retry backoff as
// IORING_OP_TIMEOUT SQEs (no thread ever sleeps), and publishes results
// through the same IoHandle the base uses.  Fault injection, retry
// accounting, IoStats, and the write budget all behave identically to
// the thread-pool path; the conformance suite runs unchanged over this
// backend.
//
// Registered resources.  Files are registered into a sparse fixed-file
// table as they are opened (updated in place on fd reuse, cleared on
// close), so data-path SQEs address files by slot (IOSQE_FIXED_FILE)
// and skip the per-op fdget.  Buffers are registered only on request:
// pin_buffer() pins a page-aligned, caller-stable buffer so transfers
// in it use IORING_OP_{READ,WRITE}_FIXED; ReadAhead/WriteBehind pin
// their slot buffers for exactly their own lifetime.  Both tables
// degrade gracefully — a full table or failed registration just means
// plain fd/address SQEs.
//
// Availability.  io_uring may be missing (old kernel) or forbidden
// (seccomp, io_uring_disabled sysctl).  UringDisk::available() probes
// once; make_disk(kUring) falls back to NativeDisk with a warning when
// the probe fails.  Set FG_NO_URING=1 to force the fallback.
#pragma once

#include "pdm/native_disk.hpp"

#include <linux/time_types.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <unordered_map>

namespace fg::pdm {

class UringDisk : public NativeDisk {
 public:
  /// Does this system have a usable io_uring?  Probed once per process
  /// (io_uring_setup + teardown); FG_NO_URING=1 forces false.
  static bool available() noexcept;

  /// Throws std::runtime_error if the ring cannot be set up — callers
  /// who want the soft fallback go through make_disk(kUring).
  explicit UringDisk(std::filesystem::path dir, NativeDiskOptions opts = {});
  ~UringDisk() override;

  DiskBackend backend() const noexcept override { return DiskBackend::kUring; }

  IoHandle read_async(const File& f, std::uint64_t offset,
                      std::span<std::byte> out) override;
  IoHandle write_async(const File& f, std::uint64_t offset,
                       std::span<const std::byte> data) override;

  /// On this backend the knob is the in-flight submission cap rather
  /// than a thread count: at most n operations ride the ring at once,
  /// the rest wait in FIFO order (so n == 1 preserves completion ==
  /// submission order, as the conformance suite requires).
  void set_io_workers(int n) override;
  std::size_t io_queue_depth() const override;

  /// Pin a caller-owned buffer as an io_uring registered buffer:
  /// transfers that land inside it use the _FIXED opcodes.  Requires a
  /// page-aligned span and a free table slot; returns false (and the
  /// transfers just use plain SQEs) otherwise.  The memory must stay
  /// mapped until unpin_buffer — the kernel holds the pages.
  bool pin_buffer(std::span<std::byte> buf);
  void unpin_buffer(std::span<std::byte> buf) noexcept;

  // Ring observability (tests assert the ring actually carried the I/O).
  std::uint64_t sqes_submitted() const noexcept { return sqes_submitted_; }
  std::uint64_t fixed_file_ops() const noexcept { return fixed_file_ops_; }
  std::uint64_t fixed_buffer_ops() const noexcept { return fixed_buffer_ops_; }

 protected:
  /// Open hooks also register the new fd into the fixed-file table;
  /// closing() clears its slot before the fd goes away.
  int create_once(const std::filesystem::path& path) override;
  int open_once(const std::filesystem::path& path) override;
  void closing(const File& f) override;

 private:
  struct Op;

  // -- ring lifecycle ---------------------------------------------------
  void setup_ring();
  void teardown_ring() noexcept;
  void reaper_loop();

  // -- submission (any thread, serialized by sq_mutex_) ------------------
  /// Push one SQE and submit it; returns 0 or -errno.
  int push_sqe(std::uint8_t opcode, std::uint8_t flags, int fd,
               std::uint64_t off, const void* addr, std::uint32_t len,
               std::uint16_t buf_index, std::uint64_t user_data);
  void submit_wakeup() noexcept;

  // -- per-op state machine ----------------------------------------------
  IoHandle submit_op(const File& f, std::uint64_t offset, std::byte* buf,
                     std::size_t len, bool is_write);
  /// Start ops until one goes async (ring or timeout) or the chain runs
  /// dry.  `op` may complete synchronously (injected error with no
  /// retries left, submission failure); then the next pending op runs.
  void launch_chain(Op* op);
  /// One attempt: fire fault sites, then submit the transfer SQE.
  /// Returns true if the op finished synchronously.
  bool start_attempt(Op* op);
  bool submit_transfer(Op* op);
  /// Injected TransientError on this attempt: schedule backoff or give
  /// up.  Returns true if the op finished synchronously.
  bool handle_transient(Op* op);
  void process_cqe(std::uint64_t user_data, std::int32_t res);
  /// The current attempt moved all the bytes it was going to; settle
  /// stats and either finish the op or start the follow-up attempt.
  /// Returns true if the op finished synchronously.
  bool finish_attempt(Op* op);
  void complete_op(Op* op, std::size_t bytes, std::exception_ptr error);
  /// Detach the finished op from the in-flight count and return the
  /// next pending op to launch (nullptr if none).
  Op* next_after(Op* op);

  // -- registered resources ----------------------------------------------
  void register_file_fd(int fd) noexcept;
  void unregister_file_fd(int fd) noexcept;
  /// Registered-buffer slot containing [addr, addr+len), or -1.
  int buffer_slot_for(const void* addr, std::size_t len) const;

  static constexpr unsigned kRingEntries = 256;
  static constexpr unsigned kFileSlots = 64;
  static constexpr unsigned kBufferSlots = 16;

  // Ring state: written during setup, read-only afterwards (the mapped
  // head/tail words themselves are accessed through std::atomic_ref).
  int ring_fd_{-1};
  void* sq_ring_{nullptr};
  std::size_t sq_ring_bytes_{0};
  void* cq_ring_{nullptr};  // == sq_ring_ under IORING_FEAT_SINGLE_MMAP
  std::size_t cq_ring_bytes_{0};
  void* sqes_{nullptr};
  std::size_t sqes_bytes_{0};
  std::uint32_t* sq_head_{nullptr};
  std::uint32_t* sq_tail_{nullptr};
  std::uint32_t sq_mask_{0};
  std::uint32_t* sq_array_{nullptr};
  std::uint32_t* cq_head_{nullptr};
  std::uint32_t* cq_tail_{nullptr};
  std::uint32_t cq_mask_{0};
  void* cqes_{nullptr};

  mutable std::mutex sq_mutex_;  ///< SQE slots + tail are multi-producer

  mutable std::mutex op_mutex_;  ///< pending_/running_/cap_/stopping_
  std::deque<Op*> pending_;
  std::size_t running_{0};
  int cap_{2};
  bool started_{false};
  bool stopping_{false};

  std::thread reaper_;

  mutable std::mutex reg_mutex_;  ///< the two registration tables
  bool files_enabled_{false};
  bool buffers_enabled_{false};
  std::unordered_map<int, unsigned> file_slots_;  // fd -> table slot
  std::vector<unsigned> free_file_slots_;
  struct PinnedBuffer {
    const std::byte* ptr;
    std::size_t len;
    unsigned slot;
  };
  std::vector<PinnedBuffer> pinned_;
  std::vector<unsigned> free_buffer_slots_;

  std::atomic<std::uint64_t> sqes_submitted_{0};
  std::atomic<std::uint64_t> fixed_file_ops_{0};
  std::atomic<std::uint64_t> fixed_buffer_ops_{0};
};

}  // namespace fg::pdm
