// The simulation backend ("stdio" on the command line, a name kept for
// compatibility): NativeDisk's pread/pwrite path behind a per-disk
// spindle mutex, with an optional latency model charged while the mutex
// is held.  This is the backend the paper's numbers are reproduced on —
// one outstanding operation per disk, seek + transfer costs,
// deterministic busy-time accounting.
#pragma once

#include "pdm/native_disk.hpp"

#include <mutex>

namespace fg::pdm {

class SpindleDisk final : public NativeDisk {
 public:
  explicit SpindleDisk(std::filesystem::path dir,
                       util::LatencyModel model = util::LatencyModel::free());
  ~SpindleDisk() override;

  DiskBackend backend() const noexcept override { return DiskBackend::kStdio; }

  void set_seek_aware(bool on) override;

 protected:
  std::size_t read_once(const File& f, std::uint64_t offset,
                        std::span<std::byte> out) override;
  std::size_t write_once(const File& f, std::uint64_t offset,
                         std::span<const std::byte> data) override;
  void sync_once(const File& f) override;
  void closing(const File& f) override;

 private:
  void charge_locked(const File& f, std::uint64_t offset, std::size_t bytes);

  /// The spindle: held for the duration of every physical operation so a
  /// node's disk services one request at a time, like one arm.
  std::mutex spindle_mutex_;
  /// Seek-model head position, keyed by File::open_id — never by fd,
  /// which the kernel reuses across close/reopen.
  std::uint64_t head_open_id_{0};  ///< 0 = head position unknown
  std::uint64_t head_end_{0};
};

}  // namespace fg::pdm
