// The hardware backend: fd-based positioned pread/pwrite, and the only
// synchronous file path (SpindleDisk and UringDisk build on it).  No
// spindle mutex — the kernel serializes positioned I/O on one fd, so
// concurrent stages issue transfers directly and the drive (or page
// cache) sets the pace.  Optional O_DIRECT bypasses the page cache
// entirely; it requires 4096-byte-aligned offsets, lengths, and buffers,
// and the backend rejects misaligned requests up front with
// std::invalid_argument rather than letting the kernel EINVAL surface as
// a mystery mid-run.
#pragma once

#include "pdm/disk.hpp"

namespace fg::pdm {

struct NativeDiskOptions {
  /// Open files with O_DIRECT.  All offsets, lengths, and buffer
  /// addresses must then be multiples of kDirectAlign.
  bool direct{false};
};

class NativeDisk : public Disk {
 public:
  /// Alignment O_DIRECT requires of offsets, lengths, and buffers.
  static constexpr std::size_t kDirectAlign = 4096;

  explicit NativeDisk(std::filesystem::path dir, NativeDiskOptions opts = {});
  ~NativeDisk() override;

  DiskBackend backend() const noexcept override { return DiskBackend::kNative; }

  bool direct() const noexcept { return opts_.direct; }

 protected:
  int create_once(const std::filesystem::path& path) override;
  int open_once(const std::filesystem::path& path) override;
  std::size_t read_once(const File& f, std::uint64_t offset,
                        std::span<std::byte> out) override;
  std::size_t write_once(const File& f, std::uint64_t offset,
                         std::span<const std::byte> data) override;
  std::uint64_t size_once(const File& f) const override;
  void sync_once(const File& f) override;

  void check_aligned(const char* what, const std::string& name,
                     std::uint64_t offset, std::size_t bytes,
                     const void* buf) const;

 private:
  int open_path(const std::filesystem::path& path, int extra_flags) const;

  NativeDiskOptions opts_;
};

}  // namespace fg::pdm
