#include "pdm/native_disk.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace fg::pdm {

namespace {

std::string errno_suffix() {
  return std::string(": ") + std::strerror(errno);
}

}  // namespace

NativeDisk::NativeDisk(std::filesystem::path dir, NativeDiskOptions opts)
    : Disk(std::move(dir)), opts_(opts) {}

NativeDisk::~NativeDisk() {
  stop_io();  // workers dispatch through our hooks; join before teardown
}

int NativeDisk::open_path(const std::filesystem::path& path,
                          int extra_flags) const {
  int flags = O_RDWR | O_CLOEXEC | extra_flags;
#ifdef O_DIRECT
  if (opts_.direct) flags |= O_DIRECT;
#else
  if (opts_.direct) {
    throw std::runtime_error(
        "fg::pdm::NativeDisk: O_DIRECT is not available on this platform");
  }
#endif
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    if (opts_.direct && errno == EINVAL) {
      throw std::runtime_error("fg::pdm::NativeDisk: cannot open " +
                               path.string() +
                               " with O_DIRECT (filesystem does not support "
                               "direct I/O)");
    }
    throw std::runtime_error("fg::pdm::NativeDisk: cannot open " +
                             path.string() + errno_suffix());
  }
  return fd;
}

int NativeDisk::create_once(const std::filesystem::path& path) {
  return open_path(path, O_CREAT | O_TRUNC);
}

int NativeDisk::open_once(const std::filesystem::path& path) {
  return open_path(path, 0);
}

void NativeDisk::check_aligned(const char* what, const std::string& name,
                               std::uint64_t offset, std::size_t bytes,
                               const void* buf) const {
  if (!opts_.direct) return;
  if (offset % kDirectAlign != 0 || bytes % kDirectAlign != 0 ||
      reinterpret_cast<std::uintptr_t>(buf) % kDirectAlign != 0) {
    throw std::invalid_argument(
        std::string("fg::pdm::NativeDisk::") + what + " on " + name +
        ": O_DIRECT requires offset, length, and buffer aligned to " +
        std::to_string(kDirectAlign) + " bytes (offset=" +
        std::to_string(offset) + ", length=" + std::to_string(bytes) + ")");
  }
}

std::size_t NativeDisk::read_once(const File& f, std::uint64_t offset,
                                  std::span<std::byte> out) {
  check_aligned("read", f.name(), offset, out.size(), out.data());
  const int fd = f.fd();
  std::size_t total = 0;
  while (total < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + total, out.size() - total,
                              static_cast<off_t>(offset + total));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("fg::pdm::NativeDisk::read: read failed on " +
                               f.name() + errno_suffix());
    }
    if (n == 0) break;  // EOF
    total += static_cast<std::size_t>(n);
  }
  return total;
}

std::size_t NativeDisk::write_once(const File& f, std::uint64_t offset,
                                   std::span<const std::byte> data) {
  check_aligned("write", f.name(), offset, data.size(), data.data());
  const int fd = f.fd();
  std::size_t total = 0;
  while (total < data.size()) {
    const ssize_t n = ::pwrite(fd, data.data() + total, data.size() - total,
                               static_cast<off_t>(offset + total));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("fg::pdm::NativeDisk::write: write failed on " +
                               f.name() + errno_suffix());
    }
    total += static_cast<std::size_t>(n);
  }
  return total;
}

std::uint64_t NativeDisk::size_once(const File& f) const {
  struct stat st;
  if (::fstat(f.fd(), &st) != 0) {
    throw std::runtime_error("fg::pdm::NativeDisk::size: fstat failed on " +
                             f.name() + errno_suffix());
  }
  return static_cast<std::uint64_t>(st.st_size);
}

void NativeDisk::sync_once(const File& f) {
  if (::fdatasync(f.fd()) != 0) {
    throw std::runtime_error("fg::pdm::NativeDisk::sync: fdatasync failed on " +
                             f.name() + errno_suffix());
  }
}

}  // namespace fg::pdm
