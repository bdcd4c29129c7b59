#include "layers.hpp"

#include "comm/shm_fabric.hpp"
#include "comm/sim_fabric.hpp"
#include "core/channel.hpp"
#include "core/queue.hpp"
#include "sort/distributions.hpp"
#include "sort/kernels.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace fgbench {
namespace {

namespace sort = fg::sort;
using fg::util::Stopwatch;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kPipelineBuffer = 256 * 1024;  // fgsort's buffer size
constexpr std::size_t kBlock = 64 * 1024;            // fgsort's striping block
constexpr std::size_t kDiskProbeBytes = 128 * 1024 * 1024;
constexpr int kMessages = 512;           // 128 MiB per p2p sample
constexpr std::uint64_t kTokens = 200'000;
constexpr std::size_t kChannelCapacity = 4;  // fgsort's buffers per pipeline

/// Keep the compiler from dropping work whose result is never read.
inline void clobber(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median over `samples` calls of `timed`, each preceded by an untimed
/// call of `prepare`, in seconds.
double median_seconds(int samples, const std::function<void()>& prepare,
                      const std::function<void()>& timed) {
  std::vector<double> t;
  for (int i = 0; i < samples; ++i) {
    prepare();
    Stopwatch sw;
    timed();
    t.push_back(sw.elapsed_seconds());
  }
  return median(std::move(t));
}

double mib_s(double bytes, double seconds) { return bytes / kMiB / seconds; }

/// One pipeline buffer of the workload's records (global records 0..n-1).
std::vector<std::byte> workload_buffer(const LayerOptions& o) {
  const std::size_t n = kPipelineBuffer / o.record_bytes;
  std::vector<std::byte> buf(n * o.record_bytes);
  for (std::size_t i = 0; i < n; ++i) {
    sort::make_record(sort::Distribution::kUniform, o.seed, i, o.records,
                      {buf.data() + i * o.record_bytes, o.record_bytes});
  }
  return buf;
}

/// P-1 evenly spaced quantiles of a 64 Ki-record sample of the dataset's
/// extended keys: the splitters dsort's oversampling converges to.
std::vector<sort::ExtKey> workload_splitters(const LayerOptions& o) {
  constexpr std::uint64_t kSample = 1 << 16;
  const std::uint64_t stride = std::max<std::uint64_t>(1, o.records / kSample);
  std::vector<sort::ExtKey> keys;
  for (std::uint64_t g = 0; g < o.records && keys.size() < kSample;
       g += stride) {
    keys.push_back({sort::key_for(sort::Distribution::kUniform, o.seed, g,
                                  o.records),
                    fg::util::mix64(g)});
  }
  std::sort(keys.begin(), keys.end());
  std::vector<sort::ExtKey> out;
  for (int i = 1; i < o.nodes; ++i) {
    out.push_back(keys[keys.size() * static_cast<std::size_t>(i) /
                       static_cast<std::size_t>(o.nodes)]);
  }
  return out;
}

double memcpy_mib_s(std::size_t bytes, int reps, int samples) {
  std::unique_ptr<std::byte[]> src(new std::byte[bytes]);
  std::unique_ptr<std::byte[]> dst(new std::byte[bytes]);
  std::memset(src.get(), 0x5a, bytes);
  std::memset(dst.get(), 0, bytes);
  const double t = median_seconds(samples, [] {}, [&] {
    for (int i = 0; i < reps; ++i) {
      std::memcpy(dst.get(), src.get(), bytes);
      clobber(dst.get());
    }
  });
  return mib_s(static_cast<double>(bytes) * reps, t);
}

template <std::size_t R>
struct Rec {
  std::byte b[R];
};

/// std::sort of the same records by the kernel's order (key, then
/// extended key), on a typed copy.
template <std::size_t R>
double std_sort_seconds(const std::vector<std::byte>& records, int samples) {
  const std::size_t n = records.size() / R;
  std::vector<Rec<R>> base(n);
  std::memcpy(base.data(), records.data(), n * R);
  std::vector<Rec<R>> work;
  return median_seconds(samples, [&] { work = base; }, [&] {
    std::sort(work.begin(), work.end(), [](const Rec<R>& a, const Rec<R>& b) {
      const std::uint64_t ka = sort::key_of(a.b);
      const std::uint64_t kb = sort::key_of(b.b);
      if (ka != kb) return ka < kb;
      return sort::ext_key_of(a.b) < sort::ext_key_of(b.b);
    });
    clobber(work.data());
  });
}

double std_sort_seconds(const std::vector<std::byte>& records,
                        std::uint32_t record_bytes, int samples) {
  switch (record_bytes) {
    case 16: return std_sort_seconds<16>(records, samples);
    case 64: return std_sort_seconds<64>(records, samples);
    default:
      throw std::invalid_argument("fgbench: no std::sort ceiling for " +
                                  std::to_string(record_bytes) +
                                  "-byte records");
  }
}

void write_full(int fd, const std::vector<std::byte>& block, off_t off) {
  if (::pwrite(fd, block.data(), block.size(), off) !=
      static_cast<ssize_t>(block.size())) {
    throw std::system_error(errno, std::generic_category(), "fgbench: pwrite");
  }
}

void read_full(int fd, std::vector<std::byte>& block, off_t off) {
  if (::pread(fd, block.data(), block.size(), off) !=
      static_cast<ssize_t>(block.size())) {
    throw std::system_error(errno, std::generic_category(), "fgbench: pread");
  }
}

int open_or_throw(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "fgbench: open " + path);
  }
  return fd;
}

struct DiskRates {
  double write{0}, read{0}, pwrite{0}, pread{0};
};

/// The same 128 MiB file written and read back in 64 KiB blocks through
/// the Disk and through raw syscalls, alternating, five times each.  Each
/// write goes to a fresh file: ext4 starts writeback of a file truncated
/// and rewritten, which would time the device instead of the page cache.
DiskRates disk_rates(const LayerOptions& o) {
  const std::filesystem::path dir = o.root / "disk";
  std::unique_ptr<fg::pdm::Disk> disk = fg::pdm::make_disk(o.disk, dir);
  const std::string raw = (dir / "raw").string();
  std::vector<std::byte> block(kBlock, std::byte{0x5a});
  const std::size_t blocks = kDiskProbeBytes / kBlock;
  std::vector<double> w, r, pw, pr;
  for (int s = 0; s < 5; ++s) {
    if (disk->exists("probe")) disk->remove("probe");
    std::filesystem::remove(raw);
    {
      Stopwatch sw;
      fg::pdm::File f = disk->create("probe");
      for (std::size_t i = 0; i < blocks; ++i) disk->write(f, i * kBlock, block);
      disk->close(f);
      w.push_back(sw.elapsed_seconds());
    }
    {
      Stopwatch sw;
      fg::pdm::File f = disk->open("probe");
      for (std::size_t i = 0; i < blocks; ++i) {
        if (disk->read_async(f, i * kBlock, block).wait() != kBlock) {
          throw std::runtime_error("fgbench: short Disk read");
        }
      }
      disk->close(f);
      r.push_back(sw.elapsed_seconds());
    }
    {
      Stopwatch sw;
      const int fd = open_or_throw(raw, O_CREAT | O_TRUNC | O_WRONLY);
      for (std::size_t i = 0; i < blocks; ++i) {
        write_full(fd, block, static_cast<off_t>(i * kBlock));
      }
      ::close(fd);
      pw.push_back(sw.elapsed_seconds());
    }
    {
      Stopwatch sw;
      const int fd = open_or_throw(raw, O_RDONLY);
      for (std::size_t i = 0; i < blocks; ++i) {
        read_full(fd, block, static_cast<off_t>(i * kBlock));
      }
      ::close(fd);
      pr.push_back(sw.elapsed_seconds());
    }
  }
  disk->remove("probe");
  std::filesystem::remove(raw);
  const double bytes = static_cast<double>(kDiskProbeBytes);
  return {mib_s(bytes, median(w)), mib_s(bytes, median(r)),
          mib_s(bytes, median(pw)), mib_s(bytes, median(pr))};
}

double hop_ns(fg::Channel& q) {
  fg::Buffer buf(64, fg::PipelineId{0}, false);
  std::thread consumer([&q] {
    while (q.pop().kind == fg::TokenKind::kBuffer) {
    }
  });
  Stopwatch sw;
  for (std::uint64_t i = 0; i < kTokens; ++i) {
    q.push(fg::Token::of_buffer(&buf));
  }
  q.push(fg::Token::caboose(0));
  consumer.join();
  return sw.elapsed_seconds() * 1e9 / static_cast<double>(kTokens);
}

/// Rank 0 of `tx` sends kMessages pipeline buffers to rank 1 of `rx`,
/// which receives them one at a time; seconds until the last arrives.
double p2p_seconds(fg::comm::Fabric& tx, fg::comm::Fabric& rx) {
  constexpr int kTag = 7;
  const std::vector<std::byte> out(kPipelineBuffer, std::byte{0x5a});
  std::vector<std::byte> in(kPipelineBuffer);
  std::exception_ptr error;
  std::thread receiver([&] {
    try {
      for (int i = 0; i < kMessages; ++i) rx.recv(1, 0, kTag, in);
    } catch (...) {
      error = std::current_exception();
    }
  });
  Stopwatch sw;
  try {
    for (int i = 0; i < kMessages; ++i) tx.send(0, 1, kTag, out);
  } catch (...) {
    rx.abort();
    receiver.join();
    throw;
  }
  receiver.join();
  if (error) std::rethrow_exception(error);
  return sw.elapsed_seconds();
}

double p2p_mib_s(bool shm) {
  std::vector<double> t;
  if (shm) {
    auto seg = fg::comm::ShmSegment::create(2);
    fg::comm::ShmFabric a(seg, 0);
    fg::comm::ShmFabric b(seg, 1);
    for (int s = 0; s < 5; ++s) t.push_back(p2p_seconds(a, b));
  } else {
    fg::comm::SimFabric f(2);
    for (int s = 0; s < 5; ++s) t.push_back(p2p_seconds(f, f));
  }
  return mib_s(static_cast<double>(kPipelineBuffer) * kMessages, median(t));
}

}  // namespace

void measure_layers(const LayerOptions& o, fg::util::JsonWriter& w) {
  const std::vector<std::byte> records = workload_buffer(o);
  const double bytes = static_cast<double>(records.size());
  std::vector<std::byte> work(records.size());
  std::vector<std::byte> scratch(records.size());
  std::vector<std::byte> out(records.size());

  w.begin_object();

  const double memcpy_small = memcpy_mib_s(kPipelineBuffer, 2000, 9);
  w.kv("memcpy_small_bytes", static_cast<std::uint64_t>(kPipelineBuffer));
  w.kv("memcpy_small_mib_s", memcpy_small);
  // Arrays of at least four times the last-level cache, so the copy runs
  // at memory bandwidth (1 GiB each where the cache size is unknown).
  const long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::size_t large =
      llc > 0 ? 4 * static_cast<std::size_t>(llc) : std::size_t{1} << 30;
  w.kv("llc_bytes", static_cast<std::uint64_t>(llc > 0 ? llc : 0));
  w.kv("memcpy_large_bytes", static_cast<std::uint64_t>(large));
  w.kv("memcpy_large_mib_s", memcpy_mib_s(large, 1, 5));

  constexpr int kSortSamples = 31;
  w.kv("std_sort_mib_s",
       mib_s(bytes, std_sort_seconds(records, o.record_bytes, kSortSamples)));
  w.kv("sort_records_mib_s",
       mib_s(bytes, median_seconds(
                        kSortSamples,
                        [&] { std::copy(records.begin(), records.end(),
                                        work.begin()); },
                        [&] {
                          sort::sort_records(work, o.record_bytes, scratch);
                          clobber(work.data());
                        })));

  const std::vector<sort::ExtKey> splitters = workload_splitters(o);
  constexpr int kReps = 20;
  w.kv("partition_records_mib_s",
       mib_s(bytes * kReps, median_seconds(kSortSamples, [] {}, [&] {
               for (int i = 0; i < kReps; ++i) {
                 sort::partition_records(records, o.record_bytes, splitters,
                                         out);
                 clobber(out.data());
               }
             })));

  // Two sorted halves of the buffer, merged into one.
  std::copy(records.begin(), records.end(), work.begin());
  const std::size_t half =
      records.size() / o.record_bytes / 2 * o.record_bytes;
  const std::span<std::byte> a(work.data(), half);
  const std::span<std::byte> b(work.data() + half, work.size() - half);
  sort::sort_records(a, o.record_bytes, scratch);
  sort::sort_records(b, o.record_bytes, scratch);
  w.kv("merge_records_mib_s",
       mib_s(bytes * kReps, median_seconds(kSortSamples, [] {}, [&] {
               for (int i = 0; i < kReps; ++i) {
                 sort::merge_records(a, b, o.record_bytes, out);
                 clobber(out.data());
               }
             })));

  std::vector<double> spsc, mpmc;
  for (int s = 0; s < 5; ++s) {
    fg::SpscChannel sq(kChannelCapacity * 4, kChannelCapacity);
    spsc.push_back(hop_ns(sq));
    fg::BufferQueue mq(kChannelCapacity);
    mpmc.push_back(hop_ns(mq));
  }
  w.kv("spsc_hop_ns", median(spsc));
  w.kv("mpmc_hop_ns", median(mpmc));

  const DiskRates d = disk_rates(o);
  w.kv("disk_block_bytes", static_cast<std::uint64_t>(kBlock));
  w.kv("disk_write_mib_s", d.write);
  w.kv("disk_read_mib_s", d.read);
  w.kv("pwrite_mib_s", d.pwrite);
  w.kv("pread_mib_s", d.pread);

  w.kv("p2p_mib_s", p2p_mib_s(o.shm));
  w.end_object();
}

}  // namespace fgbench
