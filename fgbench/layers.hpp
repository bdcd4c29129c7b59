// The per-layer probes of the traced run: the benchmark's own timed calls
// into each layer's public functions, on the workload's buffer shapes,
// next to ceilings measured in the same process.
//
//   sort  sort_records, partition_records and merge_records on one 256 KiB
//         pipeline buffer of the workload's records; std::sort of the same
//         records is the sort ceiling.
//   core  token hops through SpscChannel and BufferQueue (the MPMC queue).
//   pdm   Disk::write, and Disk::read_async then wait, at the 64 KiB
//         striping block on the workload's backend with its latency model
//         off; raw pwrite and pread on the same filesystem are the ceiling.
//   comm  one 256 KiB message at a time between two ranks of the
//         workload's fabric (SimFabric, or ShmFabric over an in-process
//         two-rank segment) with its latency model off.
//   memcpy of one 256 KiB buffer, and of arrays at least four times the
//   last-level cache, are the copy ceilings.
#pragma once

#include "pdm/disk.hpp"
#include "util/trace.hpp"

#include <cstdint>
#include <filesystem>

namespace fgbench {

struct LayerOptions {
  std::filesystem::path root;  ///< scratch directory on the workspace's filesystem
  std::uint64_t seed{1};
  int nodes{4};                ///< P; partition_records gets P-1 splitters
  std::uint64_t records{0};    ///< dataset size the records are drawn from
  std::uint32_t record_bytes{16};
  fg::pdm::DiskBackend disk{fg::pdm::DiskBackend::kNative};
  bool shm{false};
};

/// Run every probe and write one flat JSON object of rates and sizes.
void measure_layers(const LayerOptions& opt, fg::util::JsonWriter& w);

}  // namespace fgbench
