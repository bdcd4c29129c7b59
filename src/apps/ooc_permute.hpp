// Out-of-core permutation — the paper's conclusions solicit "out-of-core
// algorithms other than sorting" for FG's multiple pipelines; permuting a
// PDM-striped file is the canonical one (Vitter–Shriver's other primitive
// besides sorting).
//
// Given a bijection pi on record indices, rearrange a striped file so
// output[pi(g)] = input[g].  Each node runs two disjoint FG pipelines,
// exactly like dsort's distribution pass:
//
//   send pipeline:     source -> read -> route(send) -> sink
//   receive pipeline:  source -> receive -> write -> sink
//
// The route stage walks its buffer, coalesces maximal runs of records
// whose destinations are consecutive (so structured permutations —
// shifts, block transposes, rotations — travel in big chunks), splits
// runs at striped-block boundaries, and sends each chunk to the node
// whose disk holds it.  Fully general permutations degrade gracefully to
// per-record chunks.
//
// The amount a node sends and receives is permutation- and data-layout-
// dependent, i.e. communication is unbalanced — which is why this needs
// the paper's disjoint pipelines rather than one linear pipeline.
#pragma once

#include "comm/cluster.hpp"
#include "core/runtime.hpp"
#include "pdm/striping.hpp"
#include "pdm/workspace.hpp"

#include <cstdint>
#include <functional>
#include <string>

namespace fg::apps {

/// Destination map: must be a bijection on [0, records).
using IndexMap = std::function<std::uint64_t(std::uint64_t)>;

struct PermuteConfig {
  int nodes{4};
  std::uint64_t records{1 << 16};
  std::uint32_t record_bytes{16};
  std::uint32_t block_records{1024};
  std::size_t buffer_records{4096};
  std::size_t num_buffers{4};
  std::string input_name{"input"};
  std::string output_name{"permuted"};

  /// Runtime options (fgserve's per-job pool budget) applied to every
  /// node's pipeline graph, exactly as SortConfig::runtime does for the
  /// sorting programs.
  RuntimeOptions runtime{};

  /// Stall watchdog window per graph, in milliseconds; 0 disables it.
  /// When armed, the fabric is registered as the graph's abort hook so a
  /// tripped watchdog also unwinds workers blocked in fabric calls.
  std::uint32_t watchdog_ms{0};
};

struct PermuteResult {
  double seconds{0};
  std::uint64_t records{0};
};

/// Permute the striped input file into the striped output file.
/// `dest` is evaluated once per record on the sending side.
PermuteResult run_permute(comm::Cluster& cluster, pdm::Workspace& ws,
                          const PermuteConfig& cfg, const IndexMap& dest);

// -- common permutations -------------------------------------------------

/// Cyclic shift by `shift` positions: g -> (g + shift) mod records.
IndexMap cyclic_shift_map(std::uint64_t records, std::uint64_t shift);

/// Reversal: g -> records - 1 - g.
IndexMap reversal_map(std::uint64_t records);

/// Transpose of a (rows x cols) record matrix stored row-major:
/// g = i*cols + j  ->  j*rows + i.  rows*cols must equal the record
/// count.  Note that element-level transposition maps consecutive records
/// to stride-`rows` destinations, so nothing coalesces: every record
/// travels alone.  That *is* the textbook lower bound for naive
/// out-of-core transpose — use block_transpose_map for the practical
/// tile-based algorithm.
IndexMap transpose_map(std::uint64_t rows, std::uint64_t cols);

/// Tile-based out-of-core transpose: the file is a (row_blocks x
/// col_blocks) matrix of tiles of `block_records` records each; tiles
/// move to their transposed position, contents intact.  Consecutive
/// records within a tile keep consecutive destinations, so every tile
/// travels as one block-sized chunk — the standard two-pass PDM transpose
/// data movement.  records must equal row_blocks*col_blocks*block_records.
IndexMap block_transpose_map(std::uint64_t row_blocks,
                             std::uint64_t col_blocks,
                             std::uint32_t block_records);

/// A pseudorandom bijection (a Feistel-style mix), the worst case for
/// coalescing: every record travels in its own chunk.
IndexMap random_bijection_map(std::uint64_t records, std::uint64_t seed);

/// Verify output[dest(g)] holds the record whose unique id is g, for all
/// g (uses the record-format uid at bytes [8,16), as produced by
/// fg::sort::generate_input).  Returns the number of mismatches.
std::uint64_t verify_permutation(pdm::Workspace& ws, const PermuteConfig& cfg,
                                 const IndexMap& dest);

}  // namespace fg::apps
