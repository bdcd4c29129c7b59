// Dataset generation and output verification.
//
// The input is a PDM-striped logical file: block b on node (b mod P).
// Generation is deterministic in (seed, distribution, global index), so
// each node's share can be produced independently and the expected
// dataset fingerprint can be recomputed without re-reading anything.
//
// Verification reads the striped output in PDM order and checks three
// properties: the extended keys (key, then mix64 of the uid) are
// globally non-decreasing, the record count matches, and the sum of
// per-record fingerprints matches the input's (i.e. the output is a
// permutation of the input, payloads intact).
#pragma once

#include "pdm/striping.hpp"
#include "pdm/workspace.hpp"
#include "sort/config.hpp"

#include <cstdint>

namespace fg::sort {

/// Striping layout implied by a SortConfig.
inline pdm::StripeLayout layout_of(const SortConfig& cfg) {
  return pdm::StripeLayout(cfg.nodes, cfg.record_bytes, cfg.block_records);
}

/// Write the striped input files (one per node) into the workspace.
/// Temporarily disables the disks' latency models: generation is not part
/// of any measured phase.
void generate_input(pdm::Workspace& ws, const SortConfig& cfg);

/// Write just `node`'s stripe of the input.  Generation is deterministic
/// in (seed, distribution, global index), so in multi-process (TCP
/// fabric) runs each rank produces its own stripe independently and the
/// union is byte-identical to a single-process generate_input().
void generate_node_input(pdm::Workspace& ws, const SortConfig& cfg, int node);

/// Expected order-independent fingerprint sum of the whole dataset.
std::uint64_t expected_fingerprint(const SortConfig& cfg);

struct VerifyResult {
  /// Records are in extended-key order (key, then mix64 of the uid), the
  /// order every program writes, so equal keys must keep their tie order.
  bool sorted{false};
  bool permutation{false};
  std::uint64_t records{0};

  bool ok() const { return sorted && permutation; }
};

/// Read the striped output and validate it against the config's input.
/// Also runs with the disks' latency models disabled.
VerifyResult verify_output(pdm::Workspace& ws, const SortConfig& cfg);

}  // namespace fg::sort
