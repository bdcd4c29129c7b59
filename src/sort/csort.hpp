// csort: the three-pass out-of-core columnsort baseline (Section III;
// Chaudhry–Cormen), implemented with exactly one linear FG pipeline per
// node per pass — the only pipeline shape the original FG release
// supported.
//
// The N records form an r x s matrix (r rows, s columns, r*s = N,
// r >= 2(s-1)^2) sorted into column-major order.  Columns are owned
// round-robin: column j belongs to node (j mod P) and is processed in
// round (j div P); every node handles cpn = s/P columns per pass.
//
//   pass 1 = steps 1-2: sort each column; "transpose" shuffle
//            (element j*r+k -> k*s+j), realized as a balanced alltoall of
//            equal (cpn * r/s)-record blocks per node pair per round.
//   pass 2 = steps 3-4: sort each column; inverse shuffle, again a
//            balanced alltoall; intermediate file laid out column-major
//            so pass 3 reads contiguously.
//   pass 3 = steps 5-8: sort each column (step 5); then the paper's key
//            observation: steps 6-8 (shift down by r/2, sort, unshift)
//            reduce to a single communicate stage.  Each node sends its
//            column's bottom half to the next column's owner and merges
//            the half received from the previous column with its own top
//            half; the merged run M_j is exactly the final sorted output
//            for global positions [j*r - r/2, j*r + r/2).  A final
//            balanced alltoall redistributes each M_j to the PDM-striped
//            output blocks.  (The original cluster wrote columns locally;
//            our striped output spans all disks, so the redistribution
//            that the real cluster's layout made implicit is an explicit
//            — still balanced and predetermined — alltoall here.)
//
// Everything about csort's I/O and communication is oblivious to key
// values: each node reads and writes exactly the same volume in every
// pass, and every communication is balanced.  That is the baseline's
// advantage; its disadvantage is the third pass.
#pragma once

#include "comm/cluster.hpp"
#include "pdm/workspace.hpp"
#include "sort/config.hpp"

namespace fg::sort {

/// Matrix geometry for csort.
struct CsortGeometry {
  std::uint64_t r{0};  ///< rows per column
  std::uint64_t s{0};  ///< number of columns

  std::uint64_t records() const { return r * s; }

  /// Validate against columnsort's requirements for a P-node cluster:
  /// s % P == 0, r % s == 0, r even, r >= 2(s-1)^2.
  void validate(int nodes) const;

  /// Choose a geometry with r*s as close to `target` as the constraints
  /// allow, and at that r*s the most columns they allow.  `r_multiple_of`
  /// adds a divisibility constraint on r (pass the striping block size so
  /// columns align with striped blocks).
  static CsortGeometry choose(std::uint64_t target, int nodes,
                              std::uint64_t r_multiple_of = 1);
};

/// The geometry run_csort uses for `cfg`: csort_r x csort_s when both are
/// set, else choose(records, nodes, block_records).
CsortGeometry csort_geometry(const SortConfig& cfg);

/// A csort-compatible record count close to `target`; use this to pick an
/// N that both csort and dsort can sort, for fair comparison.
std::uint64_t csort_compatible_records(std::uint64_t target, int nodes,
                                       std::uint64_t r_multiple_of = 1);

/// Bytes of each pass-3 pool buffer, and of its auxiliary block, for a
/// P-node run of `geom` striped in blocks of `block_records`: the larger
/// of a merged run M_j (at most 3r/2 records) and the most one node can
/// receive in one round of the final redistribution.
std::size_t csort_pass3_buffer_bytes(const CsortGeometry& geom, int nodes,
                                     std::uint32_t record_bytes,
                                     std::uint64_t block_records);

/// Run csort on the cluster over the workspace's striped input file,
/// producing the striped output file.  Returns per-pass wall times
/// (sampling time is zero: csort needs no preprocessing).
SortResult run_csort(comm::Cluster& cluster, pdm::Workspace& ws,
                     const SortConfig& cfg);

}  // namespace fg::sort
