// Key distributions for workload synthesis, matching the paper's
// evaluation: uniform random, all keys equal, standard normal, and
// Poisson with lambda = 1.  Two extra distributions (pre-sorted and
// reverse-sorted keys) reproduce the "highly unbalanced communication"
// experiment the paper mentions but does not plot: with monotone keys,
// every node's records at a given time are destined for the *same*
// partition, so pass 1 of dsort sends in bursts that hammer one receiver
// at a time.
//
// Record generation is a pure function of (seed, distribution, global
// index), so nodes can generate their striped share independently and
// verification can recompute the expected fingerprint without re-reading
// the input.
#pragma once

#include "sort/record.hpp"

#include <cstdint>
#include <span>
#include <string>

namespace fg::sort {

enum class Distribution {
  kUniform,
  kAllEqual,
  kNormal,
  kPoisson,
  kSorted,    ///< keys increase with global index (unbalanced pass 1)
  kReversed,  ///< keys decrease with global index (unbalanced pass 1)
  /// Each node's records cluster in one narrow key window, so during
  /// dsort's pass 1 every node sends (nearly) all of its data to a single
  /// partner — pairwise unbalanced communication, sustained for the whole
  /// pass, without the rotating hotspot of kSorted.
  kNodeClustered,
};

/// Human-readable name, matching the paper's figure labels where
/// applicable ("Uniform random", "All equal", ...).
std::string to_string(Distribution d);

/// Sort key for the record with global index `g` out of `total`, under
/// `dist` with `seed`.  Deterministic and stateless.  `home_node` is the
/// cluster node whose disk holds the record; only kNodeClustered uses it
/// (callers that don't know it may pass -1, which clusters everything on
/// a single window).
std::uint64_t key_for(Distribution dist, std::uint64_t seed, std::uint64_t g,
                      std::uint64_t total, int home_node = -1);

/// Materialize the record with global index `g` into `out` (rec_bytes
/// long): key, unique id (= g), and deterministic payload filler.
void make_record(Distribution dist, std::uint64_t seed, std::uint64_t g,
                 std::uint64_t total, std::span<std::byte> out,
                 int home_node = -1);

/// Fingerprint the record with global index `g` *without* materializing
/// it separately (used to compute expected dataset checksums).
std::uint64_t record_fingerprint_for(Distribution dist, std::uint64_t seed,
                                     std::uint64_t g, std::uint64_t total,
                                     std::uint32_t rec_bytes,
                                     int home_node = -1);

}  // namespace fg::sort
