// The experiment driver shared by fgsort, the benchmark mains and the
// examples: the paper's buffer geometry, and a runner that provisions a
// simulated cluster (fabric + per-node disks with paper-calibrated latency
// models), generates input, runs dsort and/or csort, verifies the striped
// output, and renders Figure-8-style tables.
#pragma once

#include "sort/csort.hpp"
#include "sort/dsort.hpp"
#include "sort/dataset.hpp"
#include "util/table.hpp"

#include <optional>
#include <string>
#include <vector>

namespace fg::sort {

/// Latency models for the simulated substrate.
struct LatencyProfile {
  util::LatencyModel disk;
  util::LatencyModel net;
  /// Record sort/merge throughput of the simulated-era CPU; see
  /// SortConfig::compute_model.
  util::LatencyModel compute;

  /// No injected latency: logic-only runs (tests).
  static LatencyProfile none() { return {}; }

  /// Calibrated to the paper's hardware *ratios*, rescaled for a
  /// megabytes-scale dataset on one machine.  On the paper's cluster an
  /// Ultra-320-era disk moved ~50 MiB/s against a 2 Gb/s Myrinet
  /// (~250 MiB/s) — a 1:5 disk:network ratio — and each pass was
  /// disk-bound.  Locally the dataset is ~1000x smaller while the CPU is
  /// far faster than a 2005 Xeon, so we keep the 1:5 ratio but slow both
  /// substrates (12 and 60 MiB/s) until passes are latency-bound again,
  /// which is the regime the paper's overlap results live in.  The
  /// compute model plays the 2005 Xeon: sorting throughput of the same
  /// order as the disk's transfer rate, so there is computation worth
  /// overlapping (a modern CPU sorts these toy datasets in noise).  Pass
  /// times land near seconds instead of the paper's minutes — same shape.
  static LatencyProfile paper_like() {
    return {util::LatencyModel::of(4000, 12), util::LatencyModel::of(50, 60),
            util::LatencyModel::of(0, 24)};
  }
};

/// The paper experiment's geometry for `cfg.record_bytes`-byte records:
/// 64 KiB striping blocks, 256 KiB pipeline buffers, 64 KiB merge
/// buffers, oversampling 128, and `cfg.records` moved to a nearby count
/// csort can sort, so every program sorts the same N.  Large buffers make
/// transfer dominate setup cost, as the paper's multi-megabyte ones did.
void use_paper_geometry(SortConfig& cfg);

/// Outcome of running one program on one configuration.
struct ProgramOutcome {
  SortResult result;
  VerifyResult verify;
};

/// dsort-vs-csort on one distribution (one column pair of Figure 8).
struct ComparisonRow {
  Distribution dist{Distribution::kUniform};
  std::optional<ProgramOutcome> dsort;
  std::optional<ProgramOutcome> csort;

  /// dsort total time as a fraction of csort's (the paper's headline
  /// metric, 74.26%-85.06% in Figure 8).
  double ratio() const {
    if (!dsort || !csort) return 0.0;
    const double c = csort->result.times.total();
    return c > 0 ? dsort->result.times.total() / c : 0.0;
  }
};

/// Run one program on a fresh workspace/cluster and verify its output.
ProgramOutcome run_program(bool use_dsort, const SortConfig& cfg,
                           const LatencyProfile& lat);

/// Run both programs on `dist` (fresh cluster and input each, as the
/// paper's repeated runs do) and return the comparison row.
ComparisonRow run_comparison(SortConfig cfg, Distribution dist,
                             const LatencyProfile& lat);

/// Render rows in the layout of Figure 8: one line per phase, one column
/// pair (dsort | csort) per distribution, totals and the dsort/csort
/// ratio at the bottom.
std::string render_figure8(const std::vector<ComparisonRow>& rows,
                           const std::string& title);

}  // namespace fg::sort
