// Shared configuration for the two out-of-core sorting programs and the
// result structures the drivers report.
#pragma once

#include "core/runtime.hpp"
#include "core/stage_stats.hpp"
#include "sort/distributions.hpp"
#include "util/latency.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace fg::obs {
class Session;
}  // namespace fg::obs

namespace fg::sort {

struct SortConfig {
  int nodes{4};                 ///< cluster size P
  std::uint64_t records{1u << 18};  ///< total N
  std::uint32_t record_bytes{16};   ///< 16 or 64 in the paper
  std::uint32_t block_records{1024};  ///< PDM striping block, in records

  // dsort pass 1 pipelines (send and receive use equal buffer sizes, as
  // in the paper).
  std::size_t buffer_records{4096};
  std::size_t num_buffers{4};

  // dsort pass 2: vertical (per-run) pipelines and the horizontal/output
  // pipelines.  Vertical buffers are small because there may be many of
  // them; the horizontal buffers are larger (paper, Section IV).
  std::size_t merge_buffer_records{1024};
  std::size_t merge_num_buffers{3};
  std::size_t out_buffer_records{4096};
  std::size_t out_num_buffers{4};

  /// Oversampling factor: samples per node during splitter selection.
  int oversample{64};

  /// Cost model for the record-sorting/merging computation, charged per
  /// buffer in the sort and merge stages of every program (dsort, csort,
  /// and the synchronous baseline alike).  The paper's 2.8 GHz Xeons
  /// sorted records at a rate comparable to the disks' transfer rate;
  /// a modern CPU does not, so simulated runs restore that ratio here the
  /// same way the disk and network models do.  Free by default (logic
  /// tests).
  util::LatencyModel compute_model{};

  std::uint64_t seed{1};
  Distribution dist{Distribution::kUniform};

  /// Channel selection (and fgserve's per-job pool budget), applied to
  /// every pipeline graph the run builds.  kAuto also honours
  /// FG_CHANNELS; fgsort exposes the policy as --channels.
  RuntimeOptions runtime{};

  /// Stall watchdog window for every pipeline graph the run builds, in
  /// milliseconds; 0 disables it.  When armed, a pipeline that makes no
  /// progress for this long aborts the whole cluster run with a
  /// PipelineStalled diagnostic instead of hanging.  Must exceed the
  /// longest single modeled operation by a comfortable margin.
  std::uint32_t watchdog_ms{0};

  /// Observability session: when set, every pipeline graph the run builds
  /// attaches to it (span rings + metrics registry), and disk/fabric spans
  /// from stage threads land in the same per-thread rings.  The session
  /// must outlive the run; one session may span several runs/passes.
  obs::Session* obs{nullptr};

  /// csort matrix geometry (rows r, columns s).  Zero means "choose
  /// automatically for `records`"; if set, r*s must equal `records`.
  std::uint64_t csort_r{0};
  std::uint64_t csort_s{0};

  std::string input_name{"input"};
  std::string output_name{"output"};
};

/// Wall-clock seconds per phase of one sorting run.
struct PhaseTimes {
  double sampling{0.0};            ///< dsort only; ~0 for csort
  std::vector<double> passes;      ///< per-pass seconds

  double total() const {
    double t = sampling;
    for (double p : passes) t += p;
    return t;
  }
};

struct SortResult {
  PhaseTimes times;
  std::uint64_t records{0};
  /// Per-stage statistics aggregated across every pipeline graph the run
  /// executed (all nodes, all passes), merged by (stage, pipelines) label.
  std::vector<StageStats> stage_totals;
};

}  // namespace fg::sort
