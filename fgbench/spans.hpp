// Reduce one traced program run's span rings to per-stage self and wait
// time.
//
// obs::analyze_stats cannot be used for this: it folds every rank's
// workers into one "thread" and counts the disk and fabric calls nested
// in a stage's work as work.  Here every ring is one (node, worker) track
// of one pass, and each track is reduced on its own:
//
//   self  = stage work spans minus the disk and fabric spans nested in
//           them on the same track.  A custom stage (dsort's merge) emits
//           no work spans, so its self time is the track's active interval
//           minus its accept/convey waits and its substrate spans.
//   wait  = accept-wait plus convey-wait spans.
//
// Async-I/O worker threads and transport receiver threads own no ring, so
// a stage that waits on an IoHandle (ReadAhead, WriteBehind) still counts
// that wait as self time.
#pragma once

#include "obs/collector.hpp"

#include <cstdint>
#include <map>
#include <string>

namespace fgbench {

struct StageTime {
  double self_s{0};
  double wait_s{0};
};

struct SpanSummary {
  /// Keyed by worker label (the stage name), summed over every track with
  /// that label: all nodes this process hosts, all passes.
  std::map<std::string, StageTime> stages;
  double recv_s{0};        ///< every fabric receive span
  double collective_s{0};  ///< every fabric collective span
  std::uint64_t dropped{0};
  std::uint64_t spans{0};
};

/// Ring label the benchmark gives each node program's main thread, so the
/// collectives (and ssort's disk and fabric calls) made outside any
/// pipeline are traced too.  Not a stage.
inline constexpr const char* kMainTrack = "main";

SpanSummary summarize(const fg::obs::SpanCollector& spans);

}  // namespace fgbench
