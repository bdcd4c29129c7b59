#include "spans.hpp"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

namespace fgbench {
namespace {

using fg::obs::SpanKind;
using fg::obs::SpanRecord;

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

bool is_substrate(SpanKind k) {
  switch (k) {
    case SpanKind::kDiskRead:
    case SpanKind::kDiskWrite:
    case SpanKind::kDiskRetry:
    case SpanKind::kFabricSend:
    case SpanKind::kFabricRecv:
    case SpanKind::kFabricCollective:
      return true;
    default:
      return false;
  }
}

bool is_stage_label(const std::string& label) {
  return label != "source" && label != "sink" && label != kMainTrack;
}

/// Self time of one track, or nothing if it did no stage work.
std::uint64_t track_self_ns(const std::vector<SpanRecord>& spans,
                            std::uint64_t wait_ns) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> work;
  std::uint64_t work_ns = 0;
  std::uint64_t first = UINT64_MAX;
  std::uint64_t last = 0;
  for (const SpanRecord& s : spans) {
    if (s.kind == SpanKind::kQueueDepth) continue;
    first = std::min(first, s.begin_ns);
    last = std::max(last, s.end_ns);
    if (s.kind == SpanKind::kStageWork) {
      work.emplace_back(s.begin_ns, s.end_ns);
      work_ns += s.end_ns - s.begin_ns;
    }
  }
  std::sort(work.begin(), work.end());

  std::uint64_t nested_ns = 0;
  std::uint64_t substrate_ns = 0;
  for (const SpanRecord& s : spans) {
    if (!is_substrate(s.kind)) continue;
    const std::uint64_t d = s.end_ns - s.begin_ns;
    substrate_ns += d;
    // Spans on one thread nest, so the enclosing work span (if any) is
    // the last one that begins at or before this span.
    auto it = std::upper_bound(
        work.begin(), work.end(),
        std::make_pair(s.begin_ns, UINT64_MAX));
    if (it != work.begin() && std::prev(it)->second >= s.end_ns) {
      nested_ns += d;
    }
  }
  if (!work.empty()) return work_ns - std::min(work_ns, nested_ns);
  if (first >= last) return 0;
  const std::uint64_t busy = wait_ns + substrate_ns;
  const std::uint64_t active = last - first;
  return active > busy ? active - busy : 0;
}

}  // namespace

SpanSummary summarize(const fg::obs::SpanCollector& collector) {
  SpanSummary out;
  for (const fg::obs::TrackSpans& t : collector.tracks()) {
    out.dropped += t.dropped;
    out.spans += t.spans.size();
    std::uint64_t wait_ns = 0;
    for (const SpanRecord& s : t.spans) {
      const std::uint64_t d = s.end_ns - s.begin_ns;
      switch (s.kind) {
        case SpanKind::kAcceptWait:
        case SpanKind::kConveyWait:
          wait_ns += d;
          break;
        case SpanKind::kFabricRecv:
          out.recv_s += seconds(d);
          break;
        case SpanKind::kFabricCollective:
          out.collective_s += seconds(d);
          break;
        default:
          break;
      }
    }
    if (!is_stage_label(t.name)) continue;
    StageTime& st = out.stages[t.name];
    st.wait_s += seconds(wait_ns);
    st.self_s += seconds(track_self_ns(t.spans, wait_ns));
  }
  return out;
}

}  // namespace fgbench
