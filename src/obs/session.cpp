#include "obs/session.hpp"

namespace fg::obs {
namespace {

const char* histogram_name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kStageWork: return "pipeline.stage_work_us";
    case SpanKind::kAcceptWait: return "pipeline.accept_wait_us";
    case SpanKind::kConveyWait: return "pipeline.convey_wait_us";
    case SpanKind::kDiskRead: return "disk.read_us";
    case SpanKind::kDiskWrite: return "disk.write_us";
    case SpanKind::kDiskRetry: return "disk.retry_us";
    case SpanKind::kFabricSend: return "fabric.send_us";
    case SpanKind::kFabricRecv: return "fabric.recv_us";
    case SpanKind::kFabricCollective: return "fabric.collective_us";
    case SpanKind::kRound:        // recorded live by the sink
    case SpanKind::kQueueDepth:   // a sample, not a latency
      return nullptr;
  }
  return nullptr;
}

}  // namespace

void Session::finalize() {
  Histogram* by_kind[16] = {};
  for (const TrackSpans& t : spans_.tracks()) {
    for (const SpanRecord& s : t.spans) {
      const auto k = static_cast<std::size_t>(s.kind);
      if (by_kind[k] == nullptr) {
        const char* name = histogram_name(s.kind);
        if (name == nullptr) continue;
        by_kind[k] = &metrics_.histogram(name);
      }
      by_kind[k]->record((s.end_ns - s.begin_ns) / 1000);
    }
  }
  metrics_.counter("spans.dropped").add(spans_.total_dropped());
}

}  // namespace fg::obs
