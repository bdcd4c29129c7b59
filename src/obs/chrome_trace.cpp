#include "obs/chrome_trace.hpp"

#include <cstdio>

#include "util/trace.hpp"

namespace fg::obs {
namespace {

const char* category(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kStageWork:
    case SpanKind::kAcceptWait:
    case SpanKind::kConveyWait:
    case SpanKind::kRound:
      return "stage";
    case SpanKind::kDiskRead:
    case SpanKind::kDiskWrite:
    case SpanKind::kDiskRetry:
      return "disk";
    case SpanKind::kFabricSend:
    case SpanKind::kFabricRecv:
    case SpanKind::kFabricCollective:
      return "net";
    case SpanKind::kQueueDepth:
      return "queue";
  }
  return "misc";
}

void write_args(util::JsonWriter& w, const SpanRecord& s) {
  w.key("args");
  w.begin_object();
  switch (s.kind) {
    case SpanKind::kStageWork:
    case SpanKind::kAcceptWait:
    case SpanKind::kConveyWait:
    case SpanKind::kRound:
      w.kv("pipeline", std::uint64_t{s.scope});
      w.kv("round", s.value);
      break;
    case SpanKind::kDiskRead:
    case SpanKind::kDiskWrite:
    case SpanKind::kFabricSend:
    case SpanKind::kFabricRecv:
      w.kv("node", std::uint64_t{s.scope});
      w.kv("bytes", s.value);
      break;
    case SpanKind::kDiskRetry:
    case SpanKind::kFabricCollective:
      w.kv("node", std::uint64_t{s.scope});
      break;
    case SpanKind::kQueueDepth:
      w.kv("queue", std::uint64_t{s.scope});
      w.kv("depth", s.value);
      break;
  }
  w.end_object();
}

}  // namespace

void write_chrome_trace(util::JsonWriter& w, const SpanCollector& spans) {
  const std::vector<TrackSpans> tracks = spans.tracks();

  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  std::uint64_t dropped = 0;
  for (const TrackSpans& t : tracks) dropped += t.dropped;
  w.kv("dropped", dropped);
  w.end_object();

  w.key("traceEvents");
  w.begin_array();
  for (const TrackSpans& t : tracks) {
    // Name the track after its worker so Perfetto shows stage labels.
    w.begin_object();
    w.kv("ph", "M");
    w.kv("name", "thread_name");
    w.kv("pid", std::uint64_t{0});
    w.kv("tid", std::uint64_t{t.track});
    w.key("args");
    w.begin_object();
    w.kv("name", t.name);
    w.end_object();
    w.end_object();
  }
  for (const TrackSpans& t : tracks) {
    for (const SpanRecord& s : t.spans) {
      w.begin_object();
      if (s.kind == SpanKind::kQueueDepth) {
        // Counter event: Perfetto keys counter tracks on (pid, name).
        w.kv("ph", "C");
        w.key("name");
        {
          char buf[32];
          std::snprintf(buf, sizeof buf, "queue %u", s.scope);
          w.value(std::string_view(buf));
        }
        w.kv("cat", category(s.kind));
        w.kv("pid", std::uint64_t{0});
        w.kv("tid", std::uint64_t{t.track});
        w.kv("ts", static_cast<double>(s.begin_ns) / 1000.0);
        w.key("args");
        w.begin_object();
        w.kv("depth", s.value);
        w.end_object();
      } else {
        w.kv("ph", "X");
        w.kv("name", to_string(s.kind));
        w.kv("cat", category(s.kind));
        w.kv("pid", std::uint64_t{0});
        w.kv("tid", std::uint64_t{t.track});
        w.kv("ts", static_cast<double>(s.begin_ns) / 1000.0);
        w.kv("dur", static_cast<double>(s.end_ns - s.begin_ns) / 1000.0);
        write_args(w, s);
      }
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
}

std::string chrome_trace_json(const SpanCollector& spans) {
  util::JsonWriter w;
  write_chrome_trace(w, spans);
  return w.str();
}

}  // namespace fg::obs
