#include "obs/collector.hpp"

#include <algorithm>
#include <numeric>

namespace fg::obs {

SpanCollector::SpanCollector(std::size_t ring_capacity)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      epoch_(util::Clock::now()) {}

SpanRing& SpanCollector::acquire(std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.emplace_back(std::move(name), ring_capacity_, epoch_);
  return rings_.back();
}

std::vector<TrackSpans> SpanCollector::tracks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TrackSpans> out;
  out.reserve(rings_.size());
  std::uint32_t id = 0;
  for (const SpanRing& r : rings_) {
    out.push_back(TrackSpans{r.name(), id++, r.dropped(), r.drain()});
  }
  return out;
}

SpanCollector::Merged SpanCollector::merged() const {
  Merged m;
  for (const TrackSpans& t : tracks()) {
    m.track_names.push_back(t.name);
    m.dropped += t.dropped;
    for (const SpanRecord& s : t.spans) {
      m.spans.push_back(s);
      m.track_of.push_back(t.track);
    }
  }
  // Sort by begin time, keeping the track tags aligned.
  std::vector<std::size_t> order(m.spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&m](std::size_t a, std::size_t b) {
                     return m.spans[a].begin_ns < m.spans[b].begin_ns;
                   });
  Merged sorted;
  sorted.track_names = std::move(m.track_names);
  sorted.dropped = m.dropped;
  sorted.spans.reserve(m.spans.size());
  sorted.track_of.reserve(m.spans.size());
  for (std::size_t i : order) {
    sorted.spans.push_back(m.spans[i]);
    sorted.track_of.push_back(m.track_of[i]);
  }
  return sorted;
}

std::uint64_t SpanCollector::total_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const SpanRing& r : rings_) n += r.dropped();
  return n;
}

std::size_t SpanCollector::ring_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rings_.size();
}

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kStageWork: return "work";
    case SpanKind::kAcceptWait: return "accept-wait";
    case SpanKind::kConveyWait: return "convey-wait";
    case SpanKind::kRound: return "round";
    case SpanKind::kDiskRead: return "disk-read";
    case SpanKind::kDiskWrite: return "disk-write";
    case SpanKind::kDiskRetry: return "disk-retry";
    case SpanKind::kFabricSend: return "net-send";
    case SpanKind::kFabricRecv: return "net-recv";
    case SpanKind::kFabricCollective: return "net-collective";
    case SpanKind::kQueueDepth: return "queue-depth";
  }
  return "unknown";
}

}  // namespace fg::obs
