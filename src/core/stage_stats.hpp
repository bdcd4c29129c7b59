// Per-stage timing statistics, collected by every worker thread.  These
// are the numbers FG's overlap story is judged by: a well-overlapped
// pipeline shows most stages spending their time blocked (yielding) while
// exactly one high-latency operation per resource is in flight.
#pragma once

#include "util/latency.hpp"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace fg {

struct StageStats {
  std::string stage;         ///< stage name ("source"/"sink" included)
  std::string pipelines;     ///< comma-separated member pipeline names
  std::uint64_t buffers{0};  ///< buffers processed (emitted, for sources)
  util::Duration working{};  ///< time inside the stage function
  util::Duration accept_blocked{};  ///< time blocked waiting to accept
  util::Duration convey_blocked{};  ///< time blocked waiting to convey

  double working_seconds() const { return util::to_seconds(working); }
  double accept_seconds() const { return util::to_seconds(accept_blocked); }
  double convey_seconds() const { return util::to_seconds(convey_blocked); }
};

/// Fold `from` into `into`, matching entries by (stage, pipelines) label
/// and summing their counters; unmatched entries are appended.  The sort
/// drivers use this to aggregate stats across nodes and passes into one
/// report.
inline void merge_stage_stats(std::vector<StageStats>& into,
                              const std::vector<StageStats>& from) {
  // (stage, pipelines) → index in `into`.  Stage names cannot contain a
  // NUL, so the joined key is unambiguous.  Appended entries keep their
  // first-seen order, matching the old O(n²) scan's behaviour.
  const auto key = [](const StageStats& s) {
    std::string k;
    k.reserve(s.stage.size() + 1 + s.pipelines.size());
    k += s.stage;
    k += '\0';
    k += s.pipelines;
    return k;
  };
  std::unordered_map<std::string, std::size_t> index;
  index.reserve(into.size() + from.size());
  for (std::size_t i = 0; i < into.size(); ++i) index.emplace(key(into[i]), i);
  for (const StageStats& s : from) {
    const auto [it, inserted] = index.emplace(key(s), into.size());
    if (inserted) {
      into.push_back(s);
      continue;
    }
    StageStats& t = into[it->second];
    t.buffers += s.buffers;
    t.working += s.working;
    t.accept_blocked += s.accept_blocked;
    t.convey_blocked += s.convey_blocked;
  }
}

}  // namespace fg
