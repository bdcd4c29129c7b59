#include "serve/protocol.hpp"

#include "comm/net_io.hpp"
#include "util/trace.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace fg::serve {

namespace {

// "FGS1", little-endian on the wire.
constexpr std::uint32_t kMagic = 0x31534746u;
constexpr std::size_t kHeaderBytes = 4 + 1 + 4 + 4;

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

bool known_type(std::uint8_t t) {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kSubmit:
    case MsgType::kCancel:
    case MsgType::kStatus:
    case MsgType::kStats:
    case MsgType::kBye:
    case MsgType::kAccepted:
    case MsgType::kRejected:
    case MsgType::kResult:
    case MsgType::kStatusReply:
    case MsgType::kStatsReply:
      return true;
  }
  return false;
}

std::uint64_t get_u64_field(const util::Json& j, std::string_view key,
                            std::uint64_t fallback) {
  const util::Json* f = j.find(key);
  return f == nullptr ? fallback : f->u64();
}

std::string get_string_field(const util::Json& j, std::string_view key,
                             std::string fallback) {
  const util::Json* f = j.find(key);
  return f == nullptr ? std::move(fallback) : f->string();
}

/// An optional u64 field, range-checked before the caller narrows it.
std::uint64_t get_ranged_field(const util::Json& j, const char* key,
                               std::uint64_t fallback, std::uint64_t min,
                               std::uint64_t max) {
  const std::uint64_t v = get_u64_field(j, key, fallback);
  if (v < min || v > max) {
    throw std::invalid_argument("fg::serve::JobSpec: " + std::string(key) +
                                " must be in [" + std::to_string(min) + ", " +
                                std::to_string(max) + "], got " +
                                std::to_string(v));
  }
  return v;
}

}  // namespace

const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kSubmit: return "SUBMIT";
    case MsgType::kCancel: return "CANCEL";
    case MsgType::kStatus: return "STATUS";
    case MsgType::kStats: return "STATS";
    case MsgType::kBye: return "BYE";
    case MsgType::kAccepted: return "ACCEPTED";
    case MsgType::kRejected: return "REJECTED";
    case MsgType::kResult: return "RESULT";
    case MsgType::kStatusReply: return "STATUS_REPLY";
    case MsgType::kStatsReply: return "STATS_REPLY";
  }
  return "?";
}

const char* to_string(JobState s) noexcept {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kCompleted: return "COMPLETED";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

bool read_frame(int fd, Frame& out) {
  unsigned char hdr[kHeaderBytes];
  const comm::net::ReadOutcome hr = comm::net::read_full(fd, hdr, kHeaderBytes);
  if (hr.status == comm::net::ReadStatus::kClosed) return false;
  if (!hr.ok()) {
    throw ProtocolError("fg::serve: truncated frame header (" +
                        comm::net::describe(hr) + ")");
  }
  if (get_u32(hdr) != kMagic) {
    throw ProtocolError("fg::serve: bad frame magic — stream corrupt");
  }
  if (!known_type(hdr[4])) {
    throw ProtocolError("fg::serve: unknown message type " +
                        std::to_string(int(hdr[4])));
  }
  out.type = static_cast<MsgType>(hdr[4]);
  out.job = get_u32(hdr + 5);
  const std::uint32_t len = get_u32(hdr + 9);
  if (len > kMaxPayload) {
    throw ProtocolError("fg::serve: frame payload of " + std::to_string(len) +
                        " bytes exceeds the " + std::to_string(kMaxPayload) +
                        "-byte bound");
  }
  out.payload.resize(len);
  if (len > 0) {
    const comm::net::ReadOutcome pr =
        comm::net::read_full(fd, out.payload.data(), len);
    if (!pr.ok()) {
      throw ProtocolError("fg::serve: truncated frame payload (" +
                          comm::net::describe(pr) + ")");
    }
  }
  return true;
}

bool write_frame(int fd, MsgType type, std::uint32_t job,
                 std::string_view payload) {
  unsigned char hdr[kHeaderBytes];
  put_u32(hdr, kMagic);
  hdr[4] = static_cast<unsigned char>(type);
  put_u32(hdr + 5, job);
  put_u32(hdr + 9, static_cast<std::uint32_t>(payload.size()));
  // One gathered sendmsg per frame: header + payload leave together.
  iovec iov[2] = {
      {hdr, kHeaderBytes},
      {const_cast<char*>(payload.data()), payload.size()},
  };
  return comm::net::write_full_vec(fd, iov, payload.empty() ? 1 : 2);
}

// ---------------------------------------------------------------------------
// JobSpec
// ---------------------------------------------------------------------------

std::string JobSpec::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.kv("kind", kind);
  w.kv("records", records);
  w.kv("record_bytes", record_bytes);
  w.kv("nodes", nodes);
  w.kv("seed", seed);
  w.kv("stages", stages);
  w.kv("rounds", rounds);
  w.kv("buffer_bytes", static_cast<std::uint64_t>(buffer_bytes));
  w.kv("num_buffers", static_cast<std::uint64_t>(num_buffers));
  w.kv("work_us", work_us);
  w.kv("stall_stage", static_cast<std::int64_t>(stall_stage));
  w.kv("fault_spec", fault_spec);
  w.kv("watchdog_ms", watchdog_ms);
  w.kv("pool_quota_bytes", pool_quota_bytes);
  w.kv("disk_quota_bytes", disk_quota_bytes);
  w.end_object();
  return w.str();
}

JobSpec JobSpec::from_json(const util::Json& j) {
  JobSpec s;
  s.kind = get_string_field(j, "kind", s.kind);
  if (s.kind != "sort" && s.kind != "permute" && s.kind != "pipeline") {
    throw std::invalid_argument("fg::serve::JobSpec: unknown kind '" + s.kind +
                                "' (want sort|permute|pipeline)");
  }
  s.records = get_ranged_field(j, "records", s.records, 1, 1u << 22);
  s.record_bytes = static_cast<std::uint32_t>(
      get_ranged_field(j, "record_bytes", s.record_bytes, 16, 4096));
  s.nodes = static_cast<int>(get_ranged_field(
      j, "nodes", static_cast<std::uint64_t>(s.nodes), 1, 16));
  s.seed = get_u64_field(j, "seed", s.seed);
  s.stages = static_cast<std::uint32_t>(
      get_ranged_field(j, "stages", s.stages, 1, 64));
  s.rounds = get_ranged_field(j, "rounds", s.rounds, 1, 1u << 20);
  s.buffer_bytes = static_cast<std::size_t>(
      get_ranged_field(j, "buffer_bytes", s.buffer_bytes, 8, 1u << 26));
  s.num_buffers = static_cast<std::size_t>(
      get_ranged_field(j, "num_buffers", s.num_buffers, 1, 1024));
  s.work_us = static_cast<std::uint32_t>(
      get_ranged_field(j, "work_us", s.work_us, 0, 10'000'000));
  if (const util::Json* f = j.find("stall_stage")) {
    // Checked as a double: converting an out-of-range one to int is UB.
    const double v = f->number();
    if (v != std::floor(v) || v < -1 || v > s.stages - 1.0) {
      char got[32];
      std::snprintf(got, sizeof got, "%g", v);
      throw std::invalid_argument(
          "fg::serve::JobSpec: stall_stage must be an integer in [-1, " +
          std::to_string(s.stages - 1) + "], got " + got);
    }
    s.stall_stage = static_cast<std::int32_t>(v);
  }
  s.fault_spec = get_string_field(j, "fault_spec", s.fault_spec);
  s.watchdog_ms = static_cast<std::uint32_t>(
      get_ranged_field(j, "watchdog_ms", s.watchdog_ms, 0, UINT32_MAX));
  s.pool_quota_bytes = get_u64_field(j, "pool_quota_bytes",
                                     s.pool_quota_bytes);
  s.disk_quota_bytes = get_u64_field(j, "disk_quota_bytes",
                                     s.disk_quota_bytes);
  return s;
}

// ---------------------------------------------------------------------------
// JobResult
// ---------------------------------------------------------------------------

std::string JobResult::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.kv("id", id);
  w.kv("kind", kind);
  w.kv("state", to_string(state));
  w.kv("error", error);
  w.kv("verified", verified);
  w.kv("audit_ok", audit_ok);
  w.kv("records", records);
  w.kv("seconds", seconds);
  w.kv("queue_seconds", queue_seconds);
  w.end_object();
  return w.str();
}

JobResult JobResult::from_json(const util::Json& j) {
  JobResult r;
  r.id = static_cast<std::uint32_t>(j.at("id").u64());
  r.kind = get_string_field(j, "kind", "");
  const std::string state = j.at("state").string();
  if (state == "COMPLETED") r.state = JobState::kCompleted;
  else if (state == "FAILED") r.state = JobState::kFailed;
  else if (state == "CANCELLED") r.state = JobState::kCancelled;
  else if (state == "RUNNING") r.state = JobState::kRunning;
  else if (state == "QUEUED") r.state = JobState::kQueued;
  else throw std::invalid_argument("fg::serve::JobResult: bad state '" +
                                   state + "'");
  r.error = get_string_field(j, "error", "");
  if (const util::Json* f = j.find("verified")) r.verified = f->boolean();
  if (const util::Json* f = j.find("audit_ok")) r.audit_ok = f->boolean();
  r.records = get_u64_field(j, "records", 0);
  if (const util::Json* f = j.find("seconds")) r.seconds = f->number();
  if (const util::Json* f = j.find("queue_seconds")) {
    r.queue_seconds = f->number();
  }
  return r;
}

}  // namespace fg::serve
