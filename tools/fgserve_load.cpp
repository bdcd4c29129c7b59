// fgserve_load — closed-loop load generator, chaos driver, and bench for
// fgserve.
//
//   fgserve_load --port P [--clients N] [--jobs N] [--fault-rate F]
//                [--kill-rate F] [--kinds pipeline,sort,permute]
//                [--records N] [--rounds N] [--work-us N] [--seed S]
//                [--json PATH] [--verbose]
//
// Each client thread runs a closed loop: submit one job, wait for its
// RESULT, check it, repeat — so concurrency equals --clients and the
// server's admission control is exercised honestly (a REJECTED "busy"
// is counted and retried after a beat, not treated as failure).
//
// Chaos knobs, both off by default:
//   --fault-rate F   fraction of jobs submitted with a permanent
//                    per-job --fault-spec armed; these MUST come back
//                    FAILED (the injected fault surfacing) with the
//                    buffer audit clean — and every other job MUST
//                    still complete byte-verified.  This is the
//                    isolation assertion, driven from outside.
//   --kill-rate F    fraction of iterations where the client drops its
//                    connection with no BYE right after an accepted
//                    submit — simulated client death; the server must
//                    cancel the orphaned job and keep serving the
//                    reconnecting client.
//
// Exit status: 0 iff every non-faulted, non-orphaned job completed
// byte-verified, every faulted job failed as expected, and at least one
// job completed.  --json writes the bench record (jobs/s, latency
// percentiles, counters); the CI gate writes it to
// build-ci-release/bench-sort/BENCH_serve.json.
#include "serve/client.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace {

struct LoadOptions {
  std::uint16_t port{0};
  int clients{4};
  int jobs_per_client{8};
  double fault_rate{0.0};
  double kill_rate{0.0};
  std::vector<std::string> kinds{"pipeline"};
  std::uint64_t records{1u << 14};
  std::uint64_t rounds{64};
  std::uint32_t work_us{0};
  std::uint64_t seed{1};
  std::string json_path;
};

struct Tally {
  std::uint64_t submitted{0};
  std::uint64_t accepted{0};
  std::uint64_t rejected_busy{0};
  std::uint64_t rejected_other{0};
  std::uint64_t completed{0};
  std::uint64_t failed_expected{0};    ///< faulted jobs that failed: good
  std::uint64_t failed_unexpected{0};  ///< anything else: gate failure
  std::uint64_t cancelled{0};
  std::uint64_t clients_killed{0};
  std::uint64_t audit_failures{0};
  std::vector<double> latencies;  ///< seconds, completed jobs only

  void merge(const Tally& t) {
    submitted += t.submitted;
    accepted += t.accepted;
    rejected_busy += t.rejected_busy;
    rejected_other += t.rejected_other;
    completed += t.completed;
    failed_expected += t.failed_expected;
    failed_unexpected += t.failed_unexpected;
    cancelled += t.cancelled;
    clients_killed += t.clients_killed;
    audit_failures += t.audit_failures;
    latencies.insert(latencies.end(), t.latencies.begin(), t.latencies.end());
  }
};

/// Permanent fault per kind: the job is expected to FAIL, not limp home.
std::string fault_spec_for(const std::string& kind) {
  if (kind == "sort") return "disk.write.error=always+4";
  if (kind == "permute") return "disk.read.error=always+4";
  return "stage.throw=once:2";
}

fg::serve::JobSpec make_spec(const LoadOptions& opt, const std::string& kind,
                             std::uint64_t seed, bool faulted) {
  fg::serve::JobSpec spec;
  spec.kind = kind;
  spec.seed = seed;
  if (kind == "pipeline") {
    spec.stages = 4;
    spec.rounds = opt.rounds;
    spec.buffer_bytes = 4096;
    spec.num_buffers = 4;
    spec.work_us = opt.work_us;
  } else {
    // Cluster kinds are heavier per job; keep the dataset bounded so a
    // load run measures serving overhead, not one giant sort.
    spec.records = opt.records;
    spec.record_bytes = 16;
    spec.nodes = 2;
  }
  if (faulted) spec.fault_spec = fault_spec_for(kind);
  return spec;
}

void client_loop(const LoadOptions& opt, int who, Tally& tally,
                 std::atomic<bool>& hard_fail) {
  fg::util::SplitMix64 rng(opt.seed ^ (0x9e3779b97f4a7c15ull *
                                       static_cast<std::uint64_t>(who + 1)));
  auto chance = [&rng](double p) {
    return p > 0.0 &&
           static_cast<double>(rng.next() >> 11) * 0x1.0p-53 < p;
  };

  fg::serve::Client client;
  client.connect(opt.port);
  for (int i = 0; i < opt.jobs_per_client; ++i) {
    const std::string& kind =
        opt.kinds[static_cast<std::size_t>(rng.next() % opt.kinds.size())];
    const bool faulted = chance(opt.fault_rate);
    // JSON numbers are double-backed, so keep the seed within 2^53.
    const fg::serve::JobSpec spec =
        make_spec(opt, kind, (rng.next() & ((1ull << 53) - 1)) | 1, faulted);

    ++tally.submitted;
    fg::serve::Client::Submit sub;
    try {
      sub = client.submit(spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fgserve_load: client %d submit: %s\n", who,
                   e.what());
      hard_fail.store(true);
      return;
    }
    if (!sub.accepted) {
      if (sub.reason == "busy") {
        ++tally.rejected_busy;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        --i;  // shed load is retried, not lost
      } else {
        ++tally.rejected_other;
      }
      continue;
    }
    ++tally.accepted;

    if (chance(opt.kill_rate)) {
      // Die without BYE: the server must cancel the orphan.  Reconnect
      // as a "new" client and carry on.
      ++tally.clients_killed;
      client.abrupt_close();
      client.connect(opt.port);
      continue;
    }

    fg::serve::JobResult r;
    try {
      r = client.wait(sub.id);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fgserve_load: client %d wait(job %u): %s\n", who,
                   sub.id, e.what());
      hard_fail.store(true);
      return;
    }
    if (!r.audit_ok) ++tally.audit_failures;
    switch (r.state) {
      case fg::serve::JobState::kCompleted:
        if (faulted) {
          // A permanently-faulted job completing means injection never
          // reached the job — the chaos pass isn't testing anything.
          std::fprintf(stderr,
                       "fgserve_load: job %u (%s) completed despite fault "
                       "spec '%s'\n",
                       r.id, r.kind.c_str(), spec.fault_spec.c_str());
          ++tally.failed_unexpected;
        } else if (!r.verified) {
          std::fprintf(stderr,
                       "fgserve_load: job %u (%s) completed UNVERIFIED\n",
                       r.id, r.kind.c_str());
          ++tally.failed_unexpected;
        } else {
          ++tally.completed;
          tally.latencies.push_back(r.seconds);
        }
        break;
      case fg::serve::JobState::kFailed:
        if (faulted) {
          ++tally.failed_expected;
        } else {
          std::fprintf(stderr, "fgserve_load: job %u (%s) FAILED: %s\n", r.id,
                       r.kind.c_str(), r.error.c_str());
          ++tally.failed_unexpected;
        }
        break;
      case fg::serve::JobState::kCancelled:
        ++tally.cancelled;
        break;
      default:
        ++tally.failed_unexpected;
        break;
    }
  }
  client.bye();
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: fgserve_load --port P [--clients N] [--jobs N]\n"
      "                    [--fault-rate F] [--kill-rate F]\n"
      "                    [--kinds a,b,c] [--records N] [--rounds N]\n"
      "                    [--work-us N] [--seed S] [--json PATH]\n"
      "                    [--verbose]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  LoadOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto need = [&](int& j) -> std::string {
        if (j + 1 >= argc) usage();
        return argv[++j];
      };
      if (a == "--port") {
        opt.port = static_cast<std::uint16_t>(
            fg::util::parse_int(need(i), "--port", 1, 65535));
      } else if (a == "--clients") {
        opt.clients =
            static_cast<int>(fg::util::parse_int(need(i), "--clients", 1, 64));
      } else if (a == "--jobs") {
        opt.jobs_per_client =
            static_cast<int>(fg::util::parse_int(need(i), "--jobs", 1, 10000));
      } else if (a == "--fault-rate") {
        opt.fault_rate = std::stod(need(i));
      } else if (a == "--kill-rate") {
        opt.kill_rate = std::stod(need(i));
      } else if (a == "--kinds") {
        opt.kinds.clear();
        std::string list = need(i);
        std::size_t start = 0;
        while (start <= list.size()) {
          const std::size_t comma = list.find(',', start);
          const std::string kind =
              list.substr(start, comma == std::string::npos ? std::string::npos
                                                            : comma - start);
          if (!kind.empty()) opt.kinds.push_back(kind);
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
        if (opt.kinds.empty()) usage();
      } else if (a == "--records") {
        opt.records = fg::util::parse_u64(need(i), "--records");
      } else if (a == "--rounds") {
        opt.rounds = fg::util::parse_u64(need(i), "--rounds");
      } else if (a == "--work-us") {
        opt.work_us = static_cast<std::uint32_t>(
            fg::util::parse_int(need(i), "--work-us", 0, 10'000'000));
      } else if (a == "--seed") {
        opt.seed = fg::util::parse_u64(need(i), "--seed");
      } else if (a == "--json") {
        opt.json_path = need(i);
      } else if (a == "--verbose") {
        fg::util::Log::set_level(fg::util::LogLevel::kInfo);
      } else {
        usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fgserve_load: %s\n", e.what());
    return 2;
  }
  if (opt.port == 0) usage();

  std::vector<Tally> tallies(static_cast<std::size_t>(opt.clients));
  std::atomic<bool> hard_fail{false};
  fg::util::Stopwatch wall;
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(opt.clients));
    for (int c = 0; c < opt.clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          client_loop(opt, c, tallies[static_cast<std::size_t>(c)],
                      hard_fail);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "fgserve_load: client %d: %s\n", c, e.what());
          hard_fail.store(true);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double secs = wall.elapsed_seconds();

  Tally total;
  for (const Tally& t : tallies) total.merge(t);
  const double jobs_per_sec =
      secs > 0 ? static_cast<double>(total.completed) / secs : 0.0;
  const double p50_ms = percentile(total.latencies, 50) * 1000.0;
  const double p99_ms = percentile(total.latencies, 99) * 1000.0;

  std::printf(
      "fgserve_load: %llu submitted, %llu accepted, %llu completed, "
      "%llu expected-failed, %llu unexpected-failed, %llu cancelled, "
      "%llu shed(busy), %llu clients killed, %llu audit failures "
      "in %.2fs (%.1f jobs/s, p50 %.1f ms, p99 %.1f ms)\n",
      static_cast<unsigned long long>(total.submitted),
      static_cast<unsigned long long>(total.accepted),
      static_cast<unsigned long long>(total.completed),
      static_cast<unsigned long long>(total.failed_expected),
      static_cast<unsigned long long>(total.failed_unexpected),
      static_cast<unsigned long long>(total.cancelled),
      static_cast<unsigned long long>(total.rejected_busy),
      static_cast<unsigned long long>(total.clients_killed),
      static_cast<unsigned long long>(total.audit_failures), secs,
      jobs_per_sec, p50_ms, p99_ms);

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    out << "{\"bench\":\"serve\",\"clients\":" << opt.clients
        << ",\"jobs_per_client\":" << opt.jobs_per_client
        << ",\"fault_rate\":" << opt.fault_rate
        << ",\"kill_rate\":" << opt.kill_rate
        << ",\"seconds\":" << secs << ",\"jobs_per_sec\":" << jobs_per_sec
        << ",\"p50_ms\":" << p50_ms << ",\"p99_ms\":" << p99_ms
        << ",\"submitted\":" << total.submitted
        << ",\"accepted\":" << total.accepted
        << ",\"completed\":" << total.completed
        << ",\"failed_expected\":" << total.failed_expected
        << ",\"failed_unexpected\":" << total.failed_unexpected
        << ",\"cancelled\":" << total.cancelled
        << ",\"rejected_busy\":" << total.rejected_busy
        << ",\"clients_killed\":" << total.clients_killed
        << ",\"audit_failures\":" << total.audit_failures << "}\n";
  }

  const bool ok = !hard_fail.load() && total.failed_unexpected == 0 &&
                  total.audit_failures == 0 && total.completed > 0;
  return ok ? 0 : 1;
}
