// Ablation: multiple disjoint pipelines vs. a single linear pipeline —
// the question the paper poses in its conclusions ("how much faster dsort
// runs with multiple pipelines on each node compared with an
// implementation restricted to single, linear pipelines").
//
// The workload distills dsort's pass 1: every node, every round, fills a
// buffer (simulated disk-read latency) and sends it to a data-dependent
// destination; every received buffer must be written (simulated
// disk-write latency).  Destinations are *skewed*: node d's share of the
// traffic is proportional to d+1, so the heaviest node receives about
// twice the average and the lightest almost nothing — receive rate and
// send rate disagree, which is precisely the situation Section IV's
// disjoint pipelines exist for.
//
//  * multi:  a send pipeline (produce -> send) and a receive pipeline
//    (receive -> write) per node.  The receive side consumes and writes
//    at whatever rate data arrives, overlapping writes with the send
//    side's reads throughout the pass.
//  * single: one pipeline (produce -> comm -> write).  A linear pipeline
//    conveys exactly one buffer per round, so the comm stage can hand at
//    most one received message per round to the write stage; everything
//    beyond that must be stashed in memory (the paper's "buffers begin to
//    pile up within the stage") and written *after* the pipeline drains —
//    an unoverlapped tail of disk writes on the heavy nodes.
//
// The paper's claim to reproduce: multi wins, increasingly so as the
// receive skew grows.  Each (nodes, skew) configuration runs once per
// variant; the table is the output.
#include "comm/cluster.hpp"
#include "core/fg.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <vector>

namespace {

using namespace fg;

constexpr int kTagData = 1;
constexpr int kTagDone = 2;

struct AblationParams {
  int nodes{8};
  std::uint64_t rounds{128};           // per node
  std::size_t buffer_bytes{16 * 1024};
  double skew{2.0};  // heaviest node's receive share vs average
  util::LatencyModel read{util::LatencyModel::of(1500, 100)};
  util::LatencyModel write{util::LatencyModel::of(1500, 100)};
  util::LatencyModel net{util::LatencyModel::of(50, 240)};

  /// Skewed destination choice: node d's probability ~ 1 + (skew-1)*d/(P-1).
  int dest(comm::NodeId me, std::uint64_t t) const {
    const auto p = static_cast<std::uint64_t>(nodes);
    // Deterministic weighted pick without floating point: weight(d) =
    // (P-1) + (d * (P-1) * (skew-1)) rounded; total W; draw in [0, W).
    std::uint64_t weights[64];
    std::uint64_t total = 0;
    for (std::uint64_t d = 0; d < p; ++d) {
      weights[d] = 100 + static_cast<std::uint64_t>(
                             100.0 * (skew - 1.0) * static_cast<double>(d) /
                             static_cast<double>(nodes - 1));
      total += weights[d];
    }
    std::uint64_t draw =
        util::mix64(static_cast<std::uint64_t>(me) * 0x9e37 + t * 31) % total;
    for (std::uint64_t d = 0; d < p; ++d) {
      if (draw < weights[d]) return static_cast<int>(d);
      draw -= weights[d];
    }
    return nodes - 1;
  }
};

/// Disjoint send/receive pipelines (the dsort way).
double run_multi(const AblationParams& ap) {
  comm::SimCluster cluster(ap.nodes, ap.net);
  util::Stopwatch wall;
  cluster.run([&](comm::NodeId me) {
    comm::Fabric& fabric = cluster.fabric();
    PipelineGraph graph;
    PipelineConfig sc;
    sc.name = "send";
    sc.num_buffers = 4;
    sc.buffer_bytes = ap.buffer_bytes;
    sc.rounds = ap.rounds;
    Pipeline& sp = graph.add_pipeline(sc);
    PipelineConfig rc = sc;
    rc.name = "receive";
    rc.rounds = 0;
    Pipeline& rp = graph.add_pipeline(rc);

    MapStage produce("produce", [&](Buffer& b) {
      ap.read.charge(b.capacity());
      b.set_size(b.capacity());
      return StageAction::kConvey;
    });
    MapStage send(
        "send",
        [&, me](Buffer& b) {
          fabric.send(me, ap.dest(me, b.round()), kTagData, b.contents());
          return StageAction::kConvey;
        },
        [&, me](PipelineId) {
          for (int d = 0; d < ap.nodes; ++d) fabric.send(me, d, kTagDone, {});
        });
    sp.add_stage(produce);
    sp.add_stage(send);

    int dones = 0;
    MapStage receive("receive", [&, me](Buffer& b) {
      for (;;) {
        if (dones == ap.nodes) return StageAction::kRecycleAndClose;
        const auto rr =
            fabric.recv(me, comm::kAnySource, comm::kAnyTag, b.data());
        if (rr.tag == kTagDone) {
          ++dones;
          continue;
        }
        b.set_size(rr.bytes);
        return StageAction::kConvey;
      }
    });
    MapStage write("write", [&](Buffer& b) {
      ap.write.charge(b.size());
      return StageAction::kConvey;
    });
    rp.add_stage(receive);
    rp.add_stage(write);
    graph.run();
  });
  return wall.elapsed_seconds();
}

/// One linear pipeline: produce -> comm -> write.  The comm stage sends,
/// then drains whatever has already arrived; but a linear pipeline can
/// convey only one received message per round, so the rest piles up in a
/// stash that is written serially when the pipeline ends.
double run_single(const AblationParams& ap) {
  comm::SimCluster cluster(ap.nodes, ap.net);
  util::Stopwatch wall;
  cluster.run([&](comm::NodeId me) {
    comm::Fabric& fabric = cluster.fabric();
    PipelineGraph graph;
    PipelineConfig pc;
    pc.name = "linear";
    pc.num_buffers = 4;
    pc.buffer_bytes = ap.buffer_bytes;
    pc.rounds = ap.rounds;
    Pipeline& p = graph.add_pipeline(pc);

    std::mutex stash_mutex;
    std::deque<std::size_t> stash;  // sizes of received-but-unwritten msgs
    int dones = 0;
    std::vector<std::byte> tmp(ap.buffer_bytes);

    MapStage produce("produce", [&](Buffer& b) {
      ap.read.charge(b.capacity());
      b.set_size(b.capacity());
      return StageAction::kConvey;
    });
    MapStage comm_stage(
        "comm",
        [&, me](Buffer& b) {
          fabric.send(me, ap.dest(me, b.round()), kTagData, b.contents());
          // Bookkeeping: drain whatever has arrived; the buffer can carry
          // only one message onward, so the overflow goes to the stash.
          bool loaded = false;
          while (dones < ap.nodes &&
                 fabric.probe(me, comm::kAnySource, comm::kAnyTag)) {
            const auto rr =
                fabric.recv(me, comm::kAnySource, comm::kAnyTag, tmp);
            if (rr.tag == kTagDone) {
              ++dones;
              continue;
            }
            if (!loaded) {
              std::memcpy(b.data().data(), tmp.data(), rr.bytes);
              b.set_size(rr.bytes);
              loaded = true;
            } else {
              std::lock_guard<std::mutex> lock(stash_mutex);
              stash.push_back(rr.bytes);
            }
          }
          if (!loaded) b.set_size(0);
          return StageAction::kConvey;
        },
        [&, me](PipelineId) {
          for (int d = 0; d < ap.nodes; ++d) fabric.send(me, d, kTagDone, {});
          // Final drain: everything still in flight lands in the stash.
          while (dones < ap.nodes) {
            const auto rr =
                fabric.recv(me, comm::kAnySource, comm::kAnyTag, tmp);
            if (rr.tag == kTagDone) {
              ++dones;
              continue;
            }
            std::lock_guard<std::mutex> lock(stash_mutex);
            stash.push_back(rr.bytes);
          }
        });
    MapStage write(
        "write",
        [&](Buffer& b) {
          if (b.size() > 0) {
            ap.write.charge(b.size());
          } else {
            // Fairness: an empty round's slot can still retire one
            // stashed message.
            std::size_t bytes = 0;
            {
              std::lock_guard<std::mutex> lock(stash_mutex);
              if (!stash.empty()) {
                bytes = stash.front();
                stash.pop_front();
              }
            }
            if (bytes) ap.write.charge(bytes);
          }
          return StageAction::kConvey;
        },
        [&](PipelineId) {
          // The unoverlapped tail: write out the piled-up messages.
          for (;;) {
            std::size_t bytes;
            {
              std::lock_guard<std::mutex> lock(stash_mutex);
              if (stash.empty()) break;
              bytes = stash.front();
              stash.pop_front();
            }
            ap.write.charge(bytes);
          }
        });
    p.add_stage(produce);
    p.add_stage(comm_stage);
    p.add_stage(write);
    graph.run();
  });
  return wall.elapsed_seconds();
}

}  // namespace

int main() {
  fg::util::TextTable t;
  t.header({"nodes", "receive skew", "single s", "multi s", "multi/single"});
  for (const auto nodes : {4, 8}) {
    for (const auto skew : {1, 2, 4}) {
      AblationParams ap;
      ap.nodes = nodes;
      ap.skew = skew;
      const double single = run_single(ap);
      const double multi = run_multi(ap);
      t.row({std::to_string(nodes), std::to_string(skew),
             fg::util::fmt_seconds(single), fg::util::fmt_seconds(multi),
             fg::util::fmt_percent(multi / single)});
    }
  }
  std::printf("Ablation (paper Section VIII): disjoint pipelines vs a "
              "single linear pipeline\nunder skewed communication.  Lower "
              "multi/single = bigger win for the paper's\nextension; skew 1 "
              "= balanced traffic, where the two should tie.\n");
  std::fputs(t.render().c_str(), stdout);
  return 0;
}
