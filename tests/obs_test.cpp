// Round-trip tests for the observability layer: the strict JSON parser
// against the JsonWriter, span rings and their drop accounting, the
// metrics registry (histogram bucket invariants), an end-to-end traced
// pipeline whose Chrome-trace export must parse, pass the fgtrace
// structural checks, and name the deliberately slow stage as the
// bottleneck, and traced sorts whose disk spans account for their I/O.
#include "comm/cluster.hpp"
#include "core/fg.hpp"
#include "obs/analyze.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/session.hpp"
#include "pdm/workspace.hpp"
#include "sort/csort.hpp"
#include "sort/dataset.hpp"
#include "sort/dsort.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace fg {
namespace {

// ---------------------------------------------------------------------
// Strict JSON parser.
// ---------------------------------------------------------------------

TEST(Json, ParsesScalarsAndNesting) {
  const util::Json doc = util::Json::parse(
      R"({"a": 1.5, "b": [true, false, null, "x\u00e9\n"], "c": {"d": -2e3}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("a").number(), 1.5);
  ASSERT_EQ(doc.at("b").size(), 4u);
  EXPECT_TRUE(doc.at("b").at(0u).boolean());
  EXPECT_FALSE(doc.at("b").at(1u).boolean());
  EXPECT_TRUE(doc.at("b").at(2u).is_null());
  EXPECT_EQ(doc.at("b").at(3u).string(), "x\xc3\xa9\n");
  EXPECT_DOUBLE_EQ(doc.at("c").at("d").number(), -2000.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  const char* bad[] = {
      "",                      // empty
      "{",                     // unterminated object
      "[1,]",                  // trailing comma
      "{\"a\":1,}",            // trailing comma in object
      "{'a':1}",               // single quotes
      "{\"a\":1} extra",       // trailing content
      "[01]",                  // leading zero
      "[1.]",                  // bare decimal point
      "[+1]",                  // leading plus
      "[NaN]",                 // not in the grammar
      "\"\x01\"",              // unescaped control character
      "{\"a\":1,\"a\":2}",     // duplicate key
      "[\"\\ud800\"]",         // lone surrogate
  };
  for (const char* t : bad) {
    EXPECT_THROW(util::Json::parse(t), util::JsonParseError) << t;
  }
}

TEST(Json, U64RejectsFractionsAndNegatives) {
  EXPECT_EQ(util::Json::parse("42").u64(), 42u);
  EXPECT_THROW(util::Json::parse("-1").u64(), std::runtime_error);
  EXPECT_THROW(util::Json::parse("1.5").u64(), std::runtime_error);
}

TEST(Json, RoundTripsJsonWriterOutput) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("name", "a \"quoted\" value\twith tabs");
  w.key("values");
  w.begin_array();
  for (int i = 0; i < 5; ++i) w.value(i);
  w.end_array();
  w.kv("pi", 3.14159);
  w.end_object();
  const util::Json doc = util::Json::parse(w.str());
  EXPECT_EQ(doc.at("name").string(), "a \"quoted\" value\twith tabs");
  EXPECT_EQ(doc.at("values").size(), 5u);
  EXPECT_DOUBLE_EQ(doc.at("pi").number(), 3.14159);
}

// ---------------------------------------------------------------------
// Span rings.
// ---------------------------------------------------------------------

TEST(SpanRing, KeepsNewestWhenOverflowed) {
  const auto epoch = util::Clock::now();
  obs::SpanRing ring("w", 4, epoch);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto t = epoch + std::chrono::nanoseconds(i * 100);
    ring.emit(obs::SpanKind::kStageWork, 0, i, t, t);
  }
  EXPECT_EQ(ring.emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);  // flight recorder: oldest overwritten
  const auto spans = ring.drain();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].value, 6u + i);
}

TEST(SpanRing, ScopedSpanIsNoopWithoutAmbientRing) {
  ASSERT_EQ(obs::current_ring(), nullptr);
  { obs::ScopedSpan s(obs::SpanKind::kDiskRead, 0, 64); }
  // Nothing to assert beyond "did not crash": with no ring installed the
  // span must not write anywhere.
  const auto epoch = util::Clock::now();
  obs::SpanRing ring("w", 8, epoch);
  {
    obs::RingScope scope(&ring);
    obs::ScopedSpan s(obs::SpanKind::kDiskRead, 3, 64);
  }
  EXPECT_EQ(obs::current_ring(), nullptr);  // restored
  const auto spans = ring.drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kDiskRead);
  EXPECT_EQ(spans[0].scope, 3u);
  EXPECT_EQ(spans[0].value, 64u);
  EXPECT_GE(spans[0].end_ns, spans[0].begin_ns);
}

// ---------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------

TEST(Histogram, BucketCountsSumToCount) {
  obs::Histogram h;
  const std::uint64_t values[] = {0, 1, 1, 2, 3, 7, 8, 100, 5000, 1u << 20};
  std::uint64_t sum = 0;
  for (std::uint64_t v : values) {
    h.record(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), std::size(values));
  EXPECT_EQ(h.sum(), sum);
  std::uint64_t bucket_sum = 0;
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b)
    bucket_sum += h.bucket(b);
  EXPECT_EQ(bucket_sum, h.count());
  // Log2 bucketing: value 0 in bucket 0, value v>=1 in bucket
  // floor(log2 v)+1.
  EXPECT_EQ(h.bucket(0), 1u);  // the single 0
  EXPECT_EQ(h.bucket(1), 2u);  // the two 1s
  EXPECT_EQ(h.bucket(2), 2u);  // 2 and 3
  // Percentiles are bucket upper bounds and must be monotone.
  EXPECT_LE(h.percentile(50), h.percentile(95));
  EXPECT_LE(h.percentile(95), h.percentile(99));
  EXPECT_GE(h.percentile(99), 5000u);
  EXPECT_EQ(obs::Histogram{}.percentile(99), 0u);
}

TEST(Registry, JsonExportParsesAndPreservesInvariants) {
  obs::Registry reg;
  reg.counter("pipeline.rounds").add(55);
  reg.gauge("queue.0.depth").set(3);
  auto& h = reg.histogram("disk.read_us");
  for (std::uint64_t v : {10u, 20u, 400u, 400u, 9000u}) h.record(v);

  util::JsonWriter w;
  reg.write_json(w);
  const util::Json doc = util::Json::parse(w.str());
  EXPECT_EQ(doc.at("counters").at("pipeline.rounds").u64(), 55u);
  EXPECT_EQ(doc.at("gauges").at("queue.0.depth").u64(), 3u);
  const util::Json& hist = doc.at("histograms").at("disk.read_us");
  EXPECT_EQ(hist.at("count").u64(), 5u);
  std::uint64_t bucket_sum = 0;
  for (const auto& pair : hist.at("buckets").array())
    bucket_sum += pair.at(1u).u64();
  EXPECT_EQ(bucket_sum, 5u);
  EXPECT_LE(hist.at("p50").u64(), hist.at("p99").u64());

  EXPECT_EQ(reg.counter_value("pipeline.rounds"), 55u);
  EXPECT_EQ(reg.counter_value("never.created"), 0u);
  const auto depths = reg.gauges_with_prefix("queue.");
  ASSERT_EQ(depths.size(), 1u);
  EXPECT_EQ(depths[0].second, 3);
}

// ---------------------------------------------------------------------
// End-to-end: traced pipeline graph -> Chrome trace -> analyzer.
// ---------------------------------------------------------------------

/// Three-stage pipeline where "slow" dawdles; every layer downstream
/// should agree that it is the bottleneck.
struct TracedRun {
  obs::Session session;
  util::Json trace;
  std::vector<StageStats> stats;

  explicit TracedRun(std::uint64_t rounds) {
    PipelineGraph g;
    PipelineConfig cfg;
    cfg.name = "p";
    cfg.num_buffers = 3;
    cfg.buffer_bytes = 256;
    cfg.rounds = rounds;
    auto& p = g.add_pipeline(cfg);
    MapStage fast("fast", [](Buffer& b) {
      b.set_size(8);
      return StageAction::kConvey;
    });
    MapStage slow("slow", [](Buffer&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return StageAction::kConvey;
    });
    p.add_stage(fast);
    p.add_stage(slow);
    g.set_observability(&session);
    g.run();
    session.finalize();
    trace = util::Json::parse(obs::chrome_trace_json(session.spans()));
    stats = g.stats();
  }
};

TEST(ChromeTrace, ExportIsWellFormedAndDense) {
  TracedRun run(12);
  const auto problems = obs::check_trace(run.trace);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
  EXPECT_TRUE(obs::is_chrome_trace(run.trace));
  EXPECT_EQ(run.session.spans().total_dropped(), 0u);

  // One thread_name metadata event per ring (source, fast, slow, sink).
  std::set<std::string> names;
  std::set<std::uint64_t> rounds_seen;
  for (const auto& e : run.trace.at("traceEvents").array()) {
    if (e.at("ph").string() == "M") {
      names.insert(e.at("args").at("name").string());
    } else if (e.at("ph").string() == "X" &&
               e.at("name").string() == "round") {
      rounds_seen.insert(e.at("args").at("round").u64());
    }
  }
  EXPECT_EQ(names, (std::set<std::string>{"source", "fast", "slow", "sink"}));
  // Round spans are dense: every round the source emitted reached the
  // sink exactly once.
  ASSERT_EQ(rounds_seen.size(), 12u);
  EXPECT_EQ(*rounds_seen.begin(), 0u);
  EXPECT_EQ(*rounds_seen.rbegin(), 11u);
}

TEST(ChromeTrace, AnalyzerNamesTheSlowStageAsBottleneck) {
  TracedRun run(15);
  const obs::OverlapReport rep = obs::analyze_trace(run.trace);
  EXPECT_EQ(rep.bottleneck, "slow");
  EXPECT_EQ(rep.rounds, 15u);
  EXPECT_GT(rep.wall_s, 0.0);
  EXPECT_GT(rep.bottleneck_occupancy, 0.0);
  EXPECT_LE(rep.bottleneck_occupancy, 1.0);
  EXPECT_LE(rep.critical_path_s, rep.wall_s * 1.05);
  for (const auto& s : rep.stages) {
    if (s.stage == "slow") continue;
    EXPECT_GT(rep.bottleneck_occupancy, s.occupancy) << s.stage;
  }
  ASSERT_FALSE(rep.slow_rounds.empty());
  EXPECT_EQ(rep.slow_rounds.front().stalled_stage, "slow");

  // The trace's verdict must be consistent with StageStats: the stage
  // with the highest working-time share is the same.
  double best = -1;
  std::string best_stage;
  for (const auto& s : run.stats) {
    const double denom = util::to_seconds(s.working) +
                         util::to_seconds(s.accept_blocked) +
                         util::to_seconds(s.convey_blocked);
    const double occ = denom > 0 ? util::to_seconds(s.working) / denom : 0;
    if (occ > best) {
      best = occ;
      best_stage = s.stage;
    }
  }
  EXPECT_EQ(best_stage, "slow");

  const std::string text = obs::render_report(rep);
  EXPECT_NE(text.find("bottleneck"), std::string::npos);
  EXPECT_NE(text.find("slow"), std::string::npos);

  util::JsonWriter w;
  obs::write_report_json(w, rep);
  const util::Json rj = util::Json::parse(w.str());
  EXPECT_EQ(rj.at("bottleneck").string(), "slow");
}

TEST(ChromeTrace, SessionFinalizePopulatesLatencyHistograms) {
  TracedRun run(10);
  const obs::Registry& m = run.session.metrics();
  EXPECT_EQ(m.counter_value("pipeline.rounds"), 10u);
  util::JsonWriter w;
  m.write_json(w);
  const util::Json doc = util::Json::parse(w.str());
  const util::Json& hists = doc.at("histograms");
  ASSERT_NE(hists.find("pipeline.stage_work_us"), nullptr);
  ASSERT_NE(hists.find("pipeline.round_latency_us"), nullptr);
  EXPECT_EQ(hists.at("pipeline.round_latency_us").at("count").u64(), 10u);
  // The slow stage sleeps 2 ms per buffer, so p99 stage work is at least
  // one log2 bucket above 1 ms.
  EXPECT_GE(hists.at("pipeline.stage_work_us").at("p99").u64(), 2000u);
}

TEST(CheckTrace, FlagsStructuralProblems) {
  EXPECT_FALSE(obs::is_chrome_trace(util::Json::parse("{\"stages\":[]}")));
  // Missing thread_name for a referenced tid.
  const util::Json no_name = util::Json::parse(
      R"({"traceEvents":[{"ph":"X","name":"work","cat":"stage","pid":0,)"
      R"("tid":7,"ts":0,"dur":1,"args":{"pipeline":0,"round":0}}]})");
  EXPECT_FALSE(obs::check_trace(no_name).empty());
  // Negative duration = unpaired span.
  const util::Json neg = util::Json::parse(
      R"({"traceEvents":[{"ph":"M","name":"thread_name","pid":0,"tid":0,)"
      R"("args":{"name":"w"}},{"ph":"X","name":"work","cat":"stage",)"
      R"("pid":0,"tid":0,"ts":5,"dur":-1,"args":{"pipeline":0,"round":0}}]})");
  EXPECT_FALSE(obs::check_trace(neg).empty());
  // fgtrace report reads a work or convey-wait span's pipeline and round;
  // without them --check used to pass and the report to fail.
  const util::Json no_args = util::Json::parse(
      R"({"traceEvents":[{"ph":"M","name":"thread_name","pid":0,"tid":0,)"
      R"("args":{"name":"w"}},{"ph":"X","name":"work","cat":"stage",)"
      R"("pid":0,"tid":0,"ts":5,"dur":1}]})");
  EXPECT_FALSE(obs::check_trace(no_args).empty());
  const util::Json string_round = util::Json::parse(
      R"({"traceEvents":[{"ph":"M","name":"thread_name","pid":0,"tid":0,)"
      R"("args":{"name":"w"}},{"ph":"X","name":"convey-wait","cat":"queue",)"
      R"("pid":0,"tid":0,"ts":5,"dur":1,"args":{"pipeline":0,"round":"7"}}]})");
  EXPECT_FALSE(obs::check_trace(string_round).empty());
  // The report names tracks from thread_name's args.name.
  const util::Json numeric_name = util::Json::parse(
      R"({"traceEvents":[{"ph":"M","name":"thread_name","pid":0,"tid":0,)"
      R"("args":{"name":3}}]})");
  EXPECT_FALSE(obs::check_trace(numeric_name).empty());
}

TEST(CheckStats, ValidatesFgsortShapedBlobs) {
  // A minimal well-formed programs[] blob.
  const util::Json good = util::Json::parse(
      R"({"programs":[{"program":"dsort","times":{"total_s":1.0},)"
      R"("stages":[{"stage":"read","pipelines":"p","buffers":4,)"
      R"("working_s":0.5,"accept_blocked_s":0.1,"convey_blocked_s":0.2}]}]})");
  EXPECT_TRUE(obs::check_stats(good).empty());
  // A stage entry missing its timings must be flagged.
  const util::Json bad = util::Json::parse(
      R"({"programs":[{"program":"dsort","times":{"total_s":1.0},)"
      R"("stages":[{"stage":"read","pipelines":"p"}]}]})");
  EXPECT_FALSE(obs::check_stats(bad).empty());
  // The report reads total_s and wall_seconds as wall times; a string
  // there used to pass the check and fail the report.
  const util::Json string_total = util::Json::parse(
      R"({"programs":[{"program":"dsort","times":{"total_s":"1.0"},)"
      R"("stages":[{"stage":"read","pipelines":"p","buffers":4,)"
      R"("working_s":0.5,"accept_blocked_s":0.1,"convey_blocked_s":0.2}]}]})");
  EXPECT_FALSE(obs::check_stats(string_total).empty());
  const util::Json string_wall = util::Json::parse(
      R"({"wall_seconds":"1.0","stages":[{"stage":"read","pipelines":"p",)"
      R"("buffers":4,"working_s":0.5,"accept_blocked_s":0.1,)"
      R"("convey_blocked_s":0.2}]})");
  EXPECT_FALSE(obs::check_stats(string_wall).empty());
}

// ---------------------------------------------------------------------
// Disk spans of traced sorts.
// ---------------------------------------------------------------------

// The sort stages do their own disk I/O, so the trace sees every byte a
// run writes, and each disk span lies inside a stage-work span of its
// own track (a stage blocked in a transfer is busy, not idle).
void expect_disk_spans_account_for_io(bool columnsort) {
  sort::SortConfig cfg;
  cfg.nodes = 4;
  cfg.records = 8000;
  cfg.record_bytes = 16;
  cfg.block_records = 64;
  cfg.buffer_records = 256;
  cfg.num_buffers = 3;
  cfg.merge_buffer_records = 64;
  cfg.merge_num_buffers = 2;
  cfg.out_buffer_records = 256;
  cfg.oversample = 32;
  if (columnsort) {
    cfg.records = sort::csort_compatible_records(cfg.records, cfg.nodes,
                                                 cfg.block_records);
  }
  pdm::Workspace ws(cfg.nodes);
  comm::SimCluster cluster(cfg.nodes);
  sort::generate_input(ws, cfg);
  for (int n = 0; n < cfg.nodes; ++n) ws.disk(n).reset_stats();
  obs::Session session(1u << 16);
  cfg.obs = &session;
  if (columnsort) {
    sort::run_csort(cluster, ws, cfg);
  } else {
    sort::run_dsort(cluster, ws, cfg);
  }
  ASSERT_EQ(session.spans().total_dropped(), 0u);

  std::uint64_t written = 0;
  for (int n = 0; n < cfg.nodes; ++n) {
    written += ws.disk(n).stats().bytes_written;
  }
  std::uint64_t span_bytes = 0;
  for (const obs::TrackSpans& t : session.spans().tracks()) {
    std::vector<obs::SpanRecord> work;
    for (const obs::SpanRecord& s : t.spans) {
      if (s.kind == obs::SpanKind::kStageWork) work.push_back(s);
    }
    for (const obs::SpanRecord& s : t.spans) {
      if (s.kind != obs::SpanKind::kDiskRead &&
          s.kind != obs::SpanKind::kDiskWrite &&
          s.kind != obs::SpanKind::kDiskRetry) {
        continue;
      }
      if (s.kind == obs::SpanKind::kDiskWrite) span_bytes += s.value;
      EXPECT_TRUE(std::any_of(work.begin(), work.end(),
                              [&](const obs::SpanRecord& w) {
                                return w.begin_ns <= s.begin_ns &&
                                       s.end_ns <= w.end_ns;
                              }))
          << "disk span outside stage work on track " << t.name;
    }
  }
  EXPECT_GT(written, 0u);
  EXPECT_EQ(span_bytes, written);
}

TEST(DiskSpans, DsortTraceAccountsForEveryByteWritten) {
  expect_disk_spans_account_for_io(/*columnsort=*/false);
}

TEST(DiskSpans, CsortTraceAccountsForEveryByteWritten) {
  expect_disk_spans_account_for_io(/*columnsort=*/true);
}

// ---------------------------------------------------------------------
// merge_stage_stats (satellite: now map-based).
// ---------------------------------------------------------------------

TEST(StageStatsMerge, MergesByLabelPairAndPreservesOrder) {
  auto entry = [](const char* stage, const char* pipes, std::uint64_t n) {
    StageStats s;
    s.stage = stage;
    s.pipelines = pipes;
    s.buffers = n;
    s.working = std::chrono::milliseconds(n);
    return s;
  };
  std::vector<StageStats> into{entry("read", "p", 1), entry("sort", "p", 2)};
  merge_stage_stats(into, {entry("sort", "p", 3), entry("read", "q", 4),
                           entry("write", "p", 5)});
  merge_stage_stats(into, {entry("read", "p", 10)});
  ASSERT_EQ(into.size(), 4u);
  EXPECT_EQ(into[0].stage, "read");
  EXPECT_EQ(into[0].pipelines, "p");
  EXPECT_EQ(into[0].buffers, 11u);  // 1 + 10
  EXPECT_EQ(into[0].working, std::chrono::milliseconds(11));
  EXPECT_EQ(into[1].buffers, 5u);   // sort: 2 + 3
  EXPECT_EQ(into[2].stage, "read");           // read/q distinct from read/p
  EXPECT_EQ(into[2].pipelines, "q");
  EXPECT_EQ(into[3].stage, "write");
}

}  // namespace
}  // namespace fg
