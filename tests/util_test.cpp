// Unit tests for the fg::util substrate: RNG determinism and quality
// smoke checks, latency cost arithmetic, timers, table/format rendering,
// and a mutation fuzz of the strict parsers.
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/latency.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace fg::util {
namespace {

TEST(SplitMix64, DeterministicStream) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_EQ(same, 0);
}

TEST(Mix64, IsInjectiveOnSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(Xoshiro256, DeterministicStream) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, BelowRespectsBound) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro256, BelowCoversRange) {
  Xoshiro256 rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, Uniform01InUnitInterval) {
  Xoshiro256 rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(StandardNormal, MeanAndVariance) {
  Xoshiro256 rng(23);
  constexpr int kN = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = standard_normal(rng);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / kN - mean * mean, 1.0, 0.05);
}

TEST(Poisson, MeanMatchesLambda) {
  Xoshiro256 rng(29);
  constexpr int kN = 20000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = poisson(rng, 1.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 1.0, 0.05);
}

TEST(LatencyModel, FreeModelHasNoCost) {
  const LatencyModel m = LatencyModel::free();
  EXPECT_TRUE(m.is_free());
  EXPECT_EQ(m.cost(1 << 20), Duration::zero());
}

TEST(LatencyModel, SetupOnly) {
  const LatencyModel m(std::chrono::microseconds(100), 0);
  EXPECT_FALSE(m.is_free());
  EXPECT_EQ(m.cost(0), std::chrono::microseconds(100));
  EXPECT_EQ(m.cost(1 << 30), std::chrono::microseconds(100));
}

TEST(LatencyModel, BandwidthScalesWithBytes) {
  const LatencyModel m = LatencyModel::of(0, 1);  // 1 MiB/s
  EXPECT_NEAR(to_seconds(m.cost(1024 * 1024)), 1.0, 1e-6);
  EXPECT_NEAR(to_seconds(m.cost(512 * 1024)), 0.5, 1e-6);
}

TEST(LatencyModel, OfCombinesSetupAndBandwidth) {
  const LatencyModel m = LatencyModel::of(1000, 1);  // 1ms + 1 MiB/s
  EXPECT_NEAR(to_seconds(m.cost(1024 * 1024)), 1.001, 1e-6);
}

TEST(LatencyModel, ChargeSleepsApproximately) {
  const LatencyModel m = LatencyModel::of(20000, 0);  // 20 ms setup
  Stopwatch sw;
  m.charge(0);
  EXPECT_GE(sw.elapsed_seconds(), 0.018);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GE(sw.elapsed_seconds(), 0.025);
  sw.restart();
  EXPECT_LT(sw.elapsed_seconds(), 0.02);
}

TEST(IntervalTimer, AccumulatesIntervals) {
  IntervalTimer t;
  for (int i = 0; i < 3; ++i) {
    ScopedInterval s(t);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(t.total_seconds(), 0.025);
  t.reset();
  EXPECT_EQ(t.total(), Duration::zero());
}

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.header({"name", "value"});
  t.row({"alpha", "1.5"});
  t.row({"b", "22.25"});
  const std::string s = t.render();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.25"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, HandlesShortRowsAndRules) {
  TextTable t;
  t.header({"a", "b", "c"});
  t.row({"x"});
  t.rule();
  t.row({"y", "2", "3"});
  EXPECT_NO_THROW(t.render());
}

TEST(Format, Seconds) {
  EXPECT_EQ(fmt_seconds(1.23456, 3), "1.235");
  EXPECT_EQ(fmt_seconds(0.0, 1), "0.0");
}

TEST(Format, Percent) {
  EXPECT_EQ(fmt_percent(0.8123, 1), "81.2%");
}

TEST(Format, Bytes) {
  EXPECT_EQ(fmt_bytes(512), "512.0 B");
  EXPECT_EQ(fmt_bytes(64ULL << 20), "64.0 MiB");
  EXPECT_EQ(fmt_bytes(3ULL << 30), "3.0 GiB");
}

TEST(Log, LevelsGateOutput) {
  const LogLevel old = Log::level();
  Log::set_level(LogLevel::kError);
  EXPECT_FALSE(Log::enabled(LogLevel::kInfo));
  EXPECT_TRUE(Log::enabled(LogLevel::kError));
  Log::set_level(LogLevel::kDebug);
  EXPECT_TRUE(Log::enabled(LogLevel::kInfo));
  Log::set_level(old);
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzz of the strict parsers.  Hostile input must either
// parse or throw the parser's own error type; anything else escaping, or
// a crash (the ASan+UBSan configuration runs this too), is a bug.
// ---------------------------------------------------------------------------

/// Apply one to four random edits to `s`: flip a bit, insert a byte,
/// delete a run, truncate, or splice in a slice of another corpus entry.
std::string mutate(std::string s, const std::vector<std::string>& corpus,
                   Xoshiro256& rng) {
  const std::uint64_t edits = 1 + rng.below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.below(s.size() + 1);
    switch (rng.below(5)) {
      case 0:
        if (pos < s.size()) {
          s[pos] = static_cast<char>(s[pos] ^ (1 << rng.below(8)));
        }
        break;
      case 1:
        s.insert(pos, 1, static_cast<char>(rng.below(256)));
        break;
      case 2:
        s.erase(pos, 1 + rng.below(8));
        break;
      case 3:
        s.resize(pos);
        break;
      default: {
        const std::string& o = corpus[rng.below(corpus.size())];
        const std::size_t from = rng.below(o.size() + 1);
        s.insert(pos, o, from, 1 + rng.below(16));
        break;
      }
    }
  }
  return s;
}

TEST(ParserFuzz, MutatedInputsParseOrThrowTheirOwnError) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "a \"quoted\" value\twith \u00e9");
  w.key("values");
  w.begin_array();
  w.value(-7);
  w.value(2.5e-3);
  w.value(true);
  w.null();
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.kv("wall_seconds", 0.125);
  w.end_object();
  w.end_object();
  const std::vector<std::string> json = {
      w.str(),
      R"({"a":[1,-0,1e300,{"b":"\ud83d\ude00\n"}],"c":{}})",
      R"([[[[[]]]],"x",false,null])",
      "0",
      R"("esc \" \\ \/ \b \f \r \t")",
  };
  const std::vector<std::string> specs = {
      "disk.read.error=nth:40x3;fabric.crash=once:25@3;"
      "disk.write.error=always+200",
      "stage.throw=once:7",
      "disk.read.error=nth:5",
      "fabric.delay=p:0.01",
      "disk.write.error=always@2147483647",
  };

  Xoshiro256 rng(0x5eed);
  constexpr int kMutations = 20000;
  int json_ok = 0, json_rejected = 0, spec_ok = 0, spec_rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    const bool is_json = i % 2 == 0;
    const std::vector<std::string>& corpus = is_json ? json : specs;
    const std::string in =
        mutate(corpus[rng.below(corpus.size())], corpus, rng);
    try {
      if (is_json) {
        (void)Json::parse(in);
        ++json_ok;
      } else {
        fault::Injector inj(1);
        fault::apply_spec(inj, in);
        ++spec_ok;
      }
    } catch (const JsonParseError&) {
      EXPECT_TRUE(is_json) << "spec parser threw JsonParseError on " << in;
      ++json_rejected;
    } catch (const std::invalid_argument&) {
      EXPECT_FALSE(is_json) << "Json::parse threw invalid_argument on " << in;
      ++spec_rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unexpected exception on input '" << in
                    << "': " << e.what();
    }
  }
  // The mutations must exercise both outcomes of both parsers.
  EXPECT_GT(json_ok, 0);
  EXPECT_GT(json_rejected, 0);
  EXPECT_GT(spec_ok, 0);
  EXPECT_GT(spec_rejected, 0);
}

}  // namespace
}  // namespace fg::util
