// CLI regression tests for the shipped tools, run against the real
// binaries (paths arrive via argv from CMake, so this file has a custom
// main).  The satellite bug these pin down: numeric flags used to go
// through atoi/stoul, so "--nodes banana" silently became 0 nodes and
// failed far from the typo.  Every garbage flag must now exit with a
// diagnostic that names the flag and echoes the offending value.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace {

std::string g_fgsort;
std::string g_fgnode;
std::string g_fgtrace;

struct RunResult {
  int exit_code{-1};
  std::string output;  // stdout + stderr, interleaved
};

RunResult run(const std::string& cmd) {
  RunResult r;
  FILE* p = ::popen((cmd + " 2>&1").c_str(), "r");
  if (p == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), p)) > 0) {
    r.output.append(buf.data(), n);
  }
  const int status = ::pclose(p);
  if (status >= 0 && WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

void expect_flag_diagnostic(const RunResult& r, int want_exit,
                            const std::string& flag,
                            const std::string& value) {
  EXPECT_EQ(r.exit_code, want_exit) << r.output;
  EXPECT_NE(r.output.find(flag), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(value), std::string::npos) << r.output;
}

TEST(FgsortCli, GarbageNodesNamesTheFlag) {
  expect_flag_diagnostic(run(g_fgsort + " --nodes banana"), 2, "--nodes",
                         "banana");
}

TEST(FgsortCli, TrailingGarbageInRecordsRejected) {
  // atoi would have accepted "128x" as 128.
  expect_flag_diagnostic(run(g_fgsort + " --records 128x"), 2, "--records",
                         "128x");
}

TEST(FgsortCli, OutOfRangeRecordBytesRejected) {
  expect_flag_diagnostic(run(g_fgsort + " --record-bytes 0"), 2,
                         "--record-bytes", "0");
  // Runs need a record of at least 16 bytes (make_record) and at most
  // 64 KiB (the stripe layout); both used to fail only mid-run, exit 3.
  const std::string small_run =
      " --program dsort --nodes 2 --records 4096 --latency none";
  expect_flag_diagnostic(run(g_fgsort + small_run + " --record-bytes 8"), 2,
                         "--record-bytes", "8");
  expect_flag_diagnostic(run(g_fgsort + small_run + " --record-bytes 65537"),
                         2, "--record-bytes", "65537");
}

TEST(FgsortCli, GarbageWatchdogRejected) {
  expect_flag_diagnostic(run(g_fgsort + " --watchdog-ms 5s"), 2,
                         "--watchdog-ms", "5s");
}

TEST(FgsortCli, UnknownLatencyRejected) {
  // Any value other than "paper" used to run silently as latency none.
  expect_flag_diagnostic(run(g_fgsort +
                             " --program dsort --nodes 2 --records 4096"
                             " --latency bogus"),
                         2, "--latency", "bogus");
}

TEST(FgsortCli, UnknownDiskBackendRejected) {
  const RunResult r = run(g_fgsort + " --disk floppy");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("floppy"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("stdio|native"), std::string::npos) << r.output;
}

TEST(FgsortCli, DirectRequiresNativeBackend) {
  const RunResult r = run(g_fgsort + " --direct");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--direct requires --disk native"),
            std::string::npos)
      << r.output;
}

TEST(FgsortCli, SeekAwareRequiresStdioBackend) {
  // Only the simulated spindle charges seeks; a native run used to exit 0
  // labelled "seek-aware" with nothing charged.
  const RunResult r = run(g_fgsort +
                          " --program dsort --nodes 2 --records 4096"
                          " --latency none --disk native --seek-aware");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--seek-aware requires --disk stdio"),
            std::string::npos)
      << r.output;
}

TEST(FgsortCli, TinyNativeRunSucceeds) {
  const RunResult r = run(g_fgsort +
                          " --program dsort --nodes 2 --records 512"
                          " --record-bytes 32 --disk native --latency none");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("disk=native"), std::string::npos) << r.output;
}

TEST(FgsortCli, RunFailureExitsThree) {
  // An injected node crash used to escape main and end in std::terminate.
  const RunResult r = run(g_fgsort +
                          " --program dsort --nodes 4 --records 65536"
                          " --latency none"
                          " --fault-spec 'fabric.crash=once:25@3'");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("fgsort: dsort failed: "), std::string::npos)
      << r.output;
}

TEST(FgsortCli, MalformedFaultSpecIsUsageError) {
  // The spec used to be parsed only inside the run, after dataset
  // generation, so a typo exited 3 ("run failed") instead of 2.
  expect_flag_diagnostic(run(g_fgsort +
                             " --program dsort --nodes 2 --records 4096"
                             " --latency none --fault-spec bogus"),
                         2, "--fault-spec", "bogus");
}

TEST(FgsortCli, NegativeFaultSpecCountRejected) {
  // strtoull read "-1" as 2^64 - 1, so this spec armed a rule that never
  // fired and the run exited 0.
  expect_flag_diagnostic(run(g_fgsort +
                             " --program dsort --nodes 2 --records 4096"
                             " --latency none"
                             " --fault-spec 'disk.read.error=nth:-1'"),
                         2, "--fault-spec", "nth:-1");
}

TEST(FgsortCli, UnknownFlagIsUsageError) {
  // Stages always run one thread each; there is no executor to pick.
  EXPECT_EQ(run(g_fgsort + " --executor tasks").exit_code, 2);
  EXPECT_EQ(run(g_fgsort + " --workers 4").exit_code, 2);
  // Every queue is the one blocking MPMC queue; there is no channel kind
  // to pick.
  EXPECT_EQ(run(g_fgsort +
                " --program dsort --nodes 2 --records 4096 --latency none"
                " --channels mpmc")
                .exit_code,
            2);
}

TEST(FgnodeCli, GarbageNodesNamesTheFlag) {
  expect_flag_diagnostic(run(g_fgnode + " --nodes banana -- true"), 2,
                         "--nodes", "banana");
}

TEST(FgnodeCli, GarbageBasePortRejected) {
  expect_flag_diagnostic(run(g_fgnode + " --nodes 2 --base-port 0 -- true"),
                         2, "--base-port", "0");
}

TEST(FgtraceCli, GarbageTopNamesTheFlag) {
  expect_flag_diagnostic(run(g_fgtrace + " report --top banana /dev/null"), 1,
                         "--top", "banana");
}

TEST(FgtraceCli, MalformedLabelRejected) {
  const RunResult r = run(g_fgtrace + " report --label nokey /dev/null");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("KEY=VALUE"), std::string::npos) << r.output;
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: tools_cli_test FGSORT FGNODE FGTRACE "
                 "(paths to the built tools)\n");
    return 2;
  }
  g_fgsort = argv[1];
  g_fgnode = argv[2];
  g_fgtrace = argv[3];
  return RUN_ALL_TESTS();
}
