// fgserve — the persistent, fault-isolated pipeline service.
//
//   fgserve [--port P] [--slots N] [--queue N] [--watchdog-ms N]
//           [--pool-quota BYTES] [--disk-quota BYTES]
//           [--drain-deadline-ms N] [--root DIR] [--port-file PATH]
//           [--verbose]
//
// Runs until SIGTERM or SIGINT, then drains gracefully: admission stops
// (new submits get REJECTED "draining"), running and queued jobs finish
// or are cancelled at the drain deadline, every client hears its
// results, and the process exits 0 with the final registry stats flushed
// to stderr.  The CI chaos gate asserts exactly this exit path.
//
// Each job's graphs run one thread per stage, like every FG graph, for
// as long as the job runs; --slots bounds how many jobs run at once.
//
// --port 0 (the default) binds an ephemeral port; --port-file writes the
// bound port to a file so a driver script can find the server without a
// port race.
#include "serve/server.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: fgserve [--port P] [--slots N] [--queue N]\n"
      "               [--watchdog-ms N] [--pool-quota BYTES]\n"
      "               [--disk-quota BYTES] [--drain-deadline-ms N]\n"
      "               [--root DIR] [--port-file PATH] [--verbose]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  fg::serve::ServerOptions opts;
  std::string port_file;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto need = [&](int& j) -> std::string {
        if (j + 1 >= argc) usage();
        return argv[++j];
      };
      if (a == "--port") {
        opts.port = static_cast<std::uint16_t>(
            fg::util::parse_int(need(i), "--port", 0, 65535));
      } else if (a == "--slots") {
        opts.max_running =
            static_cast<int>(fg::util::parse_int(need(i), "--slots", 1, 64));
      } else if (a == "--queue") {
        opts.max_queued =
            static_cast<int>(fg::util::parse_int(need(i), "--queue", 0, 4096));
      } else if (a == "--watchdog-ms") {
        opts.watchdog_ms = static_cast<std::uint32_t>(
            fg::util::parse_int(need(i), "--watchdog-ms", 0, 3'600'000));
      } else if (a == "--pool-quota") {
        opts.pool_quota_bytes = fg::util::parse_u64(need(i), "--pool-quota");
      } else if (a == "--disk-quota") {
        opts.disk_quota_bytes = fg::util::parse_u64(need(i), "--disk-quota");
      } else if (a == "--drain-deadline-ms") {
        opts.drain_deadline_ms = static_cast<std::uint32_t>(
            fg::util::parse_int(need(i), "--drain-deadline-ms", 0,
                                3'600'000));
      } else if (a == "--root") {
        opts.root = need(i);
      } else if (a == "--port-file") {
        port_file = need(i);
      } else if (a == "--verbose") {
        fg::util::Log::set_level(fg::util::LogLevel::kInfo);
      } else {
        usage();
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fgserve: %s\n", e.what());
    return 2;
  }

  // SIGTERM/SIGINT only set a flag; the loop below turns it into a
  // drain.  (Server::request_drain takes locks, so it cannot be called
  // from the handler itself.)
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  fg::serve::Server server(opts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fgserve: %s\n", e.what());
    return 1;
  }
  std::printf("fgserve: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
  }

  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "fgserve: signal %d, draining\n",
               static_cast<int>(g_signal));
  const int rc = server.wait();
  // Final stats flush: the drain contract includes leaving a machine-
  // readable record of what the server did.
  std::fprintf(stderr, "fgserve: final stats: %s\n",
               server.stats_json().c_str());
  return rc;
}
