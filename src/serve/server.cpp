#include "serve/server.hpp"

#include "comm/net_io.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>

namespace fg::serve {

namespace {

std::string reject_payload(std::string_view reason) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("reason", reason);
  w.end_object();
  return w.str();
}

}  // namespace

/// One live client connection.  The reader thread owns the read side;
/// RESULT pushes from runner threads interleave with the reader's
/// synchronous replies under write_mutex, so frames never tear.
struct Server::Connection {
  std::uint64_t id{0};
  int fd{-1};
  std::mutex write_mutex;
  std::thread thread;
  std::atomic<bool> said_bye{false};
  std::atomic<bool> closed{false};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  bool send(MsgType t, std::uint32_t job, std::string_view payload) {
    std::lock_guard<std::mutex> lock(write_mutex);
    return write_frame(fd, t, job, payload);
  }
};

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  if (opts_.max_running < 1) opts_.max_running = 1;
  if (opts_.max_queued < 0) opts_.max_queued = 0;
  limits_.pool_quota_bytes = opts_.pool_quota_bytes;
  limits_.disk_quota_bytes = opts_.disk_quota_bytes;
  limits_.watchdog_ms = opts_.watchdog_ms;
  limits_.root = opts_.root.empty()
                     ? std::filesystem::temp_directory_path() /
                           ("fgserve-" + std::to_string(::getpid()))
                     : opts_.root;
}

Server::~Server() {
  if (started_ && !joined_) wait();
}

void Server::start() {
  std::filesystem::create_directories(limits_.root);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "fg::serve: socket");
  }
  const int one = 1;
  comm::net::setsockopt_warn(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                             sizeof one, "SO_REUSEADDR");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    throw std::system_error(errno, std::generic_category(), "fg::serve: bind");
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "fg::serve: listen");
  }

  registry_.gauge("serve.pool.slots").set(opts_.max_running);
  registry_.gauge("serve.pool.running").set(0);
  registry_.gauge("serve.queue.depth").set(0);

  accept_thread_ = std::thread([this] { accept_loop(); });
  runners_.reserve(static_cast<std::size_t>(opts_.max_running));
  for (int i = 0; i < opts_.max_running; ++i) {
    runners_.emplace_back([this, i] { runner_loop(i); });
  }
  started_ = true;
  FG_LOG(kInfo) << "fgserve: listening on 127.0.0.1:" << port_ << " ("
                   << opts_.max_running << " slots, queue bound "
                   << opts_.max_queued << ")";
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listener shut down by wait(), or a transient accept failure
      // while stopping; either way check the flag before deciding.
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_ || draining_) return;
      if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE) {
        continue;  // transient; keep serving the clients we have
      }
      return;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn->id = next_conn_id_++;
      conns_[conn->id] = conn;
    }
    registry_.counter("serve.clients.accepted").add();
    conn->thread = std::thread([this, conn] { reader_loop(conn); });
    reap_connections(false);
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  for (;;) {
    Frame f;
    bool open;
    try {
      open = read_frame(conn->fd, f);
    } catch (const ProtocolError& e) {
      FG_LOG(kWarn) << "fgserve: conn " << conn->id << ": " << e.what();
      on_client_gone(*conn, /*orderly=*/false);
      break;
    }
    if (!open) {
      on_client_gone(*conn, /*orderly=*/conn->said_bye.load());
      break;
    }
    switch (f.type) {
      case MsgType::kSubmit:
        handle_submit(*conn, f);
        break;
      case MsgType::kCancel:
        handle_cancel(f);
        break;
      case MsgType::kStatus:
        handle_status(*conn, f);
        break;
      case MsgType::kStats:
        conn->send(MsgType::kStatsReply, 0, stats_json());
        break;
      case MsgType::kBye:
        conn->said_bye.store(true);
        break;
      default:
        // A server-to-client type arriving at the server is a protocol
        // violation; drop the peer like any other corrupt stream.
        on_client_gone(*conn, /*orderly=*/false);
        conn->closed.store(true);
        return;
    }
  }
  conn->closed.store(true);
}

void Server::handle_submit(Connection& conn, const Frame& f) {
  JobSpec spec;
  try {
    const util::Json j = util::Json::parse(f.payload);
    spec = JobSpec::from_json(j);
  } catch (const std::exception& e) {
    registry_.counter("serve.jobs.rejected.bad_spec").add();
    conn.send(MsgType::kRejected, f.job,
              reject_payload(std::string("bad spec: ") + e.what()));
    return;
  }

  std::shared_ptr<Job> job;
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || stopping_) {
      registry_.counter("serve.jobs.rejected.draining").add();
      // Send outside the lock? The send is cheap and the reject path is
      // not hot; keeping it here would hold mutex_ across a socket
      // write, so fall through instead.
    } else if (queue_.size() >= static_cast<std::size_t>(opts_.max_queued)) {
      registry_.counter("serve.jobs.rejected.busy").add();
      id = 1;  // marker: busy (reuse id as a tri-state below)
    } else {
      id = next_job_id_++;
      job = std::make_shared<Job>(id, std::move(spec), conn.id);
      job->admitted_at = std::chrono::steady_clock::now();
      jobs_[id] = job;
      queue_.push_back(job);
      registry_.gauge("serve.queue.depth")
          .set(static_cast<std::int64_t>(queue_.size()));
    }
  }
  if (job) {
    cv_.notify_one();
    registry_.counter("serve.jobs.admitted").add();
    conn.send(MsgType::kAccepted, job->id(), "");
  } else if (id == 1) {
    conn.send(MsgType::kRejected, f.job, reject_payload("busy"));
  } else {
    conn.send(MsgType::kRejected, f.job, reject_payload("draining"));
  }
}

void Server::handle_cancel(const Frame& f) {
  if (const std::shared_ptr<Job> job = find_job(f.job)) {
    job->request_cancel("cancelled by client");
  }
}

void Server::handle_status(Connection& conn, const Frame& f) {
  util::JsonWriter w;
  w.begin_object();
  w.kv("id", f.job);
  if (const std::shared_ptr<Job> job = find_job(f.job)) {
    w.kv("state", to_string(job->state()));
    w.kv("kind", job->spec().kind);
  } else {
    w.kv("state", "UNKNOWN");
  }
  w.end_object();
  conn.send(MsgType::kStatusReply, f.job, w.str());
}

void Server::on_client_gone(Connection& conn, bool orderly) {
  if (orderly) return;
  registry_.counter("serve.clients.died").add();
  std::vector<std::shared_ptr<Job>> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, job] : jobs_) {
      if (job->owner_conn() == conn.id && !job->terminal()) {
        orphans.push_back(job);
      }
    }
  }
  for (auto& job : orphans) {
    FG_LOG(kInfo) << "fgserve: cancelling orphaned job " << job->id()
                     << " (client " << conn.id << " died)";
    job->request_cancel("client disconnected without BYE");
  }
}

void Server::runner_loop(int slot) {
  (void)slot;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = queue_.front();
      queue_.pop_front();
      ++running_;
      registry_.gauge("serve.queue.depth")
          .set(static_cast<std::int64_t>(queue_.size()));
      registry_.gauge("serve.pool.running").set(running_);
    }
    // run_job never throws: a job's failure is its result, and this
    // runner thread survives to take the next job — the isolation
    // boundary the whole service is built around.
    const JobResult r = run_job(*job, limits_);
    deliver_result(job, r);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      registry_.gauge("serve.pool.running").set(running_);
    }
    drained_cv_.notify_all();
  }
}

void Server::deliver_result(const std::shared_ptr<Job>& job,
                            const JobResult& r) {
  switch (r.state) {
    case JobState::kCompleted:
      registry_.counter("serve.jobs.completed").add();
      break;
    case JobState::kCancelled:
      registry_.counter("serve.jobs.cancelled").add();
      break;
    default:
      registry_.counter("serve.jobs.failed").add();
      break;
  }
  if (!r.audit_ok) registry_.counter("serve.audit.failures").add();
  registry_.histogram("serve.job.ms")
      .record(static_cast<std::uint64_t>(r.seconds * 1000.0));
  registry_.histogram("serve.queue.ms")
      .record(static_cast<std::uint64_t>(r.queue_seconds * 1000.0));
  registry_.histogram("serve.job.ms." + r.kind)
      .record(static_cast<std::uint64_t>(r.seconds * 1000.0));

  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    const auto it = conns_.find(job->owner_conn());
    if (it != conns_.end()) conn = it->second;
  }
  if (conn && !conn->closed.load()) {
    // Best effort: a dead client simply doesn't hear the result.
    conn->send(MsgType::kResult, job->id(), r.to_json());
  }
}

void Server::reap_connections(bool all) {
  std::vector<std::shared_ptr<Connection>> victims;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || it->second->closed.load()) {
        victims.push_back(it->second);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& c : victims) {
    if (all) ::shutdown(c->fd, SHUT_RDWR);
    if (c->thread.joinable()) c->thread.join();
  }
}

std::shared_ptr<Job> Server::find_job(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

void Server::request_drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) return;
    draining_ = true;
  }
  FG_LOG(kInfo) << "fgserve: draining (no new admissions)";
  cv_.notify_all();
  drained_cv_.notify_all();
}

int Server::wait() {
  request_drain();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(opts_.drain_deadline_ms);
    const auto drained = [this] { return queue_.empty() && running_ == 0; };
    if (!drained_cv_.wait_until(lock, deadline, drained)) {
      std::vector<std::shared_ptr<Job>> live;
      for (auto& [id, job] : jobs_) {
        if (!job->terminal()) live.push_back(job);
      }
      lock.unlock();
      FG_LOG(kWarn) << "fgserve: drain deadline; cancelling "
                       << live.size() << " unfinished job(s)";
      for (auto& job : live) job->request_cancel("server drain deadline");
      lock.lock();
      drained_cv_.wait(lock, drained);
    }
    stopping_ = true;
  }
  cv_.notify_all();

  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  reap_connections(/*all=*/true);
  for (std::thread& t : runners_) {
    if (t.joinable()) t.join();
  }
  joined_ = true;
  FG_LOG(kInfo) << "fgserve: drained; "
                   << registry_.counter_value("serve.jobs.completed")
                   << " completed, "
                   << registry_.counter_value("serve.jobs.failed")
                   << " failed, "
                   << registry_.counter_value("serve.jobs.cancelled")
                   << " cancelled";
  return 0;
}

std::string Server::stats_json() const {
  bool draining;
  std::size_t depth;
  int running;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining = draining_ || stopping_;
    depth = queue_.size();
    running = running_;
  }
  util::JsonWriter reg;
  registry_.write_json(reg);
  std::string out = "{\"draining\":";
  out += draining ? "true" : "false";
  out += ",\"queue_depth\":" + std::to_string(depth);
  out += ",\"running\":" + std::to_string(running);
  out += ",\"slots\":" + std::to_string(opts_.max_running);
  out += ",\"registry\":" + reg.str() + "}";
  return out;
}

std::size_t Server::queued_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t Server::running_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(running_);
}

}  // namespace fg::serve
