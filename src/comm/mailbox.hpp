// The matched-message queue both fabric backends deliver into.
//
// A Mailbox holds the messages addressed to one node that have not been
// received yet.  Matching follows MPI: a receive names (source, tag) —
// either may be a wildcard — and among the matching messages the one
// with the earliest delivery time wins, with non-overtaking delivery per
// (source, destination) channel.  The wildcard tag matches only
// application tags (>= 0): the fabric's internal collective traffic is
// invisible to kAnyTag receives, exactly as MPI collectives travel on a
// separate communicator.  This matters once phases overlap — a node
// still draining application messages must not be able to steal another
// node's barrier token.
//
// SimFabric owns one Mailbox per simulated node and deposits directly
// from send(); TcpFabric owns a single Mailbox for its local rank, fed
// by the per-peer receiver threads.  Delivery times carry the simulated
// latency model in the first case and injected delay spikes in the
// second; a real wire deposits with deliver_at == now.
#pragma once

#include "comm/fabric.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>

namespace fg::comm {

class Mailbox {
 public:
  explicit Mailbox(NodeId owner) : owner_(owner) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Where spent payload vectors go after take() copies them out — the
  /// fabric's receive pool, so frame buffers are recycled instead of
  /// freed and reallocated per message.  Install once, before any
  /// receiver thread runs (read without the lock afterwards).
  using Recycler = std::function<void(std::vector<std::byte>&&)>;
  void set_recycler(Recycler r) { recycler_ = std::move(r); }

  /// Enqueue a message and wake matching receivers.  Delivery is clamped
  /// to be non-overtaking per source channel, like MPI: a message may not
  /// become visible before an earlier message from the same source, even
  /// if it is smaller (or less delayed) and would otherwise "arrive"
  /// sooner.  Deposits after abort() are dropped: the run is tearing
  /// down and nobody will receive them.
  void deposit(NodeId src, int tag, std::vector<std::byte> payload,
               util::TimePoint deliver_at) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (aborted_) return;
      // The floor is tracked per source, not rediscovered by scanning the
      // queue: with one busy sender piling up unmatched messages, a scan
      // would make every *other* source's deposit O(queue length) on the
      // receive hot path.  The map only ever moves forward; a floor from
      // a long-delivered message clamps to a time already in the past, so
      // it never delays anything.
      util::TimePoint& floor = floors_[src];
      floor = std::max(deliver_at, floor);
      messages_.push_back(Message{src, tag, std::move(payload), floor});
    }
    cv_.notify_all();
  }

  /// Blocking matched receive into `out`.  `deadline` bounds the wait
  /// when positive (FabricTimeout past it); abort() wakes the call with
  /// FabricAborted.  Throws std::length_error — leaving the message
  /// queued — if the match is larger than `out`.
  RecvResult take(NodeId src, int tag, std::span<std::byte> out,
                  util::Duration deadline) {
    const bool bounded = deadline > util::Duration::zero();
    const util::TimePoint expiry = util::Clock::now() + deadline;
    const auto timed_out = [&] {
      return FabricTimeout(
          "fg::comm::Fabric::recv: node " + std::to_string(owner_) +
          " timed out waiting for src=" + std::to_string(src) +
          " tag=" + std::to_string(tag));
    };

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (aborted_) throw FabricAborted{};

      auto best = messages_.end();
      for (auto it = messages_.begin(); it != messages_.end(); ++it) {
        if (!matches(*it, src, tag)) continue;
        if (best == messages_.end() || it->deliver_at < best->deliver_at) {
          best = it;
        }
      }
      if (best != messages_.end()) {
        const util::TimePoint now = util::Clock::now();
        if (best->deliver_at <= now) {
          if (best->payload.size() > out.size()) {
            throw std::length_error(
                "fg::comm::Fabric::recv: message larger than receive buffer");
          }
          RecvResult r{best->src, best->tag, best->payload.size()};
          if (!best->payload.empty()) {
            std::memcpy(out.data(), best->payload.data(),
                        best->payload.size());
          }
          std::vector<std::byte> spent = std::move(best->payload);
          messages_.erase(best);
          if (recycler_) {
            lock.unlock();  // the pool has its own (leaf) lock
            recycler_(std::move(spent));
          }
          return r;
        }
        if (bounded && now >= expiry) throw timed_out();
        cv_.wait_until(lock, bounded ? std::min(best->deliver_at, expiry)
                                     : best->deliver_at);
      } else if (bounded) {
        if (util::Clock::now() >= expiry) throw timed_out();
        cv_.wait_until(lock, expiry);
      } else {
        cv_.wait(lock);
      }
    }
  }

  /// True if a matching message is available for immediate delivery.
  bool probe(NodeId src, int tag) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const util::TimePoint now = util::Clock::now();
    for (const auto& m : messages_) {
      if (matches(m, src, tag) && m.deliver_at <= now) return true;
    }
    return false;
  }

  /// Wake every blocked take() with FabricAborted and drop future
  /// deposits.  Resident messages stay queued for diagnostics.
  void abort() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

  bool aborted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return aborted_;
  }

 private:
  struct Message {
    NodeId src;
    int tag;
    std::vector<std::byte> payload;
    util::TimePoint deliver_at;
  };

  static bool matches(const Message& m, NodeId src, int tag) {
    if (src != kAnySource && m.src != src) return false;
    // The wildcard sees application traffic only; explicit (internal,
    // negative) tags must be named to be received.
    if (tag == kAnyTag) return m.tag >= 0;
    return m.tag == tag;
  }

  NodeId owner_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::list<Message> messages_;
  /// Latest delivery time ever deposited per source — the non-overtaking
  /// floor for that channel.  Guarded by mutex_.
  std::unordered_map<NodeId, util::TimePoint> floors_;
  bool aborted_{false};
  Recycler recycler_;  ///< set before threads, immutable afterwards
};

}  // namespace fg::comm
