// Deterministic, seeded fault injection for the simulated substrates.
//
// The paper's cluster hit transient I/O errors and slow nodes; our
// simulation is fault-free unless told otherwise.  This subsystem makes
// failure a first-class, *reproducible* part of a run: an Injector holds
// named injection sites ("disk.read.error", "fabric.drop", ...), each
// armed with a trigger rule (every-nth-op, seeded probability, one-shot).
// The latency-bearing layers consult their sites on every operation and
// translate a firing into the layer's native failure — a transient EIO, a
// short transfer, a dropped or delayed message, a crashed node, a stage
// body that throws.
//
// Determinism: for a given seed, *which operation indices* fire at a site
// is a pure function of (seed, site, index).  Under concurrency the
// assignment of indices to threads varies with scheduling, but the count
// and spacing of failures — what retry logic and tests care about — is
// reproducible, so a failing chaos run can be replayed by seed.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace fg::fault {

// Well-known site names.  Layers consult these; tests and the fgsort
// --fault-spec flag arm them.  Any other string is a legal site too
// (e.g. application-defined stage sites).
inline constexpr const char* kDiskReadError = "disk.read.error";
inline constexpr const char* kDiskReadShort = "disk.read.short";
inline constexpr const char* kDiskWriteError = "disk.write.error";
inline constexpr const char* kDiskWriteShort = "disk.write.short";
inline constexpr const char* kDiskFlushError = "disk.flush.error";
inline constexpr const char* kFabricDelay = "fabric.delay";
inline constexpr const char* kFabricDrop = "fabric.drop";
inline constexpr const char* kFabricCrash = "fabric.crash";
inline constexpr const char* kStageThrow = "stage.throw";

/// Base class for every failure this subsystem injects.
struct InjectedFault : std::runtime_error {
  explicit InjectedFault(const std::string& what) : std::runtime_error(what) {}
};

/// An injected failure a retry layer is allowed to absorb (the simulated
/// analogue of EIO / a flaky transfer).  Everything else — including an
/// InjectedFault that is not a TransientError — is permanent.
struct TransientError : InjectedFault {
  explicit TransientError(const std::string& what) : InjectedFault(what) {}
};

/// When does a site fire?  Ops are counted per site from 1, counting only
/// operations that pass the rule's node filter.
struct Rule {
  enum class Trigger : std::uint8_t {
    kNever,
    kEveryNth,     ///< ops n, 2n, 3n, ...
    kProbability,  ///< each op fires with probability p (seeded, per-index)
    kOneShot,      ///< exactly op `at_op`
  };

  Trigger trigger{Trigger::kNever};
  std::uint64_t every_n{0};
  double probability{0.0};
  std::uint64_t at_op{1};
  int node{-1};              ///< restrict to one node's operations; -1 = all
  std::uint64_t max_fires{0};  ///< stop firing after this many; 0 = unlimited
  std::uint64_t after{0};    ///< ops 1..after never fire (let the run start)

  static Rule every_nth(std::uint64_t n, std::uint64_t max = 0) {
    Rule r;
    r.trigger = Trigger::kEveryNth;
    r.every_n = n;
    r.max_fires = max;
    return r;
  }
  static Rule with_probability(double p, std::uint64_t max = 0) {
    Rule r;
    r.trigger = Trigger::kProbability;
    r.probability = p;
    r.max_fires = max;
    return r;
  }
  static Rule one_shot(std::uint64_t at = 1) {
    Rule r;
    r.trigger = Trigger::kOneShot;
    r.at_op = at;
    return r;
  }
  /// Permanent failure: every op after the first `after` ops fires.
  static Rule always_after(std::uint64_t after) {
    Rule r;
    r.trigger = Trigger::kEveryNth;
    r.every_n = 1;
    r.after = after;
    return r;
  }

  Rule on_node(int n) const {
    Rule r = *this;
    r.node = n;
    return r;
  }
};

/// Per-site counters, snapshot via Injector::site_stats / all_stats.
struct SiteStats {
  std::uint64_t ops{0};    ///< operations that consulted the site
  std::uint64_t fired{0};  ///< operations the rule failed
};

/// The registry of armed sites.  One Injector is shared by every layer of
/// a run (all disks, the fabric, stage wrappers); all methods are
/// thread-safe.  An unarmed site costs one mutex acquisition and a map
/// lookup — negligible next to the simulated latencies — and a run with
/// no injector attached costs nothing at all (layers keep a null pointer).
class Injector {
 public:
  explicit Injector(std::uint64_t seed = 0) : seed_(seed) {}

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  std::uint64_t seed() const noexcept { return seed_; }

  /// Arm (or re-arm) `site` with `rule`, resetting its counters.
  void arm(const std::string& site, Rule rule);
  void disarm(const std::string& site);

  /// One operation hits `site` on behalf of `node` (-1 if not node
  /// scoped).  Returns true if the armed rule fires for this operation.
  bool fire(const std::string& site, int node = -1);

  SiteStats site_stats(const std::string& site) const;
  std::vector<std::pair<std::string, SiteStats>> all_stats() const;

  /// Total fires across all sites (the "injected-fault count" exported
  /// with run statistics).
  std::uint64_t total_fired() const;

 private:
  struct Site {
    Rule rule;
    std::uint64_t ops{0};
    std::uint64_t fired{0};
  };

  std::uint64_t seed_;
  mutable std::mutex mutex_;
  std::map<std::string, Site> sites_;
};

/// Arm `inj` from a compact spec string (the fgsort --fault-spec format):
///
///   spec    := entry (';' entry)* | entry (',' entry)*
///   entry   := site '=' trigger [ '@' node ] [ 'x' max ] [ '+' after ]
///   trigger := 'nth:' N | 'p:' P | 'once' [ ':' AT ] | 'always'
///
/// Examples:
///   disk.read.error=nth:40x3            every 40th read EIOs, 3 times max
///   fabric.delay=p:0.01                 1% of messages get a delay spike
///   fabric.crash=once:25@3              node 3's 25th fabric call crashes
///   disk.write.error=always+200         every write after the 200th fails
///
/// N, AT, max and after are unsigned 64-bit decimals with no sign or
/// whitespace; node is in [0, INT_MAX]; P is a decimal in [0, 1].
/// Throws std::invalid_argument on a malformed spec.
void apply_spec(Injector& inj, const std::string& spec);

/// Wrap a callable so that every invocation first consults `site`; a
/// firing throws InjectedFault before the callable runs.  This is the
/// test-stage wrapper: wrap a MapStage body to make it throw on round k
/// (arm the site one-shot) without touching the stage's own logic.
template <typename Fn>
auto guarded(Injector& inj, std::string site, int node, Fn fn) {
  return [&inj, site = std::move(site), node,
          fn = std::move(fn)](auto&&... args) {
    if (inj.fire(site, node)) {
      throw InjectedFault("fg::fault: injected failure at " + site);
    }
    return fn(std::forward<decltype(args)>(args)...);
  };
}

}  // namespace fg::fault
