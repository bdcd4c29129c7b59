#include "util/fault.hpp"

#include "util/parse.hpp"
#include "util/rng.hpp"

#include <charconv>
#include <climits>

namespace fg::fault {

namespace {

// Deterministic cross-platform string hash (std::hash is
// implementation-defined; fault schedules must replay identically
// everywhere).  FNV-1a, folded through mix64.
std::uint64_t site_hash(const std::string& s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return util::mix64(h);
}

}  // namespace

void Injector::arm(const std::string& site, Rule rule) {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_[site] = Site{rule, 0, 0};
}

void Injector::disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.erase(site);
}

bool Injector::fire(const std::string& site, int node) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  Site& s = it->second;
  const Rule& r = s.rule;
  if (r.node >= 0 && node != r.node) return false;

  const std::uint64_t op = ++s.ops;  // 1-based
  if (op <= r.after) return false;
  if (r.max_fires != 0 && s.fired >= r.max_fires) return false;

  bool hit = false;
  switch (r.trigger) {
    case Rule::Trigger::kNever:
      break;
    case Rule::Trigger::kEveryNth:
      hit = r.every_n != 0 && (op - r.after) % r.every_n == 0;
      break;
    case Rule::Trigger::kProbability: {
      // Pure function of (seed, site, op): replayable regardless of which
      // thread drew this index.
      const std::uint64_t bits = util::mix64(seed_ ^ site_hash(site) ^ op);
      const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
      hit = u < r.probability;
      break;
    }
    case Rule::Trigger::kOneShot:
      hit = op == r.at_op && s.fired == 0;
      break;
  }
  if (hit) ++s.fired;
  return hit;
}

SiteStats Injector::site_stats(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return SiteStats{};
  return SiteStats{it->second.ops, it->second.fired};
}

std::vector<std::pair<std::string, SiteStats>> Injector::all_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, SiteStats>> out;
  out.reserve(sites_.size());
  for (const auto& [name, s] : sites_) {
    out.emplace_back(name, SiteStats{s.ops, s.fired});
  }
  return out;
}

std::uint64_t Injector::total_fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& [name, s] : sites_) n += s.fired;
  return n;
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void bad_spec(const std::string& entry, const char* why) {
  throw std::invalid_argument("fg::fault: bad fault-spec entry '" + entry +
                              "': " + why);
}

std::uint64_t spec_number(const std::string& entry, const std::string& s) {
  const auto v = util::parse_number<std::uint64_t>(s);
  if (!v) bad_spec(entry, "expected a number");
  return *v;
}

void parse_entry(Injector& inj, const std::string& entry) {
  const std::size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    bad_spec(entry, "expected site=trigger");
  }
  const std::string site = entry.substr(0, eq);
  std::string rest = entry.substr(eq + 1);

  Rule rule;
  // Peel the optional suffixes off the back, in any order.
  for (bool more = true; more;) {
    more = false;
    for (char mark : {'@', 'x', '+'}) {
      const std::size_t at = rest.rfind(mark);
      if (at == std::string::npos || at == 0) continue;
      // 'x' must not eat the 'p:0.5' body or a site char; suffixes only
      // follow the trigger's argument, so require digits after the mark.
      const std::string tail = rest.substr(at + 1);
      if (tail.empty() ||
          tail.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      const std::uint64_t v = spec_number(entry, tail);
      if (mark == '@') {
        if (v > INT_MAX) bad_spec(entry, "@N needs a node in [0, INT_MAX]");
        rule.node = static_cast<int>(v);
      }
      if (mark == 'x') rule.max_fires = v;
      if (mark == '+') rule.after = v;
      rest = rest.substr(0, at);
      more = true;
      break;
    }
  }

  if (rest.rfind("nth:", 0) == 0) {
    rule.trigger = Rule::Trigger::kEveryNth;
    rule.every_n = spec_number(entry, rest.substr(4));
    if (rule.every_n == 0) bad_spec(entry, "nth needs N >= 1");
  } else if (rest.rfind("p:", 0) == 0) {
    rule.trigger = Rule::Trigger::kProbability;
    const char* end = rest.data() + rest.size();
    const auto [ptr, ec] = std::from_chars(rest.data() + 2, end,
                                           rule.probability);
    // Written so that NaN fails the range check too.
    if (ec != std::errc{} || ptr != end ||
        !(rule.probability >= 0.0 && rule.probability <= 1.0)) {
      bad_spec(entry, "p needs a probability in [0, 1]");
    }
  } else if (rest == "once") {
    rule.trigger = Rule::Trigger::kOneShot;
  } else if (rest.rfind("once:", 0) == 0) {
    rule.trigger = Rule::Trigger::kOneShot;
    rule.at_op = spec_number(entry, rest.substr(5));
    if (rule.at_op == 0) bad_spec(entry, "once needs AT >= 1");
  } else if (rest == "always") {
    rule.trigger = Rule::Trigger::kEveryNth;
    rule.every_n = 1;
  } else {
    bad_spec(entry, "unknown trigger (want nth:N, p:P, once[:AT], always)");
  }
  inj.arm(site, rule);
}

}  // namespace

void apply_spec(Injector& inj, const std::string& spec) {
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find_first_of(";,", start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    if (!entry.empty()) parse_entry(inj, entry);
    start = end + 1;
  }
}

}  // namespace fg::fault
