#include "mgs/sim/fault.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "mgs/util/check.hpp"

namespace mgs::sim {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kTransientTransfer: return "transient";
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kDeviceDown: return "device-down";
    case FaultKind::kCorruption: return "corrupt";
    case FaultKind::kStraggler: return "straggler";
  }
  return "?";
}

// ---------------------------------------------------------------- parsing

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (c != ' ') {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

double parse_num(const std::string& key, const std::string& val) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(val, &pos);
    MGS_REQUIRE(pos == val.size(), "faults: trailing junk in value");
    return d;
  } catch (const util::Error&) {
    throw;
  } catch (const std::exception&) {
    throw util::Error("faults: bad numeric value for '" + key + "': " + val);
  }
}

/// An integer key: decimal digits only (optionally signed), no fraction or
/// exponent, within [lo, hi].
long long parse_int(const std::string& key, const std::string& val,
                    long long lo, long long hi) {
  long long v = 0;
  try {
    std::size_t pos = 0;
    v = std::stoll(val, &pos);
    MGS_REQUIRE(pos == val.size(), "faults: '" + key +
                                       "' must be an integer, got " + val);
  } catch (const util::Error&) {
    throw;
  } catch (const std::exception&) {
    throw util::Error("faults: bad integer value for '" + key + "': " + val);
  }
  MGS_REQUIRE(v >= lo && v <= hi, "faults: '" + key + "' out of range [" +
                                      std::to_string(lo) + ", " +
                                      std::to_string(hi) + "]: " + val);
  return v;
}

/// The 64-bit coin seed, read exactly (a double would round it).
std::uint64_t parse_seed(const std::string& val) {
  try {
    MGS_REQUIRE(!val.empty() && std::isdigit(static_cast<unsigned char>(
                                    val.front())) != 0,
                "faults: seed must be an unsigned integer, got " + val);
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(val, &pos);
    MGS_REQUIRE(pos == val.size(),
                "faults: seed must be an unsigned integer, got " + val);
    return v;
  } catch (const util::Error&) {
    throw;
  } catch (const std::exception&) {
    throw util::Error("faults: bad seed: " + val);
  }
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  constexpr long long kIntMin = std::numeric_limits<int>::min();
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  FaultPlan plan;
  for (const std::string& item : split(spec, ';')) {
    const auto colon = item.find(':');
    const std::string kind_name = item.substr(0, colon);
    std::map<std::string, std::string> kv;
    if (colon != std::string::npos) {
      for (const std::string& pair : split(item.substr(colon + 1), ',')) {
        const auto eq = pair.find('=');
        MGS_REQUIRE(eq != std::string::npos,
                    "faults: expected key=value in '" + pair + "'");
        kv[pair.substr(0, eq)] = pair.substr(eq + 1);
      }
    }
    // Each take consumes its key; whatever is left is unknown.
    auto take = [&kv](const char* key) -> std::optional<std::string> {
      const auto it = kv.find(key);
      if (it == kv.end()) return std::nullopt;
      std::string v = it->second;
      kv.erase(it);
      return v;
    };
    auto take_num = [&](const char* key, double def) {
      const auto v = take(key);
      return v ? parse_num(key, *v) : def;
    };
    auto take_int = [&](const char* key, long long def, long long lo,
                        long long hi) {
      const auto v = take(key);
      return v ? parse_int(key, *v, lo, hi) : def;
    };

    if (kind_name == "policy") {
      // 2^attempt backoff must stay a positive 64-bit shift.
      plan.max_retries =
          static_cast<int>(take_int("retries", plan.max_retries, 0, 62));
      plan.backoff_base_us = take_num("backoff-us", plan.backoff_base_us);
      plan.timeout_seconds = take_num("timeout-s", plan.timeout_seconds);
      if (const auto v = take("seed")) plan.seed = parse_seed(*v);
    } else {
      FaultEvent e;
      if (kind_name == "transient") {
        e.kind = FaultKind::kTransientTransfer;
      } else if (kind_name == "link-down") {
        e.kind = FaultKind::kLinkDown;
      } else if (kind_name == "device-down") {
        e.kind = FaultKind::kDeviceDown;
      } else if (kind_name == "corrupt") {
        e.kind = FaultKind::kCorruption;
      } else if (kind_name == "straggler") {
        e.kind = FaultKind::kStraggler;
      } else {
        throw util::Error("faults: unknown fault kind '" + kind_name + "'");
      }
      e.src = static_cast<int>(take_int("src", -1, kIntMin, kIntMax));
      e.dst = static_cast<int>(take_int("dst", -1, kIntMin, kIntMax));
      e.device = static_cast<int>(take_int("dev", -1, kIntMin, kIntMax));
      e.op = take_int("op", -1, kIntMin, kIntMax);
      e.count = take_int("count", 1, kIntMin, kIntMax);
      e.at_seconds = take_num("at", 0.0);
      e.probability = take_num("prob", 0.0);
      e.factor = take_num("factor", 2.0);
      MGS_REQUIRE(e.probability >= 0.0 && e.probability <= 1.0,
                  "faults: prob must be in [0, 1]");
      MGS_REQUIRE(e.kind != FaultKind::kDeviceDown || e.device >= 0,
                  "faults: device-down needs dev=<id>");
      MGS_REQUIRE(e.kind != FaultKind::kStraggler || e.device >= 0,
                  "faults: straggler needs dev=<id>");
      MGS_REQUIRE(e.kind != FaultKind::kLinkDown ||
                      (e.src >= 0 && e.dst >= 0),
                  "faults: link-down needs src=<id>,dst=<id>");
      const bool per_op = e.kind == FaultKind::kTransientTransfer ||
                          e.kind == FaultKind::kCorruption;
      MGS_REQUIRE(!per_op || e.op >= 0 || e.probability > 0.0,
                  "faults: transient/corrupt need op=<k> or prob=<p>");
      plan.events.push_back(e);
    }
    if (!kv.empty()) {
      throw util::Error("faults: unknown key '" + kv.begin()->first +
                        "' for '" + kind_name + "'");
    }
  }
  return plan;
}

namespace {

/// Shortest decimal form that std::stod recovers exactly: integers print
/// without a fraction, everything else at max_digits10.
std::string render_num(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string to_spec(const FaultPlan& plan) {
  std::ostringstream os;
  bool first = true;
  auto sep = [&] {
    if (!first) os << ';';
    first = false;
  };
  for (const FaultEvent& e : plan.events) {
    sep();
    os << to_string(e.kind) << ':';
    bool fk = true;
    auto key = [&](const char* k, double v) {
      if (!fk) os << ',';
      fk = false;
      os << k << '=' << render_num(v);
    };
    if (e.src >= 0) key("src", e.src);
    if (e.dst >= 0) key("dst", e.dst);
    if (e.device >= 0) key("dev", e.device);
    if (e.op >= 0) key("op", static_cast<double>(e.op));
    if (e.count != 1) key("count", static_cast<double>(e.count));
    if (e.at_seconds != 0.0) key("at", e.at_seconds);
    if (e.probability != 0.0) key("prob", e.probability);
    if (e.factor != 2.0) key("factor", e.factor);
    MGS_REQUIRE(!fk, "to_spec: event with no keys cannot round-trip");
  }
  const FaultPlan defaults;
  const bool policy = plan.max_retries != defaults.max_retries ||
                      plan.backoff_base_us != defaults.backoff_base_us ||
                      plan.timeout_seconds != defaults.timeout_seconds ||
                      plan.seed != defaults.seed;
  if (policy) {
    sep();
    os << "policy:";
    bool fk = true;
    auto key = [&](const char* k, double v) {
      if (!fk) os << ',';
      fk = false;
      os << k << '=' << render_num(v);
    };
    if (plan.max_retries != defaults.max_retries) {
      key("retries", plan.max_retries);
    }
    if (plan.backoff_base_us != defaults.backoff_base_us) {
      key("backoff-us", plan.backoff_base_us);
    }
    if (plan.timeout_seconds != defaults.timeout_seconds) {
      key("timeout-s", plan.timeout_seconds);
    }
    if (plan.seed != defaults.seed) {
      if (!fk) os << ',';
      os << "seed=" << plan.seed;  // exact: a double would round it
    }
  }
  return os.str();
}

// --------------------------------------------------------------- counters

void FaultCounters::merge(const FaultCounters& o) {
  transient_failures += o.transient_failures;
  retries += o.retries;
  timeouts += o.timeouts;
  corruptions_detected += o.corruptions_detected;
  rerouted_transfers += o.rerouted_transfers;
  rerouted_bytes += o.rerouted_bytes;
  retry_seconds += o.retry_seconds;
}

bool FaultCounters::any() const {
  return transient_failures > 0 || retries > 0 || timeouts > 0 ||
         corruptions_detected > 0 || rerouted_transfers > 0;
}

std::string FaultReport::summary() const {
  if (!any()) return "healthy";
  std::ostringstream os;
  if (degraded) os << "degraded [" << degraded_mode << "]";
  else os << "recovered";
  os << ": retries=" << counters.retries
     << " timeouts=" << counters.timeouts
     << " corruptions=" << counters.corruptions_detected
     << " rerouted_bytes=" << counters.rerouted_bytes
     << " invalidated_plans=" << invalidated_plans;
  if (!resumed_stages.empty()) {
    os << " resumed=";
    for (std::size_t i = 0; i < resumed_stages.size(); ++i) {
      if (i > 0) os << '+';
      os << resumed_stages[i];
    }
  }
  return os.str();
}

// --------------------------------------------------------------- injector

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  MGS_REQUIRE(plan_.max_retries >= 0 && plan_.max_retries <= 62,
              "faults: max_retries must be in [0, 62]");
}

void FaultInjector::mark_device_down(int dev) {
  if (marked_down_.insert(dev).second) ++epoch_;
}

void FaultInjector::mark_device_up(int dev) {
  if (marked_down_.erase(dev) > 0) ++epoch_;
}

bool FaultInjector::device_is_down(int dev) const {
  if (marked_down_.count(dev) > 0) return true;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kDeviceDown && e.device == dev &&
        e.at_seconds <= 0.0) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::device_down_at(int dev, double now) const {
  if (marked_down_.count(dev) > 0) return true;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind == FaultKind::kDeviceDown && e.device == dev &&
        e.at_seconds <= now) {
      return true;
    }
  }
  return false;
}

std::vector<int> FaultInjector::down_devices(int num_devices) const {
  std::vector<int> down;
  for (int d = 0; d < num_devices; ++d) {
    if (device_is_down(d)) down.push_back(d);
  }
  return down;
}

bool FaultInjector::link_is_down(int src, int dst, double now) const {
  for (const FaultEvent& e : plan_.events) {
    if (e.kind != FaultKind::kLinkDown) continue;
    if (e.at_seconds > now) continue;
    if ((e.src == src && e.dst == dst) || (e.src == dst && e.dst == src)) {
      return true;
    }
  }
  return false;
}

double FaultInjector::transfer_slowdown(int src, int dst, double now) const {
  double f = 1.0;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind != FaultKind::kStraggler) continue;
    if (e.at_seconds > now) continue;
    if (e.device == src || e.device == dst) f = std::max(f, e.factor);
  }
  return f;
}

double FaultInjector::compute_slowdown(int dev, double now) const {
  double f = 1.0;
  for (const FaultEvent& e : plan_.events) {
    if (e.kind != FaultKind::kStraggler) continue;
    if (e.at_seconds > now) continue;
    if (e.device == dev) f = std::max(f, e.factor);
  }
  return f;
}

bool FaultInjector::matches_link(const FaultEvent& e, int src,
                                 int dst) const {
  return (e.src < 0 || e.src == src) && (e.dst < 0 || e.dst == dst);
}

bool FaultInjector::coin(double p, int src, int dst, std::int64_t op,
                         std::uint32_t salt) const {
  // splitmix64 over a key built from the operation identity: stable across
  // runs and independent of host scheduling.
  std::uint64_t x = plan_.seed;
  x ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 40) ^
       (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 20) ^
       static_cast<std::uint64_t>(op) ^
       (static_cast<std::uint64_t>(salt) << 56);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < p;
}

FaultInjector::Verdict FaultInjector::on_transfer_attempt(int src, int dst,
                                                          int attempt,
                                                          double now) {
  Verdict v;
  if (plan_.events.empty()) return v;
  auto& op_count = op_counts_[{src, dst}];
  const std::int64_t op = op_count;
  if (attempt == 0) ++op_count;

  for (const FaultEvent& e : plan_.events) {
    if (e.at_seconds > now && e.at_seconds > 0.0) continue;
    if (e.kind == FaultKind::kTransientTransfer) {
      if (!matches_link(e, src, dst)) continue;
      // Op-count trigger: fail attempt 0 of ops [op, op + count); the
      // retry of the same op goes through.
      if (e.op >= 0 && attempt == 0 && op >= e.op && op < e.op + e.count) {
        v.transient_fail = true;
      }
      if (e.probability > 0.0 &&
          coin(e.probability, src, dst, op * 16 + attempt, 0x7af)) {
        v.transient_fail = true;
      }
    } else if (e.kind == FaultKind::kCorruption) {
      if (!matches_link(e, src, dst)) continue;
      if (e.op >= 0 && attempt == 0 && op >= e.op && op < e.op + e.count) {
        v.corrupt = true;
      }
      if (e.probability > 0.0 &&
          coin(e.probability, src, dst, op * 16 + attempt, 0xc02)) {
        v.corrupt = true;
      }
    }
  }
  return v;
}

}  // namespace mgs::sim
