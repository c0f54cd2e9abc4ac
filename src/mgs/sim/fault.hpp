#pragma once
/// \file fault.hpp
/// Deterministic fault injection for the simulated cluster. A FaultPlan is
/// a schedule of FaultEvents -- transient transfer failures, permanent
/// link-down, device-down, payload corruption, straggler slowdowns --
/// triggered at simulated timestamps or per-operation counts. The
/// FaultInjector evaluates the schedule at runtime; consumers (the
/// transfer engine, the MPI-like communicator, the scan executors) consult
/// it only when one is attached, so the default healthy path stays
/// bit-identical to a build without fault support.
///
/// Determinism: operation-count triggers are exact; probabilistic triggers
/// draw from a seeded engine keyed on the (src, dst, op) triple, so the
/// same plan over the same traffic produces the same fault sequence
/// regardless of host scheduling.

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mgs::sim {

enum class FaultKind {
  kTransientTransfer,  ///< attempt fails; a retry may succeed
  kLinkDown,           ///< permanent: the (src, dst) link never recovers
  kDeviceDown,         ///< the device is gone (from at_seconds onward)
  kCorruption,         ///< payload arrives corrupted (checksum catches it)
  kStraggler,          ///< transfers touching the device run factor x slower
};

const char* to_string(FaultKind k);

/// One scheduled fault. Matching is by endpoints and trigger:
///  - src/dst/device: -1 matches any endpoint;
///  - op >= 0: fires on the op-th matching operation (then `count` - 1
///    more consecutive ones);
///  - probability > 0: fires per-operation with that chance (seeded);
///  - at_seconds: the event is active from this simulated time onward
///    (0 = from the start).
struct FaultEvent {
  FaultKind kind = FaultKind::kTransientTransfer;
  int src = -1;
  int dst = -1;
  int device = -1;
  std::int64_t op = -1;
  std::int64_t count = 1;
  double at_seconds = 0.0;
  double probability = 0.0;
  double factor = 2.0;  ///< straggler slowdown multiplier
};

/// The schedule plus the resilience policy knobs shared by every consumer.
struct FaultPlan {
  std::vector<FaultEvent> events;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  int max_retries = 4;           ///< attempts after the first; [0, 62]
  double backoff_base_us = 50.0; ///< backoff before retry k is base * 2^k
  double timeout_seconds = std::numeric_limits<double>::infinity();

  bool empty() const { return events.empty(); }
};

/// Parse a fault-spec string (the bench binaries' --faults flag):
///   "event;event;..." where each event is "kind:key=val,key=val".
/// Kinds: transient, link-down, device-down, corrupt, straggler, policy.
/// Keys: src, dst, dev, op, count (integers in int range), at, prob,
/// factor; the pseudo-event "policy" sets retries (an integer in
/// [0, 62]), backoff-us, timeout-s and seed (an exact unsigned 64-bit
/// integer). Examples:
///   "transient:src=0,dst=4,op=0,count=2"
///   "device-down:dev=3;policy:retries=2"
///   "corrupt:prob=0.05;straggler:dev=1,factor=4"
/// Throws util::Error on malformed specs.
FaultPlan parse_fault_plan(const std::string& spec);

/// Inverse of parse_fault_plan: render a plan back into the spec grammar
/// (non-default keys only, numbers formatted so they round-trip exactly).
/// parse_fault_plan(to_spec(p)) reproduces p field-for-field, so shrunk
/// chaos repros paste directly into any `--faults` flag.
std::string to_spec(const FaultPlan& plan);

/// Resilience-cost counters accumulated by the transfer engine and the
/// communicator while they work around injected faults.
struct FaultCounters {
  std::uint64_t transient_failures = 0;  ///< attempts that failed in flight
  std::uint64_t retries = 0;             ///< re-attempts (incl. re-transfers)
  std::uint64_t timeouts = 0;            ///< attempts abandoned at timeout
  std::uint64_t corruptions_detected = 0;
  std::uint64_t rerouted_transfers = 0;  ///< P2P copies sent via the host
  std::uint64_t rerouted_bytes = 0;
  double retry_seconds = 0.0;  ///< modeled time spent on failed attempts

  void merge(const FaultCounters& o);
  bool any() const;
};

/// Per-run resilience summary attached to core::RunResult. Empty (and
/// cost-free) when no injector is attached.
struct FaultReport {
  FaultCounters counters;
  bool degraded = false;            ///< ran on fewer resources than asked
  std::string degraded_mode;        ///< human-readable degraded placement
  std::vector<int> excluded_devices;
  std::vector<std::string> replanned;  ///< proposals that re-planned
  std::uint64_t invalidated_plans = 0; ///< plan-cache entries dropped
  /// Stage boundaries a mid-run recovery resumed from (one entry per
  /// resume, e.g. "Stage2" when completed Stage-1/gather work survived).
  std::vector<std::string> resumed_stages;

  bool any() const { return degraded || counters.any(); }
  std::string summary() const;
};

/// Evaluates a FaultPlan against the operation stream. Stateful: it keeps
/// per-link operation counters (for op-count triggers) and the set of
/// devices marked down at runtime. `epoch()` increments whenever device
/// liveness changes so cached placements can cheaply detect staleness.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Liveness epoch: starts at 1 (so "injector attached" differs from the
  /// no-injector epoch 0) and bumps on every mark_device_* call.
  std::uint64_t epoch() const { return epoch_; }

  /// Runtime device failure / recovery (on top of scheduled kDeviceDown).
  void mark_device_down(int dev);
  void mark_device_up(int dev);

  /// Down from the start of a run (scheduled with at_seconds <= 0, or
  /// marked down) -- what executors consult when (re)placing a run.
  bool device_is_down(int dev) const;
  /// Down at simulated time `now` (includes at_seconds > 0 schedules) --
  /// what the transfer layer consults per operation.
  bool device_down_at(int dev, double now) const;
  /// Every device currently down from the start.
  std::vector<int> down_devices(int num_devices) const;

  /// Permanent link failure between two endpoints (order-insensitive).
  /// `now` gates scheduled failures: an event with at_seconds > now has
  /// not fired yet. The default (infinity) preserves the legacy "down for
  /// the whole run" reading for callers without a clock.
  bool link_is_down(int src, int dst,
                    double now = std::numeric_limits<double>::infinity())
      const;

  /// Combined straggler slowdown for a transfer touching both endpoints
  /// (1.0 when neither is a straggler). Same `now` gating as
  /// link_is_down.
  double transfer_slowdown(
      int src, int dst,
      double now = std::numeric_limits<double>::infinity()) const;

  /// Straggler slowdown for compute kernels on `dev` at simulated time
  /// `now` (1.0 when the device is not a straggler yet). simt::launch
  /// consults this so stragglers delay kernels, not just transfers.
  double compute_slowdown(int dev, double now) const;

  /// Consult the schedule for one transfer attempt. Advances the (src,
  /// dst) operation counter on attempt 0 only, so retries of one logical
  /// operation re-evaluate the same op index (a transient fault with
  /// count=1 fails the first attempt and lets the retry through).
  struct Verdict {
    bool transient_fail = false;
    bool corrupt = false;
  };
  Verdict on_transfer_attempt(int src, int dst, int attempt, double now);

 private:
  bool matches_link(const FaultEvent& e, int src, int dst) const;
  /// Deterministic per-(src, dst, op) coin flip for probability triggers.
  bool coin(double p, int src, int dst, std::int64_t op,
            std::uint32_t salt) const;

  FaultPlan plan_;
  std::map<std::pair<int, int>, std::int64_t> op_counts_;
  std::set<int> marked_down_;
  std::uint64_t epoch_ = 1;
};

}  // namespace mgs::sim
