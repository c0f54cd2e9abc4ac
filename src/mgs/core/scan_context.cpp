#include "mgs/core/scan_context.hpp"

#include <algorithm>

#include "mgs/core/executor_registry.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/util/math.hpp"

namespace mgs::core {

namespace {

/// Autotuner searches measure real simulated scans, so tune on a reduced
/// copy of the problem: the optimum is scale-stable because the premises'
/// trade-offs are per-chunk/per-block, not per-element (the same argument
/// the figure harnesses use for their K probes).
constexpr std::int64_t kProbeMaxN = std::int64_t{1} << 18;
constexpr std::int64_t kProbeMaxElems = std::int64_t{1} << 20;

}  // namespace

ScanContext::ScanContext(topo::Cluster& cluster)
    : cluster_(&cluster), tuner_(cluster.config().gpu) {}

const ScanPlan& ScanContext::plan_for(std::int64_t n, std::int64_t g,
                                      DType dtype, OpTag op,
                                      int gpus_per_problem, bool segmented) {
  return plan_for(PlanKey{cluster_->config().gpu.name, n, g, dtype, op,
                          segmented, gpus_per_problem});
}

const ScanPlan& ScanContext::plan_for(const PlanKey& key) {
  MGS_REQUIRE(key.n > 0 && key.g > 0 && key.gpus_per_problem >= 1,
              "ScanContext::plan_for: bad plan key");
  if (const auto it = plans_.find(key); it != plans_.end()) {
    ++hits_;
    if (obs::TraceSession* ts = obs::TraceSession::current()) {
      ts->metrics().inc("plan_cache_hits");
    }
    return it->second;
  }
  ++misses_;
  if (obs::TraceSession* ts = obs::TraceSession::current()) {
    ts->metrics().inc("plan_cache_misses");
  }

  const sim::DeviceSpec& spec = cluster_->config().gpu;
  ScanPlan plan;
  if (key.gpus_per_problem == 1) {
    // Single-GPU space: the full automatic (p, l, K) search, probed at
    // reduced scale and memoized inside the Autotuner as well.
    const std::int64_t n_probe = std::min(key.n, kProbeMaxN);
    const std::int64_t g_probe = std::min(
        key.g, std::max<std::int64_t>(1, kProbeMaxElems / n_probe));
    plan = tuner_.tune(n_probe, g_probe, key.elem_bytes()).plan;
  } else {
    // Multi-GPU space (Section 4.2): Premise 3 justifies maximizing K^1,
    // bounded by Equation 1 and by Equations 2/3 (every participating
    // GPU keeps at least one chunk of the problem).
    plan = derive_spl(spec, key.elem_bytes()).plan;
    const std::int64_t bound =
        std::min(k1_max_eq1(key.n, key.g, plan, spec),
                 k1_max_gpus(key.n, plan.s13, key.gpus_per_problem));
    plan.s13.k = static_cast<int>(util::floor_pow2(
        static_cast<std::uint64_t>(std::max<std::int64_t>(1, bound))));
    // Multi-GPU plans default to the event-driven stream pipeline, with
    // the wave count from the Premise-3-style overlap model. Callers can
    // force the synchronous schedule via PipelineChoice{kSync}.
    plan.pipe.overlap = true;
    plan.pipe.waves = pick_wave_count(*cluster_, key.n, key.g,
                                      key.gpus_per_problem, plan,
                                      key.elem_bytes());
  }
  const ScanPlan& cached = plans_.emplace(key, plan).first->second;
  if (obs::TraceSession* ts = obs::TraceSession::current()) {
    ts->metrics().set("plan_cache_size", static_cast<double>(plans_.size()));
  }
  return cached;
}

std::size_t ScanContext::invalidate_plans(int max_gpus_per_problem) {
  std::size_t dropped = 0;
  for (auto it = plans_.begin(); it != plans_.end();) {
    if (it->first.gpus_per_problem > max_gpus_per_problem) {
      auto next = std::next(it);
      retired_plans_.push_back(plans_.extract(it));
      it = next;
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped != 0) {
    if (obs::TraceSession* ts = obs::TraceSession::current()) {
      ts->metrics().add("plan_cache_invalidated", {},
                        static_cast<double>(dropped));
      // Running retirement counter next to plan_cache_hits/misses, so
      // dashboards see degraded-mode re-plans without diffing cache sizes.
      ts->metrics().set("plan_cache_retired",
                        static_cast<double>(retired_plans_.size()));
      ts->metrics().set("plan_cache_size",
                        static_cast<double>(plans_.size()));
    }
  }
  return dropped;
}

std::uint64_t ScanContext::fault_epoch() const {
  const sim::FaultInjector* fi = cluster_->fault_injector();
  return fi == nullptr ? 0 : fi->epoch();
}

std::unique_ptr<ScanExecutor> ScanContext::executor_for(
    const PlannerInput& input) {
  return make_executor(*this, choose_proposal(*cluster_, input));
}

}  // namespace mgs::core
