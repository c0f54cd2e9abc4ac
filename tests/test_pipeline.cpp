// Tests for the event-driven stream pipeline: the overlapped multi-GPU
// executors must produce bit-identical results to the bulk-synchronous
// stage path (the operator is applied in the same order, only the modeled
// timeline changes), schedule deterministically, survive fault injection
// without deadlocking, and actually buy modeled time -- less makespan and
// no more critical-path idle than the synchronous schedule they replace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/executor.hpp"
#include "mgs/obs/critical_path.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/topo/topology.hpp"
#include "mgs/util/random.hpp"
#include "pin_dump.hpp"

namespace mc = mgs::core;
namespace mo = mgs::obs;
namespace ms = mgs::sim;
namespace mt = mgs::topo;
using mgs::baselines::reference_batch_scan;

namespace {

constexpr std::int64_t kN = 1 << 12;
constexpr std::int64_t kG = 8;

using Factory = std::function<std::unique_ptr<mc::ScanExecutor>(
    mc::ScanContext&, mc::PipelineChoice)>;

struct Proposal {
  const char* name;
  int nodes;  ///< cluster size the proposal needs
  Factory make;
};

std::vector<Proposal> multi_gpu_proposals() {
  return {
      {"Scan-MPS", 1,
       [](mc::ScanContext& c, mc::PipelineChoice pipe) {
         return mc::make_mps_executor(c, 4, false, pipe);
       }},
      {"Scan-MP-PC", 1,
       [](mc::ScanContext& c, mc::PipelineChoice pipe) {
         return mc::make_mppc_executor(c, 2, 4, 1, pipe);
       }},
      {"Scan-MPS-multinode", 2,
       [](mc::ScanContext& c, mc::PipelineChoice pipe) {
         return mc::make_multinode_executor(c, 2, 4, pipe);
       }},
  };
}

struct Outcome {
  std::vector<std::int32_t> out;
  mc::RunResult result;
};

/// One fresh cluster + context + executor run under `pipe`, optionally
/// with a fault plan attached ("" = no injector).
Outcome run_proposal(const Proposal& p, mc::PipelineChoice pipe,
                     const std::string& faults,
                     std::span<const std::int32_t> data, std::int64_t n,
                     std::int64_t g) {
  auto cluster = mt::tsubame_kfc_cluster(p.nodes);
  std::unique_ptr<ms::FaultInjector> fi;
  if (!faults.empty()) {
    fi = std::make_unique<ms::FaultInjector>(ms::parse_fault_plan(faults));
    cluster.set_fault_injector(fi.get());
  }
  mc::ScanContext ctx(cluster);
  auto ex = p.make(ctx, pipe);
  ex->prepare(n, g);
  Outcome o;
  o.out.resize(static_cast<std::size_t>(n * g));
  o.result = ex->run(data, o.out, mc::ScanKind::kInclusive);
  return o;
}

constexpr mc::PipelineChoice kSyncChoice{mc::PipelineMode::kSync, 0};
constexpr mc::PipelineChoice kOverlapChoice{mc::PipelineMode::kOverlap, 0};

}  // namespace

// ------------------------------------------------- correctness / identity

// The overlapped pipeline reorders the *timeline*, not the arithmetic:
// every proposal must produce exactly the bytes the synchronous path
// produces, which in turn match the reference scan.
TEST(Pipeline, OverlapBitIdenticalToSync) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 7);
  const auto expect =
      reference_batch_scan<std::int32_t>(data, kN, kG, mc::ScanKind::kInclusive);
  for (const auto& p : multi_gpu_proposals()) {
    SCOPED_TRACE(p.name);
    const auto sync = run_proposal(p, kSyncChoice, "", data, kN, kG);
    const auto over = run_proposal(p, kOverlapChoice, "", data, kN, kG);
    EXPECT_EQ(sync.out, expect);
    EXPECT_EQ(over.out, sync.out);  // element-wise bit identity
  }
}

// Non-power-of-two N exercises the partial-chunk and uneven-wave paths.
TEST(Pipeline, OverlapBitIdenticalOnAwkwardShapes) {
  // Still divisible by the 8 ranks of the multinode proposal, but not a
  // power of two, so chunks and waves split unevenly.
  const std::int64_t n = (1 << 12) - 128;
  for (std::int64_t g : {std::int64_t{1}, std::int64_t{3}, std::int64_t{8}}) {
    const auto data =
        mgs::util::random_i32(static_cast<std::size_t>(n * g), 11);
    const auto expect =
        reference_batch_scan<std::int32_t>(data, n, g, mc::ScanKind::kInclusive);
    for (const auto& p : multi_gpu_proposals()) {
      SCOPED_TRACE(std::string(p.name) + " g=" + std::to_string(g));
      const auto over = run_proposal(p, kOverlapChoice, "", data, n, g);
      EXPECT_EQ(over.out, expect);
    }
  }
}

// ------------------------------------------------------------ determinism

// The schedule is driven by recorded events on modeled clocks, not host
// threads: repeated runs must agree to the last bit in both the output
// and the modeled makespan.
TEST(Pipeline, EventOrderingIsDeterministic) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 23);
  for (const auto& p : multi_gpu_proposals()) {
    SCOPED_TRACE(p.name);
    const auto a = run_proposal(p, kOverlapChoice, "", data, kN, kG);
    const auto b = run_proposal(p, kOverlapChoice, "", data, kN, kG);
    EXPECT_EQ(a.out, b.out);
    EXPECT_EQ(a.result.seconds, b.result.seconds);  // exact, not approximate
  }
}

// The per-phase breakdown is cut at stage-close instants and must
// telescope exactly to the makespan, overlap or not.
TEST(Pipeline, BreakdownTelescopesExactly) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 29);
  for (const auto& p : multi_gpu_proposals()) {
    SCOPED_TRACE(p.name);
    const auto over = run_proposal(p, kOverlapChoice, "", data, kN, kG);
    EXPECT_NEAR(over.result.breakdown.total(), over.result.seconds,
                1e-12 + 1e-9 * over.result.seconds);
  }
}

// ------------------------------------------------------------- resilience

// Fault injection must not deadlock the event pipeline: a straggler GPU
// stretches the schedule, transient transfer failures retry inside the
// engine -- both must still complete with the right answer.
TEST(Pipeline, OverlapSurvivesStraggler) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 31);
  const auto expect =
      reference_batch_scan<std::int32_t>(data, kN, kG, mc::ScanKind::kInclusive);
  const std::string spec = "straggler:dev=1,factor=4";
  for (const auto& p : multi_gpu_proposals()) {
    SCOPED_TRACE(p.name);
    const auto healthy = run_proposal(p, kOverlapChoice, "", data, kN, kG);
    const auto faulted = run_proposal(p, kOverlapChoice, spec, data, kN, kG);
    EXPECT_EQ(faulted.out, expect);
    // The slow device sits on the critical path of every schedule.
    EXPECT_GT(faulted.result.seconds, healthy.result.seconds);
  }
}

TEST(Pipeline, OverlapSurvivesTransientFaults) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 37);
  const auto expect =
      reference_batch_scan<std::int32_t>(data, kN, kG, mc::ScanKind::kInclusive);
  const std::string spec = "transient:op=0,count=3; policy:retries=5";
  for (const auto& p : multi_gpu_proposals()) {
    SCOPED_TRACE(p.name);
    const auto faulted = run_proposal(p, kOverlapChoice, spec, data, kN, kG);
    EXPECT_EQ(faulted.out, expect);
    EXPECT_GE(faulted.result.faults.counters.retries +
                  faulted.result.faults.counters.transient_failures,
              1u);
  }
}

// ----------------------------------------------------- modeled-time gains

// Overlap must not lose modeled time against the synchronous schedule on
// any multi-GPU proposal at a communication-visible size.
TEST(Pipeline, OverlapNeverSlowerThanSync) {
  const std::int64_t n = 1 << 16;
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(n * kG), 41);
  for (const auto& p : multi_gpu_proposals()) {
    SCOPED_TRACE(p.name);
    const auto sync = run_proposal(p, kSyncChoice, "", data, n, kG);
    const auto over = run_proposal(p, kOverlapChoice, "", data, n, kG);
    EXPECT_LE(over.result.seconds, sync.result.seconds * (1.0 + 1e-9));
  }
}

// Scan-MPS at the Figure-9 shape: the pipelined gathers/scatters must cut
// the makespan materially, not marginally (the acceptance bar is 15% on
// the 4-GPU bench config; leave headroom here for model tweaks).
TEST(Pipeline, OverlapCutsMpsMakespan) {
  const std::int64_t n = 1 << 17;
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(n * kG), 43);
  Proposal mps = multi_gpu_proposals()[0];
  const auto sync = run_proposal(mps, kSyncChoice, "", data, n, kG);
  const auto over = run_proposal(mps, kOverlapChoice, "", data, n, kG);
  EXPECT_LT(over.result.seconds, sync.result.seconds * 0.90);
}

// --------------------------------------------------- critical-path anatomy

namespace {

mo::CriticalPathReport traced_report(const Proposal& p,
                                     mc::PipelineChoice pipe,
                                     std::span<const std::int32_t> data,
                                     std::int64_t n, std::int64_t g) {
  mo::TraceSession ts;
  run_proposal(p, pipe, "", data, n, g);
  return mo::analyze_last_run(ts.spans());
}

}  // namespace

namespace {

/// Summed idle over the compute-engine lanes: the time devices spend
/// parked at barriers (sync) or waiting on events (overlap). The
/// makespan-attribution kIdle is near zero for the synchronous schedule
/// (the busiest device fills every stage window), so the per-device sum
/// is the quantity the pipeline is supposed to shrink.
double compute_lane_idle(const mo::CriticalPathReport& cp) {
  double idle = 0.0;
  for (const auto& row : cp.devices) {
    if (row.engine == "compute") idle += row.idle_seconds;
  }
  return idle;
}

}  // namespace

// The overlapped schedule exists to fill the synchronous schedule's
// barrier stalls: aggregate compute-lane idle must come out strictly
// below the synchronous run's, the makespan attribution must stay
// exact, and every per-engine lane must still be serial.
TEST(Pipeline, CriticalPathIdleBelowSync) {
  const std::int64_t n = 1 << 16;
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(n * kG), 47);
  for (const auto& p : multi_gpu_proposals()) {
    SCOPED_TRACE(p.name);
    const auto sync = traced_report(p, kSyncChoice, data, n, kG);
    const auto over = traced_report(p, kOverlapChoice, data, n, kG);
    EXPECT_LT(compute_lane_idle(over), compute_lane_idle(sync));
    // Attribution stays exact under overlap.
    EXPECT_NEAR(over.by_category.total(), over.total_seconds,
                1e-12 + 1e-9 * over.total_seconds);
    // Every per-engine lane is serial: busy + idle == window.
    for (const auto& row : over.devices) {
      EXPECT_NEAR(row.busy.total() + row.idle_seconds, over.total_seconds,
                  1e-12 + 1e-9 * over.total_seconds)
          << "device " << row.device << " engine " << row.engine;
    }
  }
}

TEST(Pipeline, OverlappedTransfersRideDmaLanes) {
  const std::int64_t n = 1 << 16;
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(n * kG), 53);
  Proposal mps = multi_gpu_proposals()[0];
  const auto over = traced_report(mps, kOverlapChoice, data, n, kG);
  // Inter-GPU traffic is visible in the link table...
  std::uint64_t inter_gpu = 0;
  for (const auto& l : over.links) {
    if (l.src != l.dst) inter_gpu += l.transfers;
  }
  EXPECT_GT(inter_gpu, 0u);
  // ...and at least one device reports a busy DMA lane.
  bool saw_dma = false;
  for (const auto& row : over.devices) {
    if (row.engine == "dma" && row.busy.total() > 0.0) saw_dma = true;
  }
  EXPECT_TRUE(saw_dma);
}

// ------------------------------------------------------ pinned schedules
//
// Exact modeled values of the Scan-MPS and multinode schedules at one
// small shape: makespan, every breakdown row, every stage span, the
// per-kernel launch/byte/second metrics, the transfer and MPI operation
// counters, and for the mid-run resumes the Recovery row and resumed
// boundaries. Doubles are written as %.17g, which round-trips, so a
// string match is a bit-for-bit match. Any change to how a schedule is
// expressed in code must leave these untouched; a change that is meant to
// move modeled time has to re-pin them deliberately.

namespace {

constexpr std::int64_t kPinN = 1 << 15;
constexpr std::int64_t kPinG = 6;

enum class PinProposal { kMps4, kMps8, kMultinode2x4 };

std::unique_ptr<mc::ScanExecutor> make_pinned(mc::ScanContext& ctx,
                                              PinProposal p,
                                              mc::PipelineChoice pipe,
                                              mc::DType dt, mc::OpTag op) {
  switch (p) {
    case PinProposal::kMps4:
      return mc::make_mps_executor(ctx, 4, false, pipe, dt, op);
    case PinProposal::kMps8:
      return mc::make_mps_executor(ctx, 8, false, pipe, dt, op);
    case PinProposal::kMultinode2x4:
      return mc::make_multinode_executor(ctx, 2, 4, pipe, dt, op);
  }
  return nullptr;
}

/// Render everything a pinned case fixes, one fact per line.
std::vector<std::string> pin_lines(const mc::RunResult& r,
                                   const std::vector<mo::SpanRecord>& spans) {
  std::vector<std::string> lines;
  lines.push_back("seconds " + pin_num(r.seconds));
  for (const auto& [name, s] : r.breakdown.entries()) {
    lines.push_back("row " + name + " " + pin_num(s));
  }
  for (const auto& s : spans) {
    if (s.kind != mo::SpanKind::kStage) continue;
    lines.push_back("stage " + s.name + "@" + std::to_string(s.device) + " " +
                    pin_num(s.start_seconds) + " " + pin_num(s.end_seconds));
  }
  static const char* const kPinned[] = {
      "kernel_launches_total", "kernel_bytes",   "kernel_seconds",
      "transfers_total",       "transfer_bytes", "mpi_ops_total"};
  for (const auto& m : r.metrics) {
    if (std::find(std::begin(kPinned), std::end(kPinned), m.name) ==
        std::end(kPinned)) {
      continue;
    }
    std::string line = "metric " + m.name;
    for (const auto& [k, v] : m.labels) line += "{" + k + "=" + v + "}";
    lines.push_back(line + " " + pin_num(m.value));
  }
  for (const auto& b : r.faults.resumed_stages) lines.push_back("resumed " + b);
  return lines;
}

struct PinRun {
  std::vector<std::string> lines;
  std::vector<mo::SpanRecord> spans;
  bool output_ok = false;
};

template <typename T>
PinRun run_pinned(PinProposal p, mc::PipelineChoice pipe, mc::DType dt,
                  mc::OpTag op, const ms::FaultPlan* faults) {
  std::vector<T> data;
  for (std::int32_t x :
       mgs::util::random_i32(static_cast<std::size_t>(kPinN * kPinG), 61)) {
    data.push_back(static_cast<T>(x % 1000) / T{8});
  }
  auto cluster =
      mt::tsubame_kfc_cluster(p == PinProposal::kMultinode2x4 ? 2 : 1);
  std::unique_ptr<ms::FaultInjector> fi;
  if (faults != nullptr) {
    fi = std::make_unique<ms::FaultInjector>(*faults);
    cluster.set_fault_injector(fi.get());
  }
  mo::TraceSession ts;
  mc::ScanContext ctx(cluster);
  auto ex = make_pinned(ctx, p, pipe, dt, op);
  ex->prepare(kPinN, kPinG);
  std::vector<T> out(data.size());
  const mc::RunResult r = ex->run(data, out, mc::ScanKind::kInclusive);
  PinRun pr;
  pr.spans = ts.spans();
  pr.lines = pin_lines(r, pr.spans);
  if (op == mc::OpTag::kMax) {
    pr.output_ok = out == reference_batch_scan<T>(data, kPinN, kPinG,
                                                  mc::ScanKind::kInclusive,
                                                  mc::Max<T>{});
  } else {
    pr.output_ok = out == reference_batch_scan<T>(data, kPinN, kPinG,
                                                  mc::ScanKind::kInclusive);
  }
  return pr;
}

struct PinCase {
  const char* name;
  PinProposal proposal;
  mc::PipelineMode mode;
  bool f64_max;  ///< false: i32/plus
  const char* expected;
  int waves = 0;  ///< 0: the planner's wave count
};

void check_pin_case(const PinCase& pc) {
  SCOPED_TRACE(pc.name);
  const mc::PipelineChoice pipe{pc.mode, pc.waves};
  const PinRun r =
      pc.f64_max ? run_pinned<double>(pc.proposal, pipe, mc::DType::kF64,
                                      mc::OpTag::kMax, nullptr)
                 : run_pinned<std::int32_t>(pc.proposal, pipe,
                                            mc::DType::kI32, mc::OpTag::kPlus,
                                            nullptr);
  EXPECT_TRUE(r.output_ok);
  expect_pinned(r.lines, pc.expected);
}

/// Kill `device` at the midpoint of the healthy run's `stage` span, then
/// pin the resumed run.
void check_pin_resume(mc::PipelineMode mode, int waves, const char* stage,
                      int device, const char* expected) {
  SCOPED_TRACE(stage);
  const mc::PipelineChoice pipe{mode, waves};
  const PinRun healthy = run_pinned<std::int32_t>(
      PinProposal::kMps4, pipe, mc::DType::kI32, mc::OpTag::kPlus, nullptr);
  double at = 0.0;
  for (const auto& s : healthy.spans) {
    if (s.kind == mo::SpanKind::kStage && s.name == stage) {
      at = (s.start_seconds + s.end_seconds) / 2.0;
      break;
    }
  }
  ASSERT_GT(at, 0.0);
  ms::FaultPlan plan;
  ms::FaultEvent ev;
  ev.kind = ms::FaultKind::kDeviceDown;
  ev.device = device;
  ev.at_seconds = at;
  plan.events.push_back(ev);
  const PinRun r = run_pinned<std::int32_t>(
      PinProposal::kMps4, pipe, mc::DType::kI32, mc::OpTag::kPlus, &plan);
  EXPECT_TRUE(r.output_ok);
  expect_pinned(r.lines, expected);
}

/// Pin a run under a fault plan that needs no recovery (a compute
/// straggler): the window cuts must follow the skewed compute front.
void check_pin_faults(const char* name, PinProposal proposal,
                      mc::PipelineMode mode, const char* spec,
                      const char* expected) {
  SCOPED_TRACE(name);
  const ms::FaultPlan plan = ms::parse_fault_plan(spec);
  const PinRun r =
      run_pinned<std::int32_t>(proposal, {mode, 0}, mc::DType::kI32,
                               mc::OpTag::kPlus, &plan);
  EXPECT_TRUE(r.output_ok);
  expect_pinned(r.lines, expected);
}

constexpr auto kSync = mc::PipelineMode::kSync;
constexpr auto kOverlap = mc::PipelineMode::kOverlap;

}  // namespace

TEST(PipelinePins, Mps4SyncI32Plus) {
  check_pin_case({"mps4 sync i32/plus", PinProposal::kMps4, kSync, false, R"(
seconds 7.3446311111111104e-05
row Stage1 7.4633333333333327e-06
row AuxGather 2.5479822222222217e-05
row Stage2 5.7111111111111091e-06
row AuxScatter 2.5479822222222217e-05
row Stage3 9.3122222222222266e-06
stage Stage1@-1 0 7.4633333333333327e-06
stage AuxGather@-1 7.4633333333333327e-06 3.2943155555555551e-05
stage Stage2@0 3.2943155555555551e-05 3.865426666666666e-05
stage AuxScatter@-1 3.865426666666666e-05 6.4134088888888877e-05
stage Stage3@-1 6.4134088888888877e-05 7.3446311111111104e-05
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan} 1536
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 4
metric kernel_launches_total{name=intermediate_scan} 1
metric kernel_launches_total{name=scan_add} 4
metric kernel_seconds{name=chunk_reduce} 2.9853333333333331e-05
metric kernel_seconds{name=intermediate_scan} 5.7111111111111108e-06
metric kernel_seconds{name=scan_add} 3.7248888888888886e-05
metric transfer_bytes{kind=p2p} 1152
metric transfer_bytes{kind=self} 384
metric transfers_total{kind=p2p} 6
metric transfers_total{kind=self} 2
)"});
}
TEST(PipelinePins, Mps4SyncF64Max) {
  check_pin_case({"mps4 sync f64/max", PinProposal::kMps4, kSync, true, R"(
seconds 7.9223733333333332e-05
row Stage1 9.3122222222222215e-06
row AuxGather 2.5539644444444444e-05
row Stage2 5.8222222222222245e-06
row AuxScatter 2.5539644444444444e-05
row Stage3 1.3009999999999999e-05
stage Stage1@-1 0 9.3122222222222215e-06
stage AuxGather@-1 9.3122222222222215e-06 3.4851866666666664e-05
stage Stage2@0 3.4851866666666664e-05 4.0674088888888889e-05
stage AuxScatter@-1 4.0674088888888889e-05 6.6213733333333333e-05
stage Stage3@-1 6.6213733333333333e-05 7.9223733333333332e-05
metric kernel_bytes{name=chunk_reduce} 1574400
metric kernel_bytes{name=intermediate_scan} 3072
metric kernel_bytes{name=scan_add} 3147264
metric kernel_launches_total{name=chunk_reduce} 4
metric kernel_launches_total{name=intermediate_scan} 1
metric kernel_launches_total{name=scan_add} 4
metric kernel_seconds{name=chunk_reduce} 3.7248888888888886e-05
metric kernel_seconds{name=intermediate_scan} 5.8222222222222219e-06
metric kernel_seconds{name=scan_add} 5.2039999999999996e-05
metric transfer_bytes{kind=p2p} 2304
metric transfer_bytes{kind=self} 768
metric transfers_total{kind=p2p} 6
metric transfers_total{kind=self} 2
)"});
}
TEST(PipelinePins, Mps4OverlapI32Plus) {
  check_pin_case({"mps4 overlap i32/plus", PinProposal::kMps4, kOverlap, false,
                  R"(
seconds 5.0076892063492058e-05
row Stage1 7.4633333333333327e-06
row Stage2+Comm 3.3301336507936505e-05
row Stage3 9.3122222222222198e-06
stage Stage1@-1 0 7.4633333333333327e-06
stage Stage2+Comm@-1 7.4633333333333327e-06 4.0764669841269838e-05
stage Stage3@-1 4.0764669841269838e-05 5.0076892063492058e-05
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan} 1704
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 4
metric kernel_launches_total{name=intermediate_scan} 4
metric kernel_launches_total{name=scan_add} 4
metric kernel_seconds{name=chunk_reduce} 2.9853333333333331e-05
metric kernel_seconds{name=intermediate_scan} 2.2601579670329667e-05
metric kernel_seconds{name=scan_add} 3.7248888888888886e-05
metric transfer_bytes{kind=p2p} 1152
metric transfer_bytes{kind=self} 384
metric transfers_total{kind=p2p} 6
metric transfers_total{kind=self} 2
)"});
}
TEST(PipelinePins, Mps4OverlapF64Max) {
  check_pin_case({"mps4 overlap f64/max", PinProposal::kMps4, kOverlap, true,
                  R"(
seconds 5.5753466666666667e-05
row Stage1 9.3122222222222215e-06
row Stage2+Comm 3.3431244444444448e-05
row Stage3 1.3009999999999999e-05
stage Stage1@-1 0 9.3122222222222215e-06
stage Stage2+Comm@-1 9.3122222222222215e-06 4.2743466666666668e-05
stage Stage3@-1 4.2743466666666668e-05 5.5753466666666667e-05
metric kernel_bytes{name=chunk_reduce} 1574400
metric kernel_bytes{name=intermediate_scan} 3408
metric kernel_bytes{name=scan_add} 3147264
metric kernel_launches_total{name=chunk_reduce} 4
metric kernel_launches_total{name=intermediate_scan} 4
metric kernel_launches_total{name=scan_add} 4
metric kernel_seconds{name=chunk_reduce} 3.7248888888888886e-05
metric kernel_seconds{name=intermediate_scan} 2.2718108974358974e-05
metric kernel_seconds{name=scan_add} 5.2039999999999996e-05
metric transfer_bytes{kind=p2p} 2304
metric transfer_bytes{kind=self} 768
metric transfers_total{kind=p2p} 6
metric transfers_total{kind=self} 2
)"});
}
TEST(PipelinePins, Mps8SyncI32Plus) {
  check_pin_case({"mps8 sync i32/plus", PinProposal::kMps8, kSync, false, R"(
seconds 0.0004032657616161615
row Stage1 7.4633333333333327e-06
row AuxGather 0.00019038954747474749
row Stage2 5.7111111111111024e-06
row AuxScatter 0.00019038954747474738
row Stage3 9.3122222222222131e-06
stage Stage1@-1 0 7.4633333333333327e-06
stage AuxGather@-1 7.4633333333333327e-06 0.00019785288080808081
stage Stage2@0 0.00019785288080808081 0.00020356399191919191
stage AuxScatter@-1 0.00020356399191919191 0.00039395353939393929
stage Stage3@-1 0.00039395353939393929 0.0004032657616161615
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan} 1536
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 8
metric kernel_launches_total{name=intermediate_scan} 1
metric kernel_launches_total{name=scan_add} 8
metric kernel_seconds{name=chunk_reduce} 5.9706666666666662e-05
metric kernel_seconds{name=intermediate_scan} 5.7111111111111108e-06
metric kernel_seconds{name=scan_add} 7.4497777777777772e-05
metric transfer_bytes{kind=host-staged} 768
metric transfer_bytes{kind=p2p} 576
metric transfer_bytes{kind=self} 192
metric transfers_total{kind=host-staged} 8
metric transfers_total{kind=p2p} 6
metric transfers_total{kind=self} 2
)"});
}
TEST(PipelinePins, Mps8SyncF64Max) {
  check_pin_case({"mps8 sync f64/max", PinProposal::kMps8, kSync, true, R"(
seconds 0.00040926263434343436
row Stage1 9.3122222222222215e-06
row AuxGather 0.00019055909494949497
row Stage2 5.8222222222222312e-06
row AuxScatter 0.00019055909494949497
row Stage3 1.3009999999999986e-05
stage Stage1@-1 0 9.3122222222222215e-06
stage AuxGather@-1 9.3122222222222215e-06 0.00019987131717171718
stage Stage2@0 0.00019987131717171718 0.00020569353939393941
stage AuxScatter@-1 0.00020569353939393941 0.00039625263434343437
stage Stage3@-1 0.00039625263434343437 0.00040926263434343436
metric kernel_bytes{name=chunk_reduce} 1574400
metric kernel_bytes{name=intermediate_scan} 3072
metric kernel_bytes{name=scan_add} 3147264
metric kernel_launches_total{name=chunk_reduce} 8
metric kernel_launches_total{name=intermediate_scan} 1
metric kernel_launches_total{name=scan_add} 8
metric kernel_seconds{name=chunk_reduce} 7.4497777777777772e-05
metric kernel_seconds{name=intermediate_scan} 5.8222222222222219e-06
metric kernel_seconds{name=scan_add} 0.00010407999999999999
metric transfer_bytes{kind=host-staged} 1536
metric transfer_bytes{kind=p2p} 1152
metric transfer_bytes{kind=self} 384
metric transfers_total{kind=host-staged} 8
metric transfers_total{kind=p2p} 6
metric transfers_total{kind=self} 2
)"});
}
TEST(PipelinePins, Mps8OverlapI32Plus) {
  check_pin_case({"mps8 overlap i32/plus", PinProposal::kMps8, kOverlap, false,
                  R"(
seconds 0.00012230361818181819
row Stage1 7.4633333333333327e-06
row Stage2+Comm 0.00010552806262626265
row Stage3 9.3122222222222131e-06
stage Stage1@-1 0 7.4633333333333327e-06
stage Stage2+Comm@-1 7.4633333333333327e-06 0.00011299139595959598
stage Stage3@-1 0.00011299139595959598 0.00012230361818181819
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan} 1896
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 8
metric kernel_launches_total{name=intermediate_scan} 8
metric kernel_launches_total{name=scan_add} 8
metric kernel_seconds{name=chunk_reduce} 5.9706666666666662e-05
metric kernel_seconds{name=intermediate_scan} 4.5204761904761906e-05
metric kernel_seconds{name=scan_add} 7.4497777777777772e-05
metric transfer_bytes{kind=host-staged} 768
metric transfer_bytes{kind=p2p} 576
metric transfer_bytes{kind=self} 192
metric transfers_total{kind=host-staged} 8
metric transfers_total{kind=p2p} 6
metric transfers_total{kind=self} 2
)"});
}
TEST(PipelinePins, Mps8OverlapF64Max) {
  check_pin_case({"mps8 overlap f64/max", PinProposal::kMps8, kOverlap, true,
                  R"(
seconds 0.00012796390303030302
row Stage1 9.3122222222222215e-06
row Stage2+Comm 0.0001056416808080808
row Stage3 1.3009999999999999e-05
stage Stage1@-1 0 9.3122222222222215e-06
stage Stage2+Comm@-1 9.3122222222222215e-06 0.00011495390303030302
stage Stage3@-1 0.00011495390303030302 0.00012796390303030302
metric kernel_bytes{name=chunk_reduce} 1574400
metric kernel_bytes{name=intermediate_scan} 3792
metric kernel_bytes{name=scan_add} 3147264
metric kernel_launches_total{name=chunk_reduce} 8
metric kernel_launches_total{name=intermediate_scan} 8
metric kernel_launches_total{name=scan_add} 8
metric kernel_seconds{name=chunk_reduce} 7.4497777777777772e-05
metric kernel_seconds{name=intermediate_scan} 4.5229067460317453e-05
metric kernel_seconds{name=scan_add} 0.00010407999999999999
metric transfer_bytes{kind=host-staged} 1536
metric transfer_bytes{kind=p2p} 1152
metric transfer_bytes{kind=self} 384
metric transfers_total{kind=host-staged} 8
metric transfers_total{kind=p2p} 6
metric transfers_total{kind=self} 2
)"});
}
TEST(PipelinePins, MultinodeSyncI32Plus) {
  check_pin_case({"mn2x4 sync i32/plus", PinProposal::kMultinode2x4, kSync,
                  false, R"(
seconds 0.001291459187301587
row Stage1 7.4633333333333268e-06
row MPI_Gather 0.00054409737142857139
row Stage2 6.4888888888888418e-06
row MPI_Scatter 0.00054409737142857128
row Stage3 9.3122222222222131e-06
row MPI_Barrier 0.00018000000000000001
stage EntryBarrier@-1 0 8.9999999999999992e-05
stage Stage1@-1 8.9999999999999992e-05 9.7463333333333319e-05
stage MPI_Gather@-1 9.7463333333333319e-05 0.00064156070476190465
stage Stage2@0 0.00064156070476190465 0.0006480495936507935
stage MPI_Scatter@-1 0.0006480495936507935 0.0011921469650793648
stage Stage3@-1 0.0011921469650793648 0.001201459187301587
stage ExitBarrier@-1 0.001201459187301587 0.001291459187301587
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan_ranked} 1536
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 8
metric kernel_launches_total{name=intermediate_scan_ranked} 1
metric kernel_launches_total{name=scan_add} 8
metric kernel_seconds{name=chunk_reduce} 5.9706666666666662e-05
metric kernel_seconds{name=intermediate_scan_ranked} 6.4888888888888884e-06
metric kernel_seconds{name=scan_add} 7.4497777777777772e-05
metric mpi_ops_total{op=MPI_Barrier} 2
metric mpi_ops_total{op=MPI_Gather} 1
metric mpi_ops_total{op=MPI_Scatter} 1
metric transfer_bytes{kind=mpi} 1536
)"});
}
TEST(PipelinePins, MultinodeSyncF64Max) {
  check_pin_case({"mn2x4 sync f64/max", PinProposal::kMultinode2x4, kSync,
                  true, R"(
seconds 0.0012972005968253967
row Stage1 9.3122222222222266e-06
row MPI_Gather 0.00054419474285714278
row Stage2 6.4888888888888418e-06
row MPI_Scatter 0.00054419474285714289
row Stage3 1.3009999999999931e-05
row MPI_Barrier 0.00018000000000000001
stage EntryBarrier@-1 0 8.9999999999999992e-05
stage Stage1@-1 8.9999999999999992e-05 9.9312222222222219e-05
stage MPI_Gather@-1 9.9312222222222219e-05 0.00064350696507936502
stage Stage2@0 0.00064350696507936502 0.00064999585396825386
stage MPI_Scatter@-1 0.00064999585396825386 0.0011941905968253968
stage Stage3@-1 0.0011941905968253968 0.0012072005968253967
stage ExitBarrier@-1 0.0012072005968253967 0.0012972005968253967
metric kernel_bytes{name=chunk_reduce} 1574400
metric kernel_bytes{name=intermediate_scan_ranked} 3072
metric kernel_bytes{name=scan_add} 3147264
metric kernel_launches_total{name=chunk_reduce} 8
metric kernel_launches_total{name=intermediate_scan_ranked} 1
metric kernel_launches_total{name=scan_add} 8
metric kernel_seconds{name=chunk_reduce} 7.4497777777777772e-05
metric kernel_seconds{name=intermediate_scan_ranked} 6.4888888888888884e-06
metric kernel_seconds{name=scan_add} 0.00010407999999999999
metric mpi_ops_total{op=MPI_Barrier} 2
metric mpi_ops_total{op=MPI_Gather} 1
metric mpi_ops_total{op=MPI_Scatter} 1
metric transfer_bytes{kind=mpi} 3072
)"});
}
TEST(PipelinePins, MultinodeOverlapI32Plus) {
  check_pin_case({"mn2x4 overlap i32/plus", PinProposal::kMultinode2x4,
                  kOverlap, false, R"(
seconds 0.00038976058571428573
row Stage1 7.4633333333333268e-06
row Stage2+Comm 0.00019298503015873018
row Stage3 9.3122222222222131e-06
row MPI_Barrier 0.00018000000000000001
stage EntryBarrier@-1 0 8.9999999999999992e-05
stage Stage1@-1 8.9999999999999992e-05 9.7463333333333319e-05
stage Stage2+Comm@-1 9.7463333333333319e-05 0.0002904483634920635
stage Stage3@-1 0.0002904483634920635 0.00029976058571428571
stage ExitBarrier@-1 0.00029976058571428571 0.00038976058571428573
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan_ranked} 1896
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 8
metric kernel_launches_total{name=intermediate_scan_ranked} 8
metric kernel_launches_total{name=scan_add} 8
metric kernel_seconds{name=chunk_reduce} 5.9706666666666662e-05
metric kernel_seconds{name=intermediate_scan_ranked} 4.5831994047619042e-05
metric kernel_seconds{name=scan_add} 7.4497777777777772e-05
metric mpi_ops_total{op=MPI_Barrier} 2
metric mpi_ops_total{op=MPI_Isend} 16
metric transfer_bytes{kind=mpi} 1536
)"});
}
TEST(PipelinePins, MultinodeOverlapF64Max) {
  check_pin_case({"mn2x4 overlap f64/max", PinProposal::kMultinode2x4,
                  kOverlap, true, R"(
seconds 0.00039540617142857126
row Stage1 9.3122222222222266e-06
row Stage2+Comm 0.00019308394920634908
row Stage3 1.3009999999999986e-05
row MPI_Barrier 0.00017999999999999996
stage EntryBarrier@-1 0 8.9999999999999992e-05
stage Stage1@-1 8.9999999999999992e-05 9.9312222222222219e-05
stage Stage2+Comm@-1 9.9312222222222219e-05 0.00029239617142857131
stage Stage3@-1 0.00029239617142857131 0.0003054061714285713
stage ExitBarrier@-1 0.0003054061714285713 0.00039540617142857126
metric kernel_bytes{name=chunk_reduce} 1574400
metric kernel_bytes{name=intermediate_scan_ranked} 3792
metric kernel_bytes{name=scan_add} 3147264
metric kernel_launches_total{name=chunk_reduce} 8
metric kernel_launches_total{name=intermediate_scan_ranked} 8
metric kernel_launches_total{name=scan_add} 8
metric kernel_seconds{name=chunk_reduce} 7.4497777777777772e-05
metric kernel_seconds{name=intermediate_scan_ranked} 4.5892757936507935e-05
metric kernel_seconds{name=scan_add} 0.00010407999999999999
metric mpi_ops_total{op=MPI_Barrier} 2
metric mpi_ops_total{op=MPI_Isend} 16
metric transfer_bytes{kind=mpi} 3072
)"});
}
TEST(PipelinePins, Mps4SyncResumeAfterDeviceDown) {
  check_pin_resume(kSync, 0, "Stage2", 1, R"(
seconds 0.00013142846464646462
row Stage1 7.4633333333333327e-06
row AuxGather 2.5479822222222217e-05
row Stage2 5.7111111111111091e-06
row Recovery 5.6809131313131305e-05
row AuxScatter 1.7340622222222212e-05
row Stage3 1.862444444444444e-05
stage Stage1@-1 0 7.4633333333333327e-06
stage AuxGather@-1 7.4633333333333327e-06 3.2943155555555551e-05
stage Stage2@0 3.2943155555555551e-05 3.865426666666666e-05
stage AuxScatter@-1 3.865426666666666e-05 3.865426666666666e-05
stage Recovery@-1 3.865426666666666e-05 9.5463397979797965e-05
stage AuxScatter@-1 9.5463397979797965e-05 0.00011280402020202018
stage Stage3@-1 0.00011280402020202018 0.00013142846464646462
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan} 1536
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 4
metric kernel_launches_total{name=intermediate_scan} 1
metric kernel_launches_total{name=scan_add} 4
metric kernel_seconds{name=chunk_reduce} 2.9853333333333331e-05
metric kernel_seconds{name=intermediate_scan} 5.7111111111111108e-06
metric kernel_seconds{name=scan_add} 3.7248888888888886e-05
metric transfer_bytes{kind=p2p} 960
metric transfer_bytes{kind=self} 576
metric transfers_total{kind=p2p} 5
metric transfers_total{kind=self} 3
resumed Stage2
)");
}
TEST(PipelinePins, Mps4OverlapResumeAfterDeviceDown) {
  check_pin_resume(kOverlap, 0, "Stage2+Comm", 2, R"(
seconds 0.00010699682337662338
row Stage1 7.4633333333333327e-06
row Recovery 7.5255474170274168e-05
row Stage2+Comm 1.3792771428571433e-05
row Stage3 1.0485244444444455e-05
stage Stage1@-1 0 7.4633333333333327e-06
stage Stage2+Comm@-1 7.4633333333333327e-06 7.4633333333333327e-06
stage Recovery@-1 7.4633333333333327e-06 8.2718807503607495e-05
stage Stage2+Comm@-1 8.2718807503607495e-05 9.6511578932178928e-05
stage Stage3@-1 9.6511578932178928e-05 0.00010699682337662338
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan} 1704
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 4
metric kernel_launches_total{name=intermediate_scan} 4
metric kernel_launches_total{name=scan_add} 4
metric kernel_seconds{name=chunk_reduce} 2.9853333333333331e-05
metric kernel_seconds{name=intermediate_scan} 2.2601579670329667e-05
metric kernel_seconds{name=scan_add} 3.7248888888888886e-05
metric transfer_bytes{kind=p2p} 960
metric transfer_bytes{kind=self} 576
metric transfers_total{kind=p2p} 5
metric transfers_total{kind=self} 3
resumed Stage2
)");
}
// The planner picks one wave at this shape; three pinned waves exercise
// the multi-wave cells, and a master death the carry re-acquisition.
TEST(PipelinePins, Mps4ThreeWavesI32Plus) {
  check_pin_case({"mps4 overlap waves=3 i32/plus", PinProposal::kMps4,
                  kOverlap, false, R"(
seconds 0.00011771208333333332
row Stage1 2.2389999999999997e-05
row Stage2+Comm 7.5431816666666641e-05
row Stage3 1.9890266666666682e-05
stage Stage1@-1 0 2.2389999999999997e-05
stage Stage2+Comm@-1 2.2389999999999997e-05 9.7821816666666635e-05
stage Stage3@-1 9.7821816666666635e-05 0.00011771208333333332
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan} 1704
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 12
metric kernel_launches_total{name=intermediate_scan} 12
metric kernel_launches_total{name=scan_add} 12
metric kernel_seconds{name=chunk_reduce} 8.9559999999999976e-05
metric kernel_seconds{name=intermediate_scan} 6.7385416666666643e-05
metric kernel_seconds{name=scan_add} 0.00011174666666666668
metric transfer_bytes{kind=p2p} 1152
metric transfer_bytes{kind=self} 384
metric transfers_total{kind=p2p} 18
metric transfers_total{kind=self} 6
)", 3});
}
TEST(PipelinePins, Mps8ThreeWavesF64Max) {
  check_pin_case({"mps8 overlap waves=3 f64/max", PinProposal::kMps8,
                  kOverlap, true, R"(
seconds 0.00021619632828282829
row Stage1 2.7936666666666666e-05
row Stage2+Comm 0.00017524966161616161
row Stage3 1.3010000000000013e-05
stage Stage1@-1 0 2.7936666666666666e-05
stage Stage2+Comm@-1 2.7936666666666666e-05 0.00020318632828282828
stage Stage3@-1 0.00020318632828282828 0.00021619632828282829
metric kernel_bytes{name=chunk_reduce} 1574400
metric kernel_bytes{name=intermediate_scan} 3792
metric kernel_bytes{name=scan_add} 3147264
metric kernel_launches_total{name=chunk_reduce} 24
metric kernel_launches_total{name=intermediate_scan} 24
metric kernel_launches_total{name=scan_add} 24
metric kernel_seconds{name=chunk_reduce} 0.00022349333333333325
metric kernel_seconds{name=intermediate_scan} 0.00013482638888888886
metric kernel_seconds{name=scan_add} 0.00031224000000000003
metric transfer_bytes{kind=host-staged} 1536
metric transfer_bytes{kind=p2p} 1152
metric transfer_bytes{kind=self} 384
metric transfers_total{kind=host-staged} 24
metric transfers_total{kind=p2p} 18
metric transfers_total{kind=self} 6
)", 3});
}
TEST(PipelinePins, MultinodeThreeWavesI32Plus) {
  check_pin_case({"mn2x4 overlap waves=3 i32/plus",
                  PinProposal::kMultinode2x4, kOverlap, false, R"(
seconds 0.00047955389894179911
row Stage1 2.238999999999998e-05
row Stage2+Comm 0.00026785167671957691
row Stage3 9.3122222222222131e-06
row MPI_Barrier 0.00018000000000000001
stage EntryBarrier@-1 0 8.9999999999999992e-05
stage Stage1@-1 8.9999999999999992e-05 0.00011238999999999997
stage Stage2+Comm@-1 0.00011238999999999997 0.00038024167671957688
stage Stage3@-1 0.00038024167671957688 0.00038955389894179909
stage ExitBarrier@-1 0.00038955389894179909 0.00047955389894179911
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan_ranked} 1896
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 24
metric kernel_launches_total{name=intermediate_scan_ranked} 24
metric kernel_launches_total{name=scan_add} 24
metric kernel_seconds{name=chunk_reduce} 0.0001791199999999999
metric kernel_seconds{name=intermediate_scan_ranked} 0.00013530393518518515
metric kernel_seconds{name=scan_add} 0.00022349333333333325
metric mpi_ops_total{op=MPI_Barrier} 2
metric mpi_ops_total{op=MPI_Isend} 48
metric transfer_bytes{kind=mpi} 1536
)", 3});
}
TEST(PipelinePins, Mps4ThreeWavesResumeAfterMasterDown) {
  check_pin_resume(kOverlap, 3, "Stage2+Comm", 0, R"(
seconds 0.00026309260353535356
row Stage1 4.4779999999999974e-05
row Recovery 9.505385353535352e-05
row Stage2+Comm 7.543181666666679e-05
row Stage3 4.782693333333328e-05
stage Stage1@-1 0 2.2389999999999997e-05
stage Stage2+Comm@-1 2.2389999999999997e-05 2.2389999999999997e-05
stage Recovery@-1 2.2389999999999997e-05 0.00011744385353535351
stage Stage1@-1 0.00011744385353535351 0.00013983385353535349
stage Stage2+Comm@-1 0.00013983385353535349 0.00021526567020202028
stage Stage3@-1 0.00021526567020202028 0.00026309260353535356
metric kernel_bytes{name=chunk_reduce} 984000
metric kernel_bytes{name=intermediate_scan} 2696
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 15
metric kernel_launches_total{name=intermediate_scan} 19
metric kernel_launches_total{name=scan_add} 12
metric kernel_seconds{name=chunk_reduce} 0.00011194999999999996
metric kernel_seconds{name=intermediate_scan} 0.00010669236111111107
metric kernel_seconds{name=scan_add} 0.00011174666666666668
metric transfer_bytes{kind=p2p} 1472
metric transfer_bytes{kind=self} 960
metric transfers_total{kind=p2p} 23
metric transfers_total{kind=self} 15
resumed Stage1
)");
}
TEST(PipelinePins, Mps4SyncStraggler) {
  check_pin_faults("mps4 sync straggler dev2", PinProposal::kMps4, kSync,
                   "straggler:dev=2,factor=4", R"(
seconds 0.00015526755555555553
row Stage1 2.9853333333333331e-05
row AuxGather 4.0695999999999991e-05
row Stage2 5.7111111111111159e-06
row AuxScatter 4.9897422222222219e-05
row Stage3 2.9109688888888868e-05
stage Stage1@-1 0 2.9853333333333331e-05
stage AuxGather@-1 2.9853333333333331e-05 7.0549333333333326e-05
stage Stage2@0 7.0549333333333326e-05 7.6260444444444441e-05
stage AuxScatter@-1 7.6260444444444441e-05 0.00012615786666666666
stage Stage3@-1 0.00012615786666666666 0.00015526755555555553
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan} 1536
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 4
metric kernel_launches_total{name=intermediate_scan} 1
metric kernel_launches_total{name=scan_add} 4
metric kernel_seconds{name=chunk_reduce} 5.2243333333333328e-05
metric kernel_seconds{name=intermediate_scan} 5.7111111111111108e-06
metric kernel_seconds{name=scan_add} 6.5185555555555559e-05
metric transfer_bytes{kind=p2p} 1152
metric transfer_bytes{kind=self} 384
metric transfers_total{kind=p2p} 6
metric transfers_total{kind=self} 2
)");
}
TEST(PipelinePins, MultinodeSyncStraggler) {
  check_pin_faults("mn2x4 sync straggler rank5", PinProposal::kMultinode2x4,
                   kSync, "straggler:dev=9,factor=4", R"(
seconds 0.0018518887111111111
row Stage1 2.9853333333333334e-05
row MPI_Gather 0.00079914880000000002
row Stage2 6.4888888888888418e-06
row MPI_Scatter 0.00079914880000000002
row Stage3 3.7248888888888852e-05
row MPI_Barrier 0.00018000000000000001
stage EntryBarrier@-1 0 8.9999999999999992e-05
stage Stage1@-1 8.9999999999999992e-05 0.00011985333333333333
stage MPI_Gather@-1 0.00011985333333333333 0.00091900213333333334
stage Stage2@0 0.00091900213333333334 0.00092549102222222218
stage MPI_Scatter@-1 0.00092549102222222218 0.0017246398222222222
stage Stage3@-1 0.0017246398222222222 0.0017618887111111111
stage ExitBarrier@-1 0.0017618887111111111 0.0018518887111111111
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan_ranked} 1536
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 8
metric kernel_launches_total{name=intermediate_scan_ranked} 1
metric kernel_launches_total{name=scan_add} 8
metric kernel_seconds{name=chunk_reduce} 8.2096666666666649e-05
metric kernel_seconds{name=intermediate_scan_ranked} 6.4888888888888884e-06
metric kernel_seconds{name=scan_add} 0.00010243444444444445
metric mpi_ops_total{op=MPI_Barrier} 2
metric mpi_ops_total{op=MPI_Gather} 1
metric mpi_ops_total{op=MPI_Scatter} 1
metric transfer_bytes{kind=mpi} 1536
)");
}
TEST(PipelinePins, MultinodeOverlapStraggler) {
  check_pin_faults("mn2x4 overlap straggler rank5",
                   PinProposal::kMultinode2x4, kOverlap,
                   "straggler:dev=9,factor=4", R"(
seconds 0.00093296957341269836
row Stage1 2.9853333333333334e-05
row Stage2+Comm 0.00068590163690476183
row Stage3 3.7214603174603187e-05
row MPI_Barrier 0.00018000000000000001
stage EntryBarrier@-1 0 8.9999999999999992e-05
stage Stage1@-1 8.9999999999999992e-05 0.00011985333333333333
stage Stage2+Comm@-1 0.00011985333333333333 0.00080575497023809516
stage Stage3@-1 0.00080575497023809516 0.00084296957341269834
stage ExitBarrier@-1 0.00084296957341269834 0.00093296957341269836
metric kernel_bytes{name=chunk_reduce} 787200
metric kernel_bytes{name=intermediate_scan_ranked} 1896
metric kernel_bytes{name=scan_add} 1573632
metric kernel_launches_total{name=chunk_reduce} 8
metric kernel_launches_total{name=intermediate_scan_ranked} 8
metric kernel_launches_total{name=scan_add} 8
metric kernel_seconds{name=chunk_reduce} 8.2096666666666649e-05
metric kernel_seconds{name=intermediate_scan_ranked} 4.5831994047619042e-05
metric kernel_seconds{name=scan_add} 0.00010243444444444445
metric mpi_ops_total{op=MPI_Barrier} 2
metric mpi_ops_total{op=MPI_Isend} 16
metric transfer_bytes{kind=mpi} 1536
)");
}
