// Tests for the fault-injection framework and the resilience paths built
// on it: the fault-spec parser, the TransferEngine retry / reroute /
// checksum machinery, and the executors' degraded-mode re-planning --
// under every fault class a proposal must either produce a correct scan
// or raise a typed error, never a silently wrong result.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/executor.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/topo/transfer.hpp"
#include "mgs/topo/topology.hpp"
#include "mgs/util/random.hpp"
#include "pin_dump.hpp"

namespace mc = mgs::core;
namespace ms = mgs::sim;
namespace mt = mgs::topo;
using mgs::baselines::reference_batch_scan;

namespace {

constexpr std::int64_t kN = 1 << 12;
constexpr std::int64_t kG = 4;

using Factory =
    std::function<std::unique_ptr<mc::ScanExecutor>(mc::ScanContext&)>;

struct Proposal {
  const char* name;
  Factory make;
};

std::vector<Proposal> multi_gpu_proposals() {
  return {
      {"Scan-MPS", [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); }},
      {"Scan-MPS-direct",
       [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4, true); }},
      {"Scan-MP-PC",
       [](mc::ScanContext& c) { return mc::make_mppc_executor(c, 2, 4); }},
      {"Scan-MPS-multinode",
       [](mc::ScanContext& c) { return mc::make_multinode_executor(c, 1, 8); }},
  };
}

struct Outcome {
  double seconds = 0.0;
  std::vector<std::int32_t> out;
  mc::RunResult result;
};

/// One fresh cluster + context + executor run, optionally under a fault
/// plan ("" = no injector attached at all).
Outcome run_proposal(const Factory& make, const std::string& spec,
                     std::span<const std::int32_t> data, std::int64_t n,
                     std::int64_t g) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  std::unique_ptr<ms::FaultInjector> fi;
  if (!spec.empty()) {
    fi = std::make_unique<ms::FaultInjector>(ms::parse_fault_plan(spec));
    cluster.set_fault_injector(fi.get());
  }
  mc::ScanContext ctx(cluster);
  auto ex = make(ctx);
  ex->prepare(n, g);
  Outcome o;
  o.out.resize(static_cast<std::size_t>(n * g));
  o.result = ex->run(data, o.out, mc::ScanKind::kInclusive);
  o.seconds = o.result.seconds;
  return o;
}

}  // namespace

// -------------------------------------------------------------- the parser

TEST(FaultPlanParser, ParsesEventsAndPolicy) {
  const auto plan = ms::parse_fault_plan(
      "transient:src=0,dst=1,op=3,count=2; corrupt:prob=0.25;"
      "link-down:src=2,dst=3; device-down:dev=5,at=0.5;"
      "straggler:dev=1,factor=4;"
      "policy:retries=7,backoff-us=10,timeout-s=2,seed=99");
  ASSERT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.events[0].kind, ms::FaultKind::kTransientTransfer);
  EXPECT_EQ(plan.events[0].src, 0);
  EXPECT_EQ(plan.events[0].dst, 1);
  EXPECT_EQ(plan.events[0].op, 3);
  EXPECT_EQ(plan.events[0].count, 2);
  EXPECT_EQ(plan.events[1].kind, ms::FaultKind::kCorruption);
  EXPECT_DOUBLE_EQ(plan.events[1].probability, 0.25);
  EXPECT_EQ(plan.events[2].kind, ms::FaultKind::kLinkDown);
  EXPECT_EQ(plan.events[3].kind, ms::FaultKind::kDeviceDown);
  EXPECT_EQ(plan.events[3].device, 5);
  EXPECT_DOUBLE_EQ(plan.events[3].at_seconds, 0.5);
  EXPECT_EQ(plan.events[4].kind, ms::FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(plan.events[4].factor, 4.0);
  EXPECT_EQ(plan.max_retries, 7);
  EXPECT_DOUBLE_EQ(plan.backoff_base_us, 10.0);
  EXPECT_DOUBLE_EQ(plan.timeout_seconds, 2.0);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(ms::parse_fault_plan("").empty());
}

TEST(FaultPlanParser, RejectsMalformedSpecs) {
  EXPECT_THROW(ms::parse_fault_plan("explode:dev=1"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("transient:op=0,bogus=1"),
               mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("transient:op=abc"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("transient:prob=2"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("transient:count=3"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("device-down:at=1"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("link-down:src=0"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("straggler:factor=2"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("transient"), mgs::util::Error);
  // retries drives a 2^attempt backoff: [0, 62] keeps the shift defined.
  EXPECT_EQ(ms::parse_fault_plan("policy:retries=62").max_retries, 62);
  EXPECT_EQ(ms::parse_fault_plan("policy:retries=0").max_retries, 0);
  for (const char* bad : {"policy:retries=63", "policy:retries=70",
                          "policy:retries=-1", "policy:retries=2.5"}) {
    EXPECT_THROW(ms::parse_fault_plan(bad), mgs::util::Error) << bad;
  }
  ms::FaultPlan too_many;
  too_many.max_retries = 63;
  EXPECT_THROW(ms::FaultInjector{too_many}, mgs::util::Error);
  // Integer keys take finite integers in int range, nothing else.
  for (const char* bad :
       {"device-down:dev=nan", "device-down:dev=inf", "device-down:dev=1.5",
        "device-down:dev=1e3", "link-down:src=0,dst=3000000000",
        "transient:op=-3000000000", "transient:op=0,count=nan",
        "straggler:dev=99999999999999999999"}) {
    EXPECT_THROW(ms::parse_fault_plan(bad), mgs::util::Error) << bad;
  }
  for (const char* bad : {"policy:seed=-1", "policy:seed=1.5",
                          "policy:seed=18446744073709551616",
                          "policy:seed=abc"}) {
    EXPECT_THROW(ms::parse_fault_plan(bad), mgs::util::Error) << bad;
  }
}

TEST(FaultPlanParser, ToSpecRoundTripsExactly) {
  const std::string spec =
      "transient:src=0,dst=1,op=3,count=2;corrupt:prob=0.25;"
      "link-down:src=2,dst=3;device-down:dev=5,at=0.5;"
      "straggler:dev=1,factor=4;"
      "policy:retries=7,backoff-us=10,timeout-s=2,seed=99";
  const auto plan = ms::parse_fault_plan(spec);
  const std::string printed = ms::to_spec(plan);
  const auto replan = ms::parse_fault_plan(printed);
  // The canonical form is a fixpoint: printing the re-parsed plan gives
  // the same string, and the plans agree field-for-field.
  EXPECT_EQ(ms::to_spec(replan), printed);
  ASSERT_EQ(replan.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(replan.events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(replan.events[i].src, plan.events[i].src) << i;
    EXPECT_EQ(replan.events[i].dst, plan.events[i].dst) << i;
    EXPECT_EQ(replan.events[i].device, plan.events[i].device) << i;
    EXPECT_EQ(replan.events[i].op, plan.events[i].op) << i;
    EXPECT_EQ(replan.events[i].count, plan.events[i].count) << i;
    EXPECT_EQ(replan.events[i].probability, plan.events[i].probability) << i;
    EXPECT_EQ(replan.events[i].at_seconds, plan.events[i].at_seconds) << i;
    EXPECT_EQ(replan.events[i].factor, plan.events[i].factor) << i;
  }
  EXPECT_EQ(replan.max_retries, plan.max_retries);
  EXPECT_EQ(replan.backoff_base_us, plan.backoff_base_us);
  EXPECT_EQ(replan.timeout_seconds, plan.timeout_seconds);
  EXPECT_EQ(replan.seed, plan.seed);

  // Doubles that have no short decimal form must still survive bit-exactly
  // (to_spec prints round-trippable precision).
  ms::FaultPlan p;
  ms::FaultEvent ev;
  ev.kind = ms::FaultKind::kStraggler;
  ev.device = 0;
  ev.factor = 0.1 + 0.2;  // 0.30000000000000004
  p.events.push_back(ev);
  const auto q = ms::parse_fault_plan(ms::to_spec(p));
  ASSERT_EQ(q.events.size(), 1u);
  EXPECT_EQ(q.events[0].factor, ev.factor);

  EXPECT_TRUE(ms::to_spec(ms::FaultPlan{}).empty());

  // The seed is an exact 64-bit integer: a policy clause without seed=
  // keeps the default, and seeds above 2^53 survive bit-for-bit.
  EXPECT_EQ(ms::parse_fault_plan("policy:retries=1").seed,
            ms::FaultPlan{}.seed);
  EXPECT_EQ(ms::to_spec(ms::parse_fault_plan("transient:prob=0.5;"
                                             "policy:retries=1")),
            "transient:prob=0.5;policy:retries=1");
  for (const std::uint64_t seed :
       {std::uint64_t{0}, (std::uint64_t{1} << 53) + 1,
        std::uint64_t{0xffffffffffffffffull},
        std::uint64_t{0x9e3779b97f4a7c15ull} + 1}) {
    ms::FaultPlan sp;
    sp.seed = seed;
    const std::string text = ms::to_spec(sp);
    EXPECT_EQ(text, "policy:seed=" + std::to_string(seed));
    EXPECT_EQ(ms::parse_fault_plan(text).seed, seed) << text;
  }
}

TEST(FaultReport, SummaryDistinguishesHealthyRecoveredDegraded) {
  ms::FaultReport r;
  EXPECT_EQ(r.summary(), "healthy");
  r.counters.retries = 2;
  r.counters.transient_failures = 2;
  EXPECT_NE(r.summary().find("recovered"), std::string::npos);
  r.degraded = true;
  r.degraded_mode = "Scan-MPS W=2";
  EXPECT_NE(r.summary().find("degraded"), std::string::npos);
  EXPECT_NE(r.summary().find("Scan-MPS W=2"), std::string::npos);
}

// ----------------------------------------------------- the transfer engine

namespace {

/// dev-to-dev copy of `n` ints under `spec`; returns (result, counters ok,
/// payload intact). Uses value i*3+1 so a stuck-at corruption is visible.
struct CopyProbe {
  mt::TransferResult result;
  ms::FaultCounters counters;
  bool payload_ok = false;
};

CopyProbe probe_copy(const std::string& spec, int src_dev, int dst_dev,
                     std::int64_t n = 1024) {
  auto c = mt::tsubame_kfc_cluster(1);
  std::unique_ptr<ms::FaultInjector> fi;
  if (!spec.empty()) {
    fi = std::make_unique<ms::FaultInjector>(ms::parse_fault_plan(spec));
    c.set_fault_injector(fi.get());
  }
  auto src = c.device(src_dev).alloc<int>(n);
  auto dst = c.device(dst_dev).alloc<int>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    src.host_span()[static_cast<std::size_t>(i)] = static_cast<int>(i * 3 + 1);
  }
  mt::TransferEngine eng(c);
  CopyProbe p;
  p.result = eng.copy(dst, 0, src, 0, n);
  p.counters = eng.fault_counters();
  p.payload_ok = true;
  for (std::int64_t i = 0; i < n; ++i) {
    if (dst.host_span()[static_cast<std::size_t>(i)] !=
        static_cast<int>(i * 3 + 1)) {
      p.payload_ok = false;
    }
  }
  return p;
}

}  // namespace

TEST(TransferFaults, TransientFailureRetriesAndConverges) {
  const auto healthy = probe_copy("", 0, 1);
  const auto faulted = probe_copy("transient:src=0,dst=1,op=0", 0, 1);
  EXPECT_TRUE(faulted.payload_ok);
  EXPECT_EQ(faulted.counters.transient_failures, 1u);
  EXPECT_EQ(faulted.counters.retries, 1u);
  EXPECT_GT(faulted.counters.retry_seconds, 0.0);
  // The retry and its backoff cost modeled time.
  EXPECT_GT(faulted.result.seconds, healthy.result.seconds);
  EXPECT_EQ(faulted.result.link, mt::LinkType::kP2P);
}

TEST(TransferFaults, DownP2PLinkReroutesThroughHostStaging) {
  const auto healthy = probe_copy("", 0, 1);
  const auto faulted = probe_copy("link-down:src=0,dst=1", 0, 1);
  EXPECT_TRUE(faulted.payload_ok);
  EXPECT_EQ(faulted.result.link, mt::LinkType::kHostStaged);
  EXPECT_EQ(faulted.counters.rerouted_transfers, 1u);
  EXPECT_EQ(faulted.counters.rerouted_bytes, 1024u * sizeof(int));
  EXPECT_GT(faulted.result.seconds, healthy.result.seconds);
}

TEST(TransferFaults, DownHostStagedLinkHasNoAlternateRoute) {
  // Devices 0 and 4 sit on different PCIe networks: host staging is
  // already the only path, so a down link is fatal -- and typed.
  try {
    probe_copy("link-down:src=0,dst=4", 0, 4);
    FAIL() << "expected TransferError";
  } catch (const mt::TransferError& e) {
    EXPECT_EQ(e.src_dev, 0);
    EXPECT_EQ(e.dst_dev, 4);
    EXPECT_NE(std::string(e.what()).find("no alternate route"),
              std::string::npos);
  }
}

TEST(TransferFaults, CorruptionIsDetectedAndRepaired) {
  const auto healthy = probe_copy("", 0, 1);
  const auto faulted = probe_copy("corrupt:op=0", 0, 1);
  EXPECT_TRUE(faulted.payload_ok);  // checksum caught it, payload re-copied
  EXPECT_EQ(faulted.counters.corruptions_detected, 1u);
  EXPECT_EQ(faulted.counters.retries, 1u);
  EXPECT_GT(faulted.result.seconds, healthy.result.seconds);
}

TEST(TransferFaults, TimeoutsExhaustTheRetryBudget) {
  try {
    probe_copy("policy:timeout-s=1e-15,retries=2", 0, 1);
    FAIL() << "expected TransferError";
  } catch (const mt::TransferError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
}

TEST(TransferFaults, StragglerSlowsItsLinksOnly) {
  const auto healthy = probe_copy("", 0, 1);
  const auto slow = probe_copy("straggler:dev=1,factor=4", 0, 1);
  const auto other = probe_copy("straggler:dev=1,factor=4", 2, 3);
  EXPECT_TRUE(slow.payload_ok);
  EXPECT_GT(slow.result.seconds, healthy.result.seconds);
  EXPECT_DOUBLE_EQ(other.result.seconds, healthy.result.seconds);
  EXPECT_FALSE(slow.counters.any());  // slow, but nothing failed
}

TEST(TransferFaults, SelfCopiesDrawNoLinkFaultCoins) {
  // A device-local copy crosses no link: certain transient failure with no
  // retry budget leaves it untouched, while a P2P copy exhausts the budget.
  const char* spec = "transient:prob=1;policy:retries=0";
  const auto self = probe_copy(spec, 0, 0);
  EXPECT_TRUE(self.payload_ok);
  EXPECT_EQ(self.result.link, mt::LinkType::kSelf);
  EXPECT_FALSE(self.counters.any());
  EXPECT_THROW(probe_copy(spec, 0, 1), mt::TransferError);
}

TEST(TransferFaults, MidRunDeviceDownRaisesTypedError) {
  auto c = mt::tsubame_kfc_cluster(1);
  auto fi = ms::FaultInjector(ms::parse_fault_plan("device-down:dev=1,at=1"));
  c.set_fault_injector(&fi);
  auto src = c.device(0).alloc<int>(16);
  auto dst = c.device(1).alloc<int>(16);
  mt::TransferEngine eng(c);
  eng.copy(dst, 0, src, 0, 16);  // before t=1s: fine
  c.device(0).clock().advance(2.0);
  EXPECT_THROW(eng.copy(dst, 0, src, 0, 16), mt::TransferError);
}

// ------------------------------------------------- executors under faults

TEST(ExecutorFaults, DisabledFaultsAreBitIdentical) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 11);
  for (const auto& p : multi_gpu_proposals()) {
    const auto plain = run_proposal(p.make, "", data, kN, kG);
    // Empty plan, injector attached: the zero-overhead guarantee.
    const auto armed = run_proposal(p.make, "policy:retries=4", data, kN, kG);
    EXPECT_DOUBLE_EQ(plain.seconds, armed.seconds) << p.name;
    EXPECT_EQ(plain.out, armed.out) << p.name;
    EXPECT_FALSE(armed.result.faults.any()) << p.name;
    EXPECT_FALSE(armed.result.faults.degraded) << p.name;
  }
}

TEST(ExecutorFaults, TransientFaultsRetryAndConvergeEveryProposal) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 12);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  for (const auto& p : multi_gpu_proposals()) {
    const auto healthy = run_proposal(p.make, "", data, kN, kG);
    const auto faulted =
        run_proposal(p.make, "transient:op=0,count=2", data, kN, kG);
    EXPECT_EQ(faulted.out, expect) << p.name;
    EXPECT_GT(faulted.result.faults.counters.transient_failures, 0u) << p.name;
    EXPECT_GT(faulted.result.faults.counters.retries, 0u) << p.name;
    EXPECT_GT(faulted.seconds, healthy.seconds) << p.name;
    EXPECT_FALSE(faulted.result.faults.degraded) << p.name;
  }
}

TEST(ExecutorFaults, LinkDownReroutesAndStaysCorrect) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 13);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  Factory mps = [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); };
  const auto healthy = run_proposal(mps, "", data, kN, kG);
  const auto faulted =
      run_proposal(mps, "link-down:src=0,dst=1", data, kN, kG);
  EXPECT_EQ(faulted.out, expect);
  EXPECT_GT(faulted.result.faults.counters.rerouted_transfers, 0u);
  EXPECT_GT(faulted.result.faults.counters.rerouted_bytes, 0u);
  EXPECT_GT(faulted.seconds, healthy.seconds);
}

TEST(ExecutorFaults, CorruptionIsRepairedEndToEnd) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 14);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  Factory mps = [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); };
  const auto faulted =
      run_proposal(mps, "corrupt:op=0,count=1000", data, kN, kG);
  EXPECT_EQ(faulted.out, expect);
  EXPECT_GT(faulted.result.faults.counters.corruptions_detected, 0u);
}

TEST(ExecutorFaults, DeviceDownDegradesEveryProposalToACorrectScan) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 15);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  for (const auto& p : multi_gpu_proposals()) {
    const auto degraded =
        run_proposal(p.make, "device-down:dev=2", data, kN, kG);
    EXPECT_EQ(degraded.out, expect) << p.name;
    EXPECT_TRUE(degraded.result.faults.degraded) << p.name;
    EXPECT_FALSE(degraded.result.faults.degraded_mode.empty()) << p.name;
    ASSERT_FALSE(degraded.result.faults.excluded_devices.empty()) << p.name;
    EXPECT_EQ(degraded.result.faults.excluded_devices.front(), 2) << p.name;
    EXPECT_FALSE(degraded.result.faults.replanned.empty()) << p.name;
  }
}

TEST(ExecutorFaults, AllButOneDeviceDownCollapsesToScanSp) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 16);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  // Kill devices 1..7: every proposal must fall back to Scan-SP on dev 0.
  const std::string spec =
      "device-down:dev=1;device-down:dev=2;device-down:dev=3;"
      "device-down:dev=4;device-down:dev=5;device-down:dev=6;"
      "device-down:dev=7";
  for (const auto& p : multi_gpu_proposals()) {
    const auto degraded = run_proposal(p.make, spec, data, kN, kG);
    EXPECT_EQ(degraded.out, expect) << p.name;
    EXPECT_TRUE(degraded.result.faults.degraded) << p.name;
    EXPECT_NE(degraded.result.faults.degraded_mode.find("Scan-SP"),
              std::string::npos)
        << p.name << ": " << degraded.result.faults.degraded_mode;
  }
}

TEST(ExecutorFaults, SpExecutorRelocatesOffADownDevice) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 17);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  Factory sp = [](mc::ScanContext& c) { return mc::make_sp_executor(c, 0); };
  const auto degraded = run_proposal(sp, "device-down:dev=0", data, kN, kG);
  EXPECT_EQ(degraded.out, expect);
  EXPECT_TRUE(degraded.result.faults.degraded);
  EXPECT_EQ(degraded.result.faults.excluded_devices,
            std::vector<int>{0});
}

TEST(ExecutorFaults, EpochMovesReplanAndInvalidateCachedPlans) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  ms::FaultInjector fi{ms::FaultPlan{}};
  cluster.set_fault_injector(&fi);
  mc::ScanContext ctx(cluster);
  auto ex = mc::make_mps_executor(ctx, 8);
  ex->prepare(kN, kG);

  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 18);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  std::vector<std::int32_t> out(data.size());

  const auto healthy = ex->run(data, out, mc::ScanKind::kInclusive);
  EXPECT_EQ(out, expect);
  EXPECT_FALSE(healthy.faults.degraded);
  const std::size_t cached = ctx.plan_cache_size();

  // A device dies after prepare(): the next run must notice via the
  // liveness epoch, re-place on the survivors and retire the 8-GPU plan.
  fi.mark_device_down(7);
  std::fill(out.begin(), out.end(), 0);
  const auto degraded = ex->run(data, out, mc::ScanKind::kInclusive);
  EXPECT_EQ(out, expect);
  EXPECT_TRUE(degraded.faults.degraded);
  EXPECT_EQ(degraded.faults.excluded_devices, std::vector<int>{7});
  EXPECT_GE(degraded.faults.invalidated_plans, 1u);
  EXPECT_LT(ctx.plan_cache_size(), cached + 1);
  EXPECT_NE(ex->describe().find("degraded"), std::string::npos);

  // The device recovers: the epoch moves again and the nominal placement
  // comes back.
  fi.mark_device_up(7);
  std::fill(out.begin(), out.end(), 0);
  const auto recovered = ex->run(data, out, mc::ScanKind::kInclusive);
  EXPECT_EQ(out, expect);
  EXPECT_FALSE(recovered.faults.degraded);
}

// ------------------------------------------------ mid-run resume / restart

namespace {

/// run_proposal plus the spans a TraceSession recorded, for asserting
/// which stages actually (re-)ran. Takes a FaultPlan directly so tests
/// can inject at exact simulated instants read from a healthy trace.
struct Traced {
  Outcome o;
  std::vector<mgs::obs::SpanRecord> spans;
};

Traced run_traced(const Factory& make, const ms::FaultPlan* plan,
                  std::span<const std::int32_t> data, std::int64_t n,
                  std::int64_t g) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  std::unique_ptr<ms::FaultInjector> fi;
  if (plan != nullptr) {
    fi = std::make_unique<ms::FaultInjector>(*plan);
    cluster.set_fault_injector(fi.get());
  }
  mgs::obs::TraceSession ts;
  mc::ScanContext ctx(cluster);
  auto ex = make(ctx);
  ex->prepare(n, g);
  Traced t;
  t.o.out.resize(static_cast<std::size_t>(n * g));
  t.o.result = ex->run(data, t.o.out, mc::ScanKind::kInclusive);
  t.o.seconds = t.o.result.seconds;
  t.spans = ts.spans();
  return t;
}

std::size_t count_stage(const std::vector<mgs::obs::SpanRecord>& spans,
                        const std::string& name) {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(), [&](const auto& s) {
        return s.kind == mgs::obs::SpanKind::kStage && s.name == name;
      }));
}

/// Midpoint of the first kStage span called `name`; fails the test (and
/// returns 0) when the trace has no such stage.
double stage_midpoint(const std::vector<mgs::obs::SpanRecord>& spans,
                      const std::string& name) {
  for (const auto& s : spans) {
    if (s.kind == mgs::obs::SpanKind::kStage && s.name == name) {
      return (s.start_seconds + s.end_seconds) / 2.0;
    }
  }
  ADD_FAILURE() << "no '" << name << "' stage span in the healthy trace";
  return 0.0;
}

}  // namespace

// The flagship resume scenario: a non-master device dies in the middle of
// Stage 2 on the synchronous Scan-MPS path. Completed Stage-1 and gather
// work must survive -- the run resumes from the Stage2 boundary
// (re-scattering only the dead device's portions) without re-running
// Stage 1, and the output stays bit-identical to the healthy run.
TEST(ExecutorFaults, MidStage2DeviceDownResumesWithoutRerunningStage1) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 19);
  Factory mps_sync = [](mc::ScanContext& c) {
    return mc::make_mps_executor(
        c, 4, false, mc::PipelineChoice{mc::PipelineMode::kSync, 0});
  };
  const auto healthy = run_traced(mps_sync, nullptr, data, kN, kG);
  const double at = stage_midpoint(healthy.spans, "Stage2");
  ASSERT_GT(at, 0.0);

  ms::FaultPlan plan;
  ms::FaultEvent ev;
  ev.kind = ms::FaultKind::kDeviceDown;
  ev.device = 1;  // non-master: the master keeps the gathered aux array
  ev.at_seconds = at;
  plan.events.push_back(ev);
  const auto faulted = run_traced(mps_sync, &plan, data, kN, kG);

  EXPECT_EQ(faulted.o.out, healthy.o.out);  // bit-identical, not just close
  const auto& f = faulted.o.result.faults;
  ASSERT_EQ(f.resumed_stages.size(), 1u);
  EXPECT_EQ(f.resumed_stages.front(), "Stage2");
  EXPECT_TRUE(f.degraded);
  EXPECT_EQ(f.excluded_devices, std::vector<int>{1});
  // The span trace proves Stage 1 never re-ran: one Stage1 span, one
  // Recovery span covering the re-plan window.
  EXPECT_EQ(count_stage(faulted.spans, "Stage1"), 1u);
  EXPECT_EQ(count_stage(faulted.spans, "Recovery"), 1u);
  EXPECT_EQ(count_stage(healthy.spans, "Recovery"), 0u);
  // Recovery costs time: the degraded run is slower, never faster.
  EXPECT_GT(faulted.o.seconds, healthy.o.seconds);
}

// Same mid-run loss on the event-driven overlap pipeline: the checkpoint
// must resume (from whichever boundary held) with bit-identical output.
TEST(ExecutorFaults, OverlapMidRunDeviceDownResumesBitIdentical) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 20);
  Factory mps_over = [](mc::ScanContext& c) {
    return mc::make_mps_executor(
        c, 4, false, mc::PipelineChoice{mc::PipelineMode::kOverlap, 0});
  };
  const auto healthy = run_traced(mps_over, nullptr, data, kN, kG);
  const double at = stage_midpoint(healthy.spans, "Stage2+Comm");
  ASSERT_GT(at, 0.0);

  ms::FaultPlan plan;
  ms::FaultEvent ev;
  ev.kind = ms::FaultKind::kDeviceDown;
  ev.device = 2;
  ev.at_seconds = at;
  plan.events.push_back(ev);
  const auto faulted = run_traced(mps_over, &plan, data, kN, kG);

  EXPECT_EQ(faulted.o.out, healthy.o.out);
  const auto& f = faulted.o.result.faults;
  EXPECT_FALSE(f.resumed_stages.empty());
  EXPECT_TRUE(f.degraded);
  EXPECT_EQ(count_stage(faulted.spans, "Recovery"), f.resumed_stages.size());
}

// Death of the MASTER mid-run: the gathered aux array dies with it, so
// the resume must regress the gather/scan flags, re-place the master role
// and still produce bit-identical output.
TEST(ExecutorFaults, MasterDeathMidRunResumesOnNewMaster) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 21);
  Factory mps_sync = [](mc::ScanContext& c) {
    return mc::make_mps_executor(
        c, 4, false, mc::PipelineChoice{mc::PipelineMode::kSync, 0});
  };
  const auto healthy = run_traced(mps_sync, nullptr, data, kN, kG);
  const double at = stage_midpoint(healthy.spans, "Stage2");
  ASSERT_GT(at, 0.0);

  ms::FaultPlan plan;
  ms::FaultEvent ev;
  ev.kind = ms::FaultKind::kDeviceDown;
  ev.device = 0;  // the master
  ev.at_seconds = at;
  plan.events.push_back(ev);
  const auto faulted = run_traced(mps_sync, &plan, data, kN, kG);

  EXPECT_EQ(faulted.o.out, healthy.o.out);
  EXPECT_TRUE(faulted.o.result.faults.degraded);
  EXPECT_EQ(faulted.o.result.faults.excluded_devices, std::vector<int>{0});
  EXPECT_FALSE(faulted.o.result.faults.resumed_stages.empty());
}

// A device death the placement could not see (at > 0) must still end in a
// correct scan for every multi-GPU proposal: Scan-MPS resumes from its
// checkpoint, the direct / MP-PC / multinode paths restart on survivors.
TEST(ExecutorFaults, MidRunDeviceDownRecoversEveryProposal) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 22);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  for (const auto& p : multi_gpu_proposals()) {
    const auto r =
        run_proposal(p.make, "device-down:dev=1,at=1e-9", data, kN, kG);
    EXPECT_EQ(r.out, expect) << p.name;
    EXPECT_TRUE(r.result.faults.degraded) << p.name;
    ASSERT_FALSE(r.result.faults.excluded_devices.empty()) << p.name;
    EXPECT_EQ(r.result.faults.excluded_devices.front(), 1) << p.name;
    EXPECT_FALSE(r.result.faults.replanned.empty()) << p.name;
  }
}

// --------------------------------------------------- compute stragglers

// kStraggler now reaches compute kernels through simt::launch, not just
// transfers: the whole scan slows (monotonically in the factor), on both
// pipeline paths, without deadlock and without losing bit-identity.
TEST(ExecutorFaults, ComputeStragglerSlowsTheScanButStaysCorrect) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 23);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  for (const auto mode :
       {mc::PipelineMode::kSync, mc::PipelineMode::kOverlap}) {
    Factory mps = [mode](mc::ScanContext& c) {
      return mc::make_mps_executor(c, 4, false,
                                   mc::PipelineChoice{mode, 0});
    };
    const auto healthy = run_proposal(mps, "", data, kN, kG);
    const auto slow2 =
        run_proposal(mps, "straggler:dev=1,factor=2", data, kN, kG);
    const auto slow8 =
        run_proposal(mps, "straggler:dev=1,factor=8", data, kN, kG);
    EXPECT_EQ(slow2.out, expect);
    EXPECT_EQ(slow8.out, expect);
    EXPECT_GT(slow2.seconds, healthy.seconds);
    EXPECT_GT(slow8.seconds, slow2.seconds);
    EXPECT_FALSE(slow8.result.faults.degraded);
  }
}

// A straggling MASTER stretches Stage 2 itself; the schedule must absorb
// it on every proposal (the multinode sync path once mis-attributed this
// window and tripped the breakdown invariant).
TEST(ExecutorFaults, ComputeStragglerOnTheMasterEveryProposal) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 24);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  for (const auto& p : multi_gpu_proposals()) {
    const auto slow =
        run_proposal(p.make, "straggler:dev=0,factor=4", data, kN, kG);
    EXPECT_EQ(slow.out, expect) << p.name;
    // Telescoping must survive the skewed clocks.
    EXPECT_NEAR(slow.result.breakdown.total(), slow.seconds,
                1e-12 + 1e-9 * slow.seconds)
        << p.name;
  }
}

// ------------------------------------------------------- pinned recoveries
//
// Exact outcome of every multi-GPU executor's mid-run recovery: a
// device-down of a non-master and of the master at the midpoint of one
// stage of the healthy trace, plus a prepare-time loss that collapses a
// placement to Scan-SP. Each case pins the makespan (%.17g, so a string
// match is a bit-for-bit match), the whole FaultReport, the plan span's
// placement description and every kFault span (replan, restart, resume)
// with its notes. Restructuring how executors recover must leave these
// untouched; a change meant to move them re-pins deliberately.

namespace {

constexpr std::int64_t kRecN = 1 << 14;
constexpr std::int64_t kRecG = 4;

std::vector<std::string> recovery_lines(
    const mc::RunResult& r, const std::vector<mgs::obs::SpanRecord>& spans) {
  const ms::FaultReport& f = r.faults;
  const ms::FaultCounters& c = f.counters;
  std::vector<std::string> lines;
  lines.push_back("seconds " + pin_num(r.seconds));
  lines.push_back("degraded " + std::to_string(f.degraded ? 1 : 0));
  lines.push_back("mode " + f.degraded_mode);
  std::string excluded = "excluded";
  for (int d : f.excluded_devices) excluded += " " + std::to_string(d);
  lines.push_back(excluded);
  for (const auto& s : f.replanned) lines.push_back("replanned " + s);
  for (const auto& s : f.resumed_stages) lines.push_back("resumed " + s);
  lines.push_back("invalidated " + std::to_string(f.invalidated_plans));
  lines.push_back(
      "counters transient=" + std::to_string(c.transient_failures) +
      " retries=" + std::to_string(c.retries) +
      " timeouts=" + std::to_string(c.timeouts) +
      " corrupt=" + std::to_string(c.corruptions_detected) +
      " rerouted=" + std::to_string(c.rerouted_transfers) + "/" +
      std::to_string(c.rerouted_bytes) + " retry_s=" +
      pin_num(c.retry_seconds));
  for (const auto& s : spans) {
    if (s.kind == mgs::obs::SpanKind::kPlan) {
      for (const auto& [k, v] : s.notes) lines.push_back("plan " + k + "=" + v);
    }
    if (s.kind != mgs::obs::SpanKind::kFault) continue;
    std::string line = "fault " + s.name + "@" + std::to_string(s.device) +
                       " " + pin_num(s.start_seconds);
    for (const auto& [k, v] : s.notes) line += " " + k + "=" + v;
    lines.push_back(line);
  }
  return lines;
}

struct RecoveryRun {
  std::vector<std::string> lines;
  std::vector<mgs::obs::SpanRecord> spans;
  bool output_ok = false;
};

RecoveryRun run_recovery(const Factory& make, int nodes,
                         const ms::FaultPlan* plan) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kRecN * kRecG), 71);
  auto cluster = mt::tsubame_kfc_cluster(nodes);
  std::unique_ptr<ms::FaultInjector> fi;
  if (plan != nullptr) {
    fi = std::make_unique<ms::FaultInjector>(*plan);
    cluster.set_fault_injector(fi.get());
  }
  mgs::obs::TraceSession ts;
  mc::ScanContext ctx(cluster);
  auto ex = make(ctx);
  ex->prepare(kRecN, kRecG);
  std::vector<std::int32_t> out(data.size());
  const mc::RunResult r = ex->run(data, out, mc::ScanKind::kInclusive);
  RecoveryRun rr;
  rr.spans = ts.spans();
  rr.lines = recovery_lines(r, rr.spans);
  rr.output_ok = out == reference_batch_scan<std::int32_t>(
                            data, kRecN, kRecG, mc::ScanKind::kInclusive);
  return rr;
}

/// Kill `device` at the midpoint of the healthy run's first `stage` span
/// and pin the recovered run.
void check_recovery(const Factory& make, int nodes, const char* stage,
                    int device, const char* expected) {
  SCOPED_TRACE(std::string(stage) + " dev " + std::to_string(device));
  const RecoveryRun healthy = run_recovery(make, nodes, nullptr);
  ASSERT_TRUE(healthy.output_ok);
  const double at = stage_midpoint(healthy.spans, stage);
  ASSERT_GT(at, 0.0);
  ms::FaultPlan plan;
  ms::FaultEvent ev;
  ev.kind = ms::FaultKind::kDeviceDown;
  ev.device = device;
  ev.at_seconds = at;
  plan.events.push_back(ev);
  const RecoveryRun r = run_recovery(make, nodes, &plan);
  EXPECT_TRUE(r.output_ok);
  expect_pinned(r.lines, expected);
}

Factory mps4(mc::PipelineMode mode) {
  return [mode](mc::ScanContext& c) {
    return mc::make_mps_executor(c, 4, false, mc::PipelineChoice{mode, 0});
  };
}

const Factory kMpsDirect4 = [](mc::ScanContext& c) {
  return mc::make_mps_executor(c, 4, true);
};
const Factory kMppcY2V4 = [](mc::ScanContext& c) {
  return mc::make_mppc_executor(c, 2, 4);
};
const Factory kMultinode2x4 = [](mc::ScanContext& c) {
  return mc::make_multinode_executor(c, 2, 4);
};

}  // namespace

TEST(RecoveryPins, MpsSyncNonMaster) {
  check_recovery(mps4(mc::PipelineMode::kSync), 1, "Stage2", 1, R"(
seconds 0.00010719467340067342
degraded 1
mode Scan-MPS: lost device 1 mid-run, resumed from Stage2
excluded 1
replanned Scan-MPS: lost device 1 mid-run, resumed from Stage2
resumed Stage2
invalidated 0
counters transient=0 retries=0 timeouts=0 corrupt=0 rerouted=0/0 retry_s=0
plan config=Scan-MPS over 4 GPUs of node 0 (master 0) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous
fault resume@1 3.944105185185185e-05 executor=Scan-MPS dead=1 boundary=Stage2 portions=1 master=kept
)");
}
TEST(RecoveryPins, MpsSyncMaster) {
  check_recovery(mps4(mc::PipelineMode::kSync), 1, "Stage2", 0, R"(
seconds 0.00013854932525252523
degraded 1
mode Scan-MPS: lost device 0 mid-run, resumed from Stage1
excluded 0
replanned Scan-MPS: lost device 0 mid-run, resumed from Stage1
resumed Stage1
invalidated 0
counters transient=0 retries=0 timeouts=0 corrupt=0 rerouted=0/0 retry_s=0
plan config=Scan-MPS over 4 GPUs of node 0 (master 0) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous
fault resume@0 3.8400311111111108e-05 executor=Scan-MPS dead=0 boundary=Stage1 portions=1 master=replaced
)");
}
TEST(RecoveryPins, MpsOverlapNonMaster) {
  check_recovery(mps4(mc::PipelineMode::kOverlap), 1, "Stage2+Comm", 2, R"(
seconds 8.3041665993265995e-05
degraded 1
mode Scan-MPS: lost device 2 mid-run, resumed from Stage2
excluded 2
replanned Scan-MPS: lost device 2 mid-run, resumed from Stage2
resumed Stage2
invalidated 0
counters transient=0 retries=0 timeouts=0 corrupt=0 rerouted=0/0 retry_s=0
plan config=Scan-MPS over 4 GPUs of node 0 (master 0) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1
fault resume@2 2.6864548148148144e-05 executor=Scan-MPS dead=2 boundary=Stage2 portions=1 master=kept
)");
}
TEST(RecoveryPins, MpsOverlapMaster) {
  check_recovery(mps4(mc::PipelineMode::kOverlap), 1, "Stage2+Comm", 0, R"(
seconds 0.00010844481414141414
degraded 1
mode Scan-MPS: lost device 0 mid-run, resumed from Stage1
excluded 0
replanned Scan-MPS: lost device 0 mid-run, resumed from Stage1
resumed Stage1
invalidated 0
counters transient=0 retries=0 timeouts=0 corrupt=0 rerouted=0/0 retry_s=0
plan config=Scan-MPS over 4 GPUs of node 0 (master 0) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1
fault resume@0 2.6864548148148144e-05 executor=Scan-MPS dead=0 boundary=Stage1 portions=1 master=replaced
)");
}
TEST(RecoveryPins, MpsDirectNonMaster) {
  check_recovery(kMpsDirect4, 1, "Stage2", 1, R"(
seconds 3.58280074074074e-05
degraded 1
mode Scan-MPS-direct W=2
excluded 1
replanned Scan-MPS-direct: W=4 -> 2
replanned Scan-MPS-direct: lost device 1 mid-run (restarted on survivors)
invalidated 0
counters transient=0 retries=0 timeouts=0 corrupt=0 rerouted=0/0 retry_s=0
plan config=Scan-MPS-direct over 4 GPUs of node 0 (master 0) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1
fault restart@1 1.8415844444444443e-05 executor=Scan-MPS-direct dead=1
plan config=Scan-MPS-direct over 2 GPUs of node 0 (master 0) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1 [degraded: Scan-MPS-direct W=2]
fault replan@-1 0 mode=Scan-MPS-direct W=2 step=Scan-MPS-direct: W=4 -> 2
)");
}
TEST(RecoveryPins, MpsDirectMaster) {
  check_recovery(kMpsDirect4, 1, "Stage2", 0, R"(
seconds 3.58280074074074e-05
degraded 1
mode Scan-MPS-direct W=2
excluded 0
replanned Scan-MPS-direct: W=4 -> 2
replanned Scan-MPS-direct: lost device 0 mid-run (restarted on survivors)
invalidated 0
counters transient=0 retries=0 timeouts=0 corrupt=0 rerouted=0/0 retry_s=0
plan config=Scan-MPS-direct over 4 GPUs of node 0 (master 0) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1
fault restart@0 1.7375103703703701e-05 executor=Scan-MPS-direct dead=0
plan config=Scan-MPS-direct over 2 GPUs of node 0 (master 1) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1 [degraded: Scan-MPS-direct W=2]
fault replan@-1 0 mode=Scan-MPS-direct W=2 step=Scan-MPS-direct: W=4 -> 2
)");
}
TEST(RecoveryPins, MppcNonMaster) {
  check_recovery(kMppcY2V4, 1, "Stage1", 1, R"(
seconds 3.8505762962962961e-05
degraded 1
mode Scan-MP-PC 2 groups x V=2
excluded 1
replanned Scan-MP-PC: V=4 -> 2, groups -> 2
replanned Scan-MP-PC: lost device 1 mid-run (restarted on survivors)
invalidated 0
counters transient=0 retries=0 timeouts=0 corrupt=0 rerouted=0/0 retry_s=0
plan config=Scan-MP-PC with Y=2 networks/node, V=4 GPUs/network, M=1 nodes [i32/plus] (2 groups); n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1
fault restart@1 7.4837037037037027e-06 executor=Scan-MP-PC dead=1
plan config=Scan-MP-PC with Y=2 networks/node, V=2 GPUs/network, M=1 nodes [i32/plus] (2 groups); n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1 [degraded: Scan-MP-PC 2 groups x V=2]
fault replan@-1 0 mode=Scan-MP-PC 2 groups x V=2 step=Scan-MP-PC: V=4 -> 2, groups -> 2
)");
}
TEST(RecoveryPins, MppcMaster) {
  check_recovery(kMppcY2V4, 1, "Stage1", 0, R"(
seconds 3.8505762962962961e-05
degraded 1
mode Scan-MP-PC 2 groups x V=2
excluded 0
replanned Scan-MP-PC: V=4 -> 2, groups -> 2
replanned Scan-MP-PC: lost device 0 mid-run (restarted on survivors)
invalidated 0
counters transient=0 retries=0 timeouts=0 corrupt=0 rerouted=0/0 retry_s=0
plan config=Scan-MP-PC with Y=2 networks/node, V=4 GPUs/network, M=1 nodes [i32/plus] (2 groups); n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1
fault restart@0 7.4633333333333327e-06 executor=Scan-MP-PC dead=0
plan config=Scan-MP-PC with Y=2 networks/node, V=2 GPUs/network, M=1 nodes [i32/plus] (2 groups); n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1 [degraded: Scan-MP-PC 2 groups x V=2]
fault replan@-1 0 mode=Scan-MP-PC 2 groups x V=2 step=Scan-MP-PC: V=4 -> 2, groups -> 2
)");
}
TEST(RecoveryPins, MultinodeNonMaster) {
  // Device 9 is rank 5, on the second node.
  check_recovery(kMultinode2x4, 2, "Stage1", 9, R"(
seconds 0.00022986687407407404
degraded 1
mode Scan-MPS-multinode on 4 ranks
excluded 9
replanned Scan-MPS-multinode: ranks 8 -> 4 (3 surviving ranks idled so ranks divide N)
replanned Scan-MPS-multinode: lost device 9 mid-run (restarted on survivors)
invalidated 0
counters transient=0 retries=0 timeouts=0 corrupt=0 rerouted=0/0 retry_s=0
plan config=Scan-MPS-multinode over 2 nodes x 4 GPUs (one MPI rank per GPU) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1
fault restart@9 9.7479017989417986e-05 executor=Scan-MPS-multinode rank=5 dead=9
plan config=Scan-MPS-multinode over 2 nodes x 4 GPUs (one MPI rank per GPU) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1 [degraded: Scan-MPS-multinode on 4 ranks]
fault replan@-1 0 mode=Scan-MPS-multinode on 4 ranks step=Scan-MPS-multinode: ranks 8 -> 4 (3 surviving ranks idled so ranks divide N)
)");
}
TEST(RecoveryPins, MultinodeMaster) {
  check_recovery(kMultinode2x4, 2, "Stage1", 0, R"(
seconds 0.00031250454603174598
degraded 1
mode Scan-MPS-multinode on 4 ranks
excluded 0
replanned Scan-MPS-multinode: ranks 8 -> 4 (3 surviving ranks idled so ranks divide N)
replanned Scan-MPS-multinode: lost device 0 mid-run (restarted on survivors)
invalidated 0
counters transient=0 retries=0 timeouts=0 corrupt=0 rerouted=0/0 retry_s=0
plan config=Scan-MPS-multinode over 2 nodes x 4 GPUs (one MPI rank per GPU) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1
fault restart@0 9.7463333333333319e-05 executor=Scan-MPS-multinode rank=0 dead=0
plan config=Scan-MPS-multinode over 2 nodes x 4 GPUs (one MPI rank per GPU) [i32/plus]; n=16384 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1 [degraded: Scan-MPS-multinode on 4 ranks]
fault replan@-1 0 mode=Scan-MPS-multinode on 4 ranks step=Scan-MPS-multinode: ranks 8 -> 4 (3 surviving ranks idled so ranks divide N)
)");
}
// Prepare-time loss: one of Scan-MPS's two GPUs is down before the run,
// so the placement collapses to Scan-SP on the survivor.
TEST(RecoveryPins, PrepareLossCollapsesToScanSp) {
  const Factory mps2 = [](mc::ScanContext& c) {
    return mc::make_mps_executor(c, 2);
  };
  ms::FaultPlan plan;
  ms::FaultEvent ev;
  ev.kind = ms::FaultKind::kDeviceDown;
  ev.device = 1;
  plan.events.push_back(ev);
  const RecoveryRun r = run_recovery(mps2, 1, &plan);
  EXPECT_TRUE(r.output_ok);
  expect_pinned(r.lines, R"(
seconds 2.141185185185185e-05
degraded 1
mode Scan-SP on device 0
excluded 1
replanned Scan-MPS: W=2 -> 1
invalidated 0
counters transient=0 retries=0 timeouts=0 corrupt=0 rerouted=0/0 retry_s=0
plan config=Scan-MPS over 1 GPUs of node 0 (master 0) [i32/plus]; n=16384 g=4; stage1/3: (s=3, p=2, l=8, K=1) [P=4, Lx=256, chunk=1024, regs=40]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous [degraded: Scan-SP on device 0]
fault replan@-1 0 mode=Scan-SP on device 0 step=Scan-MPS: W=2 -> 1
)");
}
