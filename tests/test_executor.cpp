// Tests for the unified ScanContext / ScanExecutor layer: plan-cache
// hit/miss behaviour, workspace reuse (allocation counts flat across
// repeated runs, modeled times identical), bit-exact output equivalence
// between every executor and the legacy free function it wraps, and the
// registry / planner bridge.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/easy.hpp"
#include "mgs/core/executor_registry.hpp"
#include "mgs/core/scan_mppc.hpp"
#include "mgs/core/scan_multinode.hpp"
#include "mgs/core/scan_sp.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace mt = mgs::topo;
namespace mm = mgs::msg;
using mgs::baselines::reference_batch_scan;

namespace {

constexpr std::int64_t kN = 1 << 12;
constexpr std::int64_t kG = 4;

std::vector<int> node_major_ids(const mt::Cluster& cluster, int m, int w) {
  std::vector<int> ids;
  const auto& cfg = cluster.config();
  for (int node = 0; node < m; ++node) {
    for (int i = 0; i < w; ++i) {
      ids.push_back(cluster.global_id(node, i / cfg.gpus_per_network,
                                      i % cfg.gpus_per_network));
    }
  }
  return ids;
}

}  // namespace

// ---------------------------------------------------------------- plan cache

TEST(ScanContext, PlanCacheHitsAndMisses) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);

  const auto& p1 = ctx.plan_for(kN, kG);
  EXPECT_EQ(ctx.plan_cache_size(), 1u);
  EXPECT_EQ(ctx.plan_cache_misses(), 1u);
  EXPECT_EQ(ctx.plan_cache_hits(), 0u);
  const std::size_t tuner_cache = ctx.tuner().cache_size();
  EXPECT_EQ(tuner_cache, 1u);

  // Identical key: cache hit, and the autotuner is not consulted again.
  const auto& p2 = ctx.plan_for(kN, kG);
  EXPECT_EQ(&p1, &p2);
  EXPECT_EQ(ctx.plan_cache_size(), 1u);
  EXPECT_EQ(ctx.plan_cache_hits(), 1u);
  EXPECT_EQ(ctx.tuner().cache_size(), tuner_cache);

  // Different shape: a new miss.
  ctx.plan_for(kN * 2, kG);
  EXPECT_EQ(ctx.plan_cache_size(), 2u);
  EXPECT_EQ(ctx.plan_cache_misses(), 2u);

  // Multi-GPU keys bypass the autotuner (premise-derived K).
  ctx.plan_for(kN, kG, mc::DType::kI32, mc::OpTag::kPlus,
               /*gpus_per_problem=*/4);
  EXPECT_EQ(ctx.plan_cache_size(), 3u);
  EXPECT_EQ(ctx.tuner().cache_size(), 2u);
}

TEST(ScanContext, SecondPrepareWithSameKeyIsAHit) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);

  auto ex1 = mc::make_sp_executor(ctx);
  ex1->prepare(kN, kG);
  const auto misses = ctx.plan_cache_misses();
  const auto tuner_cache = ctx.tuner().cache_size();

  // Same executor, same shape: idempotent, no new lookup at all.
  ex1->prepare(kN, kG);
  EXPECT_EQ(ctx.plan_cache_misses(), misses);

  // A fresh executor preparing the same shape hits the shared cache.
  auto ex2 = mc::make_sp_executor(ctx);
  ex2->prepare(kN, kG);
  EXPECT_EQ(ctx.plan_cache_misses(), misses);
  EXPECT_GE(ctx.plan_cache_hits(), 1u);
  EXPECT_EQ(ctx.tuner().cache_size(), tuner_cache);
}

// ------------------------------------------------------------ workspace pool

TEST(WorkspacePool, ReusesBuffersAcrossRuns) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto ex = mc::make_mps_executor(ctx, /*w=*/4);
  ex->prepare(kN, kG);

  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(kN * kG), 7);
  std::vector<int> out1(data.size()), out2(data.size()), out3(data.size());

  const auto r1 = ex->run(data, out1, mc::ScanKind::kInclusive);
  const auto allocs_after_first = ctx.workspace().device_allocations();
  const auto reuses_after_first = ctx.workspace().reuses();

  const auto r2 = ex->run(data, out2, mc::ScanKind::kInclusive);
  const auto r3 = ex->run(data, out3, mc::ScanKind::kInclusive);

  // Steady state: zero new device allocations, only reuses.
  EXPECT_EQ(ctx.workspace().device_allocations(), allocs_after_first);
  EXPECT_GT(ctx.workspace().reuses(), reuses_after_first);

  // Determinism: identical modeled time and identical output, run to run.
  EXPECT_EQ(r1.seconds, r2.seconds);
  EXPECT_EQ(r2.seconds, r3.seconds);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(out2, out3);
  EXPECT_EQ(out1, reference_batch_scan<int>(data, kN, kG,
                                            mc::ScanKind::kInclusive));
}

TEST(WorkspacePool, BestFitAndCounters) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::WorkspacePool pool;
  auto& dev = cluster.device(0);
  {
    auto a = pool.acquire<int>(dev, 100);
    auto b = pool.acquire<int>(dev, 1000);
    EXPECT_EQ(pool.device_allocations(), 2u);
  }
  EXPECT_EQ(pool.pooled_buffers(), 2u);
  {
    // Best fit: a request for 50 gets the 100-element buffer back.
    auto c = pool.acquire<int>(dev, 50);
    EXPECT_EQ(c.size(), 100);
    EXPECT_EQ(pool.reuses(), 1u);
    EXPECT_EQ(pool.device_allocations(), 2u);
  }
  // Other devices and types never share buffers.
  {
    auto d = pool.acquire<int>(cluster.device(1), 50);
    EXPECT_EQ(pool.device_allocations(), 3u);
    auto e = pool.acquire<double>(dev, 50);
    EXPECT_EQ(pool.device_allocations(), 4u);
  }
  pool.clear();
  EXPECT_EQ(pool.pooled_buffers(), 0u);
}

// ---------------------------------------------------------------- staging

namespace {

/// Scan one (dtype, op) cell through Scan-SP and Scan-MPS executors, both
/// kinds, at a one-chunk shape (Scan-SP's single direct_scan kernel) and
/// a three-kernel shape: every staging buffer is scanned in place.
template <typename T, typename Op>
void check_in_place_cell(mc::ScanContext& ctx) {
  const mc::DType dt = *mc::dtype_of_v<T>;
  const mc::OpTag op = *mc::op_tag_of_v<Op>;
  for (const std::int64_t n : {std::int64_t{256}, std::int64_t{1} << 16}) {
    const auto raw = mgs::util::random_i32(static_cast<std::size_t>(n * kG),
                                           static_cast<std::uint64_t>(n));
    std::vector<T> data(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      data[i] = static_cast<T>(raw[i] % 7);  // exact for floats too
    }
    auto sp = mc::make_sp_executor(ctx, 0, dt, op);
    auto mps = mc::make_mps_executor(ctx, 2, false, {}, dt, op);
    for (const auto kind :
         {mc::ScanKind::kInclusive, mc::ScanKind::kExclusive}) {
      const auto want = reference_batch_scan<T, Op>(data, n, kG, kind);
      for (auto* ex : {sp.get(), mps.get()}) {
        SCOPED_TRACE(ex->name() + " " + mc::to_string(dt) + "/" +
                     mc::to_string(op) + " n=" + std::to_string(n) +
                     (kind == mc::ScanKind::kExclusive ? " exclusive"
                                                       : " inclusive"));
        ex->prepare(n, kG);
        std::vector<T> got(data.size());
        const auto r = ex->run(std::span<const T>(data), std::span<T>(got),
                               kind);
        EXPECT_EQ(got, want);
        if (ex == sp.get()) {
          EXPECT_EQ(r.breakdown.get("Stage1") == 0.0, n == 256);
        }
      }
    }
  }
}

template <typename T>
void check_in_place_row(mc::ScanContext& ctx) {
  check_in_place_cell<T, mc::Plus<T>>(ctx);
  check_in_place_cell<T, mc::Max<T>>(ctx);
  check_in_place_cell<T, mc::Min<T>>(ctx);
}

/// Nothing is leased out: every buffer the pool ever allocated is parked.
bool all_staging_returned(mc::ScanContext& ctx) {
  return ctx.workspace().pooled_buffers() ==
         ctx.workspace().device_allocations();
}

}  // namespace

TEST(Staging, InPlaceScansMatchTheReferenceForEveryCell) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  check_in_place_row<std::int32_t>(ctx);
  check_in_place_row<std::int64_t>(ctx);
  check_in_place_row<std::uint32_t>(ctx);
  check_in_place_row<float>(ctx);
  check_in_place_row<double>(ctx);
}

TEST(Staging, ExecutorsOfDifferentWidthShareOnePool) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto w2 = mc::make_mps_executor(ctx, 2);
  auto w4 = mc::make_mps_executor(ctx, 4);
  w2->prepare(kN, kG);
  w4->prepare(kN, kG);
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 23);
  std::vector<int> out(data.size());
  w2->run(data, out, mc::ScanKind::kInclusive);  // warm-up
  w4->run(data, out, mc::ScanKind::kInclusive);
  const auto allocs = ctx.workspace().device_allocations();
  for (int i = 0; i < 3; ++i) {
    w2->run(data, out, mc::ScanKind::kInclusive);
    w4->run(data, out, mc::ScanKind::kInclusive);
  }
  EXPECT_EQ(ctx.workspace().device_allocations(), allocs);
  EXPECT_TRUE(all_staging_returned(ctx));
  // Device 0 keeps one staging buffer for both widths (a W=2 portion plus
  // the small auxiliary arrays), not an input and an output per executor.
  const std::int64_t portion = kN / 2 * kG * std::int64_t{sizeof(int)};
  EXPECT_LT(cluster.device(0).allocated_bytes(), 2 * portion);
  EXPECT_EQ(out, reference_batch_scan<int>(data, kN, kG,
                                           mc::ScanKind::kInclusive));
}

TEST(Staging, IdleExecutorsHoldNoneAndAFailedRunReturnsIt) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto ex = mc::make_mps_executor(ctx, 2);
  ex->prepare(kN, kG);
  EXPECT_EQ(ctx.workspace().device_allocations(), 0u);
  for (int d = 0; d < cluster.num_devices(); ++d) {
    EXPECT_EQ(cluster.device(d).allocated_bytes(), 0) << "device " << d;
  }

  // Both devices die mid-run: the first loss resumes onto device 0, the
  // second leaves no survivor, so the run throws.
  mgs::sim::FaultInjector fi(mgs::sim::parse_fault_plan(
      "device-down:dev=1,at=1e-9;device-down:dev=0,at=1e-9"));
  cluster.set_fault_injector(&fi);
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 29);
  std::vector<int> out(data.size());
  EXPECT_THROW(ex->run(data, out, mc::ScanKind::kInclusive),
               mgs::util::Error);
  EXPECT_GT(ctx.workspace().device_allocations(), 0u);
  EXPECT_TRUE(all_staging_returned(ctx));
  cluster.set_fault_injector(nullptr);
}

// ------------------------------------------- executor vs legacy equivalence

TEST(ExecutorEquivalence, ScanSp) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(kN * kG), 11);

  auto ex = mc::make_executor("Scan-SP", ctx);
  ex->prepare(kN, kG);
  std::vector<int> got(data.size());
  const auto r = ex->run(data, got, mc::ScanKind::kInclusive);

  auto legacy_cluster = mt::tsubame_kfc_cluster(1);
  auto& dev = legacy_cluster.device(0);
  auto in = dev.alloc<int>(kN * kG);
  auto out = dev.alloc<int>(kN * kG);
  std::copy(data.begin(), data.end(), in.host_span().begin());
  const auto rl = mc::scan_sp<int>(dev, in, out, kN, kG,
                                   ctx.plan_for(kN, kG),
                                   mc::ScanKind::kInclusive);
  const std::vector<int> want(out.host_span().begin(), out.host_span().end());

  EXPECT_EQ(got, want);
  EXPECT_EQ(r.seconds, rl.seconds);
}

TEST(ExecutorEquivalence, ScanMpsAndDirect) {
  for (const bool direct : {false, true}) {
    auto cluster = mt::tsubame_kfc_cluster(1);
    mc::ScanContext ctx(cluster);
    const int w = 4;
    const auto data = mgs::util::random_i32(
        static_cast<std::size_t>(kN * kG), 13);

    auto ex = mc::make_executor(direct ? "Scan-MPS-direct" : "Scan-MPS", ctx,
                                {.w = w});
    ex->prepare(kN, kG);
    std::vector<int> got(data.size());
    const auto r = ex->run(data, got, mc::ScanKind::kExclusive);

    auto legacy_cluster = mt::tsubame_kfc_cluster(1);
    const auto gpus = node_major_ids(legacy_cluster, 1, w);
    auto batches =
        mc::distribute_batch<int>(legacy_cluster, gpus, data, kN, kG);
    const auto& plan =
        ctx.plan_for(kN, kG, mc::DType::kI32, mc::OpTag::kPlus, w);
    const auto rl =
        direct ? mc::scan_mps_direct<int>(legacy_cluster, gpus, batches, kN,
                                          kG, plan, mc::ScanKind::kExclusive)
               : mc::scan_mps<int>(legacy_cluster, gpus, batches, kN, kG,
                                   plan, mc::ScanKind::kExclusive);
    const auto want = mc::collect_batch(batches, kN, kG);

    EXPECT_EQ(got, want) << (direct ? "direct" : "staged");
    EXPECT_EQ(r.seconds, rl.seconds);
  }
}

TEST(ExecutorEquivalence, ScanMppc) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  const std::int64_t g = 5;  // uneven split across the two networks
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * g), 17);

  auto ex = mc::make_executor("Scan-MP-PC", ctx, {.y = 2, .v = 4});
  ex->prepare(kN, g);
  std::vector<int> got(data.size());
  const auto r = ex->run(data, got, mc::ScanKind::kInclusive);

  auto legacy_cluster = mt::tsubame_kfc_cluster(1);
  const auto part = mc::make_mppc_partition(legacy_cluster, 2, 4, g);
  auto batches = mc::distribute_mppc<int>(legacy_cluster, part, data, kN);
  const auto& plan =
      ctx.plan_for(kN, g, mc::DType::kI32, mc::OpTag::kPlus, 4);
  const auto rl = mc::scan_mppc<int>(legacy_cluster, part, batches, kN, plan,
                                     mc::ScanKind::kInclusive);
  const auto want = mc::collect_mppc(part, batches, kN);

  EXPECT_EQ(got, want);
  EXPECT_EQ(r.seconds, rl.seconds);
}

TEST(ExecutorEquivalence, ScanMpsMultinode) {
  auto cluster = mt::tsubame_kfc_cluster(2);
  mc::ScanContext ctx(cluster);
  const int m = 2, w = 8;
  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(kN * kG), 19);

  auto ex = mc::make_executor("Scan-MPS-multinode", ctx, {.w = w, .m = m});
  ex->prepare(kN, kG);
  std::vector<int> got(data.size());
  const auto r = ex->run(data, got, mc::ScanKind::kInclusive);

  auto legacy_cluster = mt::tsubame_kfc_cluster(2);
  const auto ids = node_major_ids(legacy_cluster, m, w);
  mm::Communicator comm(legacy_cluster, ids);
  auto batches =
      mc::distribute_batch<int>(legacy_cluster, ids, data, kN, kG);
  const auto& plan =
      ctx.plan_for(kN, kG, mc::DType::kI32, mc::OpTag::kPlus, m * w);
  const auto rl = mc::scan_mps_multinode<int>(comm, batches, kN, kG, plan,
                                              mc::ScanKind::kInclusive);
  const auto want = mc::collect_batch(batches, kN, kG);

  EXPECT_EQ(got, want);
  EXPECT_EQ(r.seconds, rl.seconds);
}

// --------------------------------------------------------- registry / planner

TEST(ExecutorRegistry, ListsTheFiveProposals) {
  const auto& all = mc::all_executors();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].name, "Scan-SP");
  EXPECT_EQ(all[1].name, "Scan-MPS");
  EXPECT_EQ(all[2].name, "Scan-MPS-direct");
  EXPECT_EQ(all[3].name, "Scan-MP-PC");
  EXPECT_EQ(all[4].name, "Scan-MPS-multinode");

  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  for (const auto& info : all) {
    if (info.name == "Scan-MPS-multinode") continue;  // needs its shape
    auto ex = info.make(ctx, {});
    ASSERT_NE(ex, nullptr);
    EXPECT_EQ(ex->name(), info.name);
    EXPECT_FALSE(ex->describe().empty());
  }
}

TEST(ExecutorRegistry, UnknownNameThrows) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  EXPECT_THROW(mc::make_executor("Scan-XXL", ctx), mgs::util::Error);
}

TEST(ExecutorRegistry, PlannerChoiceMapsToExecutor) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);

  mc::PlannerChoice choice;
  choice.proposal = mc::Proposal::kMps;
  choice.w = 4;
  auto ex = mc::make_executor(ctx, choice);
  ASSERT_NE(ex, nullptr);
  EXPECT_EQ(ex->name(), "Scan-MPS");
}

TEST(ExecutorRegistry, ContextRunsThePlannerEndToEnd) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto ex = ctx.executor_for({kN, kG});
  ASSERT_NE(ex, nullptr);
  ex->prepare(kN, kG);

  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(kN * kG), 23);
  std::vector<int> got(data.size());
  const auto r = ex->run(data, got, mc::ScanKind::kInclusive);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(got, reference_batch_scan<int>(data, kN, kG,
                                           mc::ScanKind::kInclusive));
}

// ----------------------------------------------------------------- contract

TEST(ScanExecutor, RunBeforePrepareThrows) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto ex = mc::make_sp_executor(ctx);
  std::vector<int> data(16, 1), out(16);
  EXPECT_THROW(ex->run(data, out, mc::ScanKind::kInclusive),
               mgs::util::Error);
}

TEST(ScanExecutor, BadShapesThrow) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto mps = mc::make_mps_executor(ctx, 8);
  EXPECT_THROW(mps->prepare(12, 1), mgs::util::Error);  // 12 % 8 != 0
  auto sp = mc::make_sp_executor(ctx);
  EXPECT_THROW(sp->prepare(0, 1), mgs::util::Error);
}

TEST(RunResult, ZeroTimeThroughputThrows) {
  mc::RunResult r;
  r.payload_bytes = 1;
  EXPECT_THROW(r.throughput_bps(), mgs::util::Error);
  r.seconds = 2.0;
  EXPECT_EQ(r.throughput_bps(), 0.5);
}

// Easy API through a shared context amortizes the plan search.
TEST(EasyScan, ContextOverloadCachesPlans) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);

  const auto r1 = mc::scan<int>(ctx, data);
  const auto misses = ctx.plan_cache_misses();
  const auto r2 = mc::scan<int>(ctx, data);
  EXPECT_EQ(ctx.plan_cache_misses(), misses);
  EXPECT_GE(ctx.plan_cache_hits(), 1u);
  EXPECT_EQ(r1.output, r2.output);
  EXPECT_EQ(r1.run.seconds, r2.run.seconds);
}
