/// bench_micro: google-benchmark microbenchmarks of the substrate and the
/// skeletons, plus the repeated-invocation comparison between the legacy
/// per-call convention (re-tune + re-allocate every call) and the
/// ScanContext/ScanExecutor convention (plan cache + workspace pool).
/// These measure *host wall-clock* of the functional simulator (useful
/// for keeping the simulator itself fast); the figure harnesses report
/// *simulated* device time. The repeated-invocation results are also
/// written to bench_results/bench_micro.json, together with a "trace"
/// section summarizing a traced Scan-MPS run whose full JSON run-report
/// lands next to it (override the path with --trace FILE; render with
/// `mgs_trace --in FILE`), and a "segmented" section comparing the free
/// function segmented_scan_sp against SegmentedScan through the unified
/// context path (where the packed pairs ride the plan cache and the
/// overlap pipeline).
///
/// --dtype/--op run the comparison sections over any (DType, OpTag) cell
/// of the erased executor matrix; non-default configs write their JSON
/// with a _<dtype>_<op> suffix so the i32/plus baseline file the CI gate
/// tracks is never clobbered.

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "mgs/baselines/cub.hpp"
#include "mgs/core/scan_sp.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/simt/warp.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace st = mgs::simt;

namespace {

void BM_WarpScanInclusive(benchmark::State& state) {
  st::WarpReg<int> x;
  for (int l = 0; l < st::kWarpSize; ++l) x[l] = l;
  mgs::sim::KernelStats stats;
  for (auto _ : state) {
    auto y = x;
    st::warp_scan_inclusive(y, mc::Plus<int>{}, stats);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * st::kWarpSize);
}
BENCHMARK(BM_WarpScanInclusive);

void BM_ShflUp(benchmark::State& state) {
  st::WarpReg<int> x;
  x.fill(3);
  mgs::sim::KernelStats stats;
  for (auto _ : state) {
    auto y = st::shfl_up(x, static_cast<int>(state.range(0)), stats);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_ShflUp)->Arg(1)->Arg(16);

void BM_ScanSpSimulated(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  st::Device dev(0, mgs::sim::k80_spec());
  auto plan = mc::derive_spl(dev.spec(), 4).plan;
  plan.s13.k = 4;
  auto in = dev.alloc<int>(n);
  auto out = dev.alloc<int>(n);
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n), 1);
  std::copy(data.begin(), data.end(), in.host_span().begin());
  double simulated = 0.0;
  for (auto _ : state) {
    simulated = mc::scan_sp<int>(dev, in, out, n, 1, plan,
                                 mc::ScanKind::kInclusive)
                    .seconds;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["simulated_GBps"] =
      2.0 * static_cast<double>(n) * 4.0 / simulated / 1e9;
}
BENCHMARK(BM_ScanSpSimulated)->Arg(1 << 16)->Arg(1 << 20);

void BM_CubModelSimulated(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  st::Device dev(0, mgs::sim::k80_spec());
  auto in = dev.alloc<std::int32_t>(n);
  auto out = dev.alloc<std::int32_t>(n);
  double simulated = 0.0;
  for (auto _ : state) {
    simulated = mgs::baselines::cub_scan<std::int32_t>(
                    dev, in, out, 0, n, mc::ScanKind::kInclusive)
                    .seconds;
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["simulated_GBps"] =
      2.0 * static_cast<double>(n) * 4.0 / simulated / 1e9;
}
BENCHMARK(BM_CubModelSimulated)->Arg(1 << 16)->Arg(1 << 20);

void BM_LaunchOverheadHost(benchmark::State& state) {
  st::Device dev(0, mgs::sim::k80_spec());
  auto buf = dev.alloc<int>(1 << 12);
  auto view = buf.view();
  st::LaunchConfig cfg;
  cfg.grid = {32, 1, 1};
  cfg.block = {128, 1, 1};
  for (auto _ : state) {
    st::launch(dev, cfg, [&](st::BlockCtx& ctx) {
      view.store(ctx.block_idx().x, ctx.block_idx().x, ctx.stats());
    });
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_LaunchOverheadHost);

// ------------------------------------------------------------------------
// bench_micro's flags: the shared bench run flags plus a results override.
// Only the traced representative run is recorded, so `trace` is a plain
// path here (no TraceGuard).

struct MicroOptions : mgs::bench::BenchConfig {
  std::string out;  ///< results JSON override (e.g. for fault-seeded runs
                    ///< that must not clobber the tracked snapshot)
};

// ------------------------------------------------------------------------
// Repeated-invocation comparison: the unified-API acceptance measurement.
// Call the same scan `kIters` times; the per-call path re-derives its plan
// and re-allocates buffers every time (the pre-refactor convention), the
// context path prepares once and reuses plan + pooled workspaces.

constexpr int kIters = 6;

struct PathTiming {
  double first_ms = 0.0;
  double mean_subsequent_ms = 0.0;
  double amortized_gbps = 0.0;  ///< payload / mean subsequent host second
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

PathTiming time_calls(const std::function<void()>& call,
                      std::uint64_t payload_bytes) {
  PathTiming t;
  double sum_rest = 0.0;
  for (int i = 0; i < kIters; ++i) {
    const double t0 = now_ms();
    call();
    const double ms = now_ms() - t0;
    if (i == 0) {
      t.first_ms = ms;
    } else {
      sum_rest += ms;
    }
  }
  t.mean_subsequent_ms = sum_rest / (kIters - 1);
  t.amortized_gbps =
      static_cast<double>(payload_bytes) / (t.mean_subsequent_ms / 1e3) / 1e9;
  return t;
}

struct RepeatedCase {
  std::string name;
  std::string executor;
  mc::ExecutorParams params;
  std::int64_t n = 0;
  std::int64_t g = 0;
  PathTiming per_call;
  PathTiming context;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t workspace_reuses = 0;
  std::uint64_t device_allocations = 0;
};

template <typename T, typename Op>
RepeatedCase run_repeated_case(std::string name, std::string executor,
                               mc::ExecutorParams params, std::int64_t n,
                               std::int64_t g, std::span<const T> data) {
  RepeatedCase c;
  c.name = std::move(name);
  c.executor = std::move(executor);
  params.op = mc::op_tag_of_v<Op>.value_or(mc::OpTag::kPlus);
  c.params = params;
  c.n = n;
  c.g = g;
  const std::uint64_t payload =
      2ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(g) *
      sizeof(T);

  // Legacy per-call convention: plan derivation + fresh device/cluster +
  // allocations on every invocation.
  if (c.executor == "Scan-SP") {
    c.per_call = time_calls(
        [&] {
          const auto plan = mgs::bench::tuned_plan(n, g, 1);
          mgs::bench::sp_run_t<T, Op>(data, n, g, plan);
        },
        payload);
  } else {
    c.per_call = time_calls(
        [&] {
          const auto plan =
              mgs::bench::tuned_plan_multi(n / c.params.w, g, c.params.w);
          mgs::bench::mps_run_t<T, Op>(c.params.w, data, n, g, plan);
        },
        payload);
  }

  // Unified-API convention: one context, executor prepared on first call,
  // driven through the erased TypedSpan entry point.
  mgs::bench::BenchContext bc(1);
  c.context = time_calls(
      [&] { bc.run_typed<T>(c.executor, c.params, data, n, g); }, payload);
  c.plan_cache_hits = bc.ctx().plan_cache_hits();
  c.workspace_reuses = bc.ctx().workspace().reuses();
  c.device_allocations = bc.ctx().workspace().device_allocations();
  return c;
}

// ------------------------------------------------------------------------
// Resilience overhead: the same scan through the unified API, healthy vs
// with a --faults schedule attached, compared on *simulated* seconds (the
// retries/reroutes/backoffs are modeled time). Reported in the JSON.

struct ResilienceCase {
  std::string executor;
  std::int64_t n = 0;
  std::int64_t g = 0;
  double healthy_s = 0.0;   ///< simulated seconds, no injector
  double faulted_s = 0.0;   ///< simulated seconds under the schedule
  std::string error;        ///< typed error, if the run could not complete
  mgs::sim::FaultReport report;
};

template <typename T>
ResilienceCase run_resilience_case(const std::string& spec,
                                   std::string executor,
                                   mc::ExecutorParams params, std::int64_t n,
                                   std::int64_t g, std::span<const T> data) {
  ResilienceCase c;
  c.executor = std::move(executor);
  c.n = n;
  c.g = g;
  mgs::bench::BenchContext healthy(1);
  c.healthy_s = healthy.run_typed<T>(c.executor, params, data, n, g).seconds;
  mgs::bench::BenchContext faulted(1);
  faulted.attach_faults(spec);
  try {
    const auto r = faulted.run_typed<T>(c.executor, params, data, n, g);
    c.faulted_s = r.seconds;
    c.report = r.faults;
  } catch (const mgs::util::Error& e) {
    c.error = e.what();
  }
  return c;
}

// ------------------------------------------------------------------------
// Segmented scan through the unified path: the free function
// segmented_scan_sp scans one sequence per call on one GPU; SegmentedScan
// packs the same (values, flags) batch once and drives a proposal
// executor over SegPair elements, so segmented traffic gets plan-cache
// hits, multi-GPU placement and the overlapped pipeline. The sync-forced
// MPS run isolates how much of the win is the overlap pipeline itself.

struct SegmentedComparison {
  std::int64_t n = 0;
  std::int64_t g = 0;
  int waves = 1;              ///< overlap waves of the MPS plan
  double free_total_s = 0.0;  ///< G sequential free-function calls
  double ctx_sp_s = 0.0;      ///< SegmentedScan over Scan-SP, one batch
  double mps_sync_s = 0.0;    ///< SegmentedScan over Scan-MPS, sync stages
  double mps_overlap_s = 0.0; ///< SegmentedScan over Scan-MPS, overlapped
  double overlap_reduction_pct() const {
    return mps_sync_s > 0.0 ? (1.0 - mps_overlap_s / mps_sync_s) * 100.0
                            : 0.0;
  }
  double speedup_vs_free() const {
    return mps_overlap_s > 0.0 ? free_total_s / mps_overlap_s : 0.0;
  }
};

template <typename T, typename Op>
SegmentedComparison run_segmented_comparison(const MicroOptions& opts) {
  SegmentedComparison c;
  c.n = 1 << 17;
  c.g = 16;
  const std::int64_t total = c.n * c.g;
  const auto seed =
      mgs::util::random_i32(static_cast<std::size_t>(total), 7);
  std::vector<T> values(seed.begin(), seed.end());
  std::vector<T> flags(static_cast<std::size_t>(total));
  for (std::int64_t i = 0; i < total; ++i) {
    // ~1/1024 head probability: segments average about 1k elements.
    flags[static_cast<std::size_t>(i)] =
        (seed[static_cast<std::size_t>(i)] & 1023) == 0 ? T{1} : T{0};
  }

  // Old free-function path: one GPU, one sequence per call, G calls.
  std::vector<T> free_out(static_cast<std::size_t>(total));
  {
    st::Device dev(0, mgs::sim::k80_spec());
    const auto plan = mgs::bench::tuned_plan(c.n, 1, 1);
    auto in = dev.alloc<T>(c.n);
    auto fl = dev.alloc<T>(c.n);
    auto out = dev.alloc<T>(c.n);
    for (std::int64_t j = 0; j < c.g; ++j) {
      const auto base = static_cast<std::ptrdiff_t>(j * c.n);
      std::copy(values.begin() + base, values.begin() + base + c.n,
                in.host_span().begin());
      std::copy(flags.begin() + base, flags.begin() + base + c.n,
                fl.host_span().begin());
      c.free_total_s +=
          mc::segmented_scan_sp<T, Op>(dev, in, fl, out, c.n, plan).seconds;
      std::copy(out.host_span().begin(), out.host_span().begin() + c.n,
                free_out.begin() + base);
    }
  }

  // Unified path: the whole batch in one prepared call per variant.
  mgs::bench::BenchContext bc(1);
  std::vector<T> ctx_out(static_cast<std::size_t>(total));
  {
    mc::SegmentedScan<T, Op> seg(bc.ctx());
    seg.prepare(c.n, c.g);
    c.ctx_sp_s = seg.run(values, flags, ctx_out).seconds;
  }
  if constexpr (std::is_integral_v<T>) {
    // Exact operators: the context batch must reproduce the free path
    // bit for bit (floats may legally differ in association order).
    MGS_CHECK(ctx_out == free_out,
              "segmented: context path disagrees with segmented_scan_sp");
  }
  {
    mc::SegmentedScan<T, Op> seg(
        bc.ctx(), "Scan-MPS",
        {.w = 4, .pipeline = mc::PipelineMode::kSync});
    seg.prepare(c.n, c.g);
    c.mps_sync_s = seg.run(values, flags, ctx_out).seconds;
  }
  {
    mc::SegmentedScan<T, Op> seg(bc.ctx(), "Scan-MPS", {.w = 4});
    seg.prepare(c.n, c.g);
    c.mps_overlap_s = seg.run(values, flags, ctx_out).seconds;
    c.waves = bc.ctx()
                  .plan_for(c.n, c.g, opts.dtype, opts.op,
                            /*gpus_per_problem=*/4, /*segmented=*/true)
                  .pipe.waves;
  }
  if constexpr (std::is_integral_v<T>) {
    MGS_CHECK(ctx_out == free_out,
              "segmented: MPS context path disagrees with segmented_scan_sp");
  }
  return c;
}

// ------------------------------------------------------------------------
// Traced representative run: one Scan-MPS invocation through the unified
// API under an obs::TraceSession. The full run-report goes to its own
// file; bench_micro.json gets a "trace" section summarizing it. The
// --faults schedule (when given) rides this run too, so a seeded
// straggler shows up in the traced report the CI gate diffs.

struct TraceSummary {
  std::string report_path;
  std::size_t spans = 0;
  std::size_t metric_series = 0;
  double makespan_s = 0.0;
  mgs::obs::CategorySeconds by_category;
};

template <typename T>
TraceSummary run_traced_case(const MicroOptions& opts,
                             std::span<const T> data, std::int64_t n,
                             std::int64_t g) {
  TraceSummary s;
  s.report_path = opts.trace;
  mgs::obs::TraceSession ts;
  mgs::bench::BenchContext bc(1);
  if (!opts.faults.empty()) bc.attach_faults(opts.faults);
  const auto r =
      bc.run_typed<T>("Scan-MPS", {.w = 4, .op = opts.op}, data, n, g);
  mgs::core::write_run_report_file(
      opts.trace,
      mgs::core::make_run_info("Scan-MPS", n, 4, r, opts.dtype, opts.op), ts);
  const auto cp = mgs::obs::analyze_last_run(ts.spans());
  s.spans = ts.size();
  s.metric_series = ts.metrics().snapshot().size();
  s.makespan_s = cp.total_seconds;
  s.by_category = cp.by_category;
  mgs::bench::record_history(opts, "Scan-MPS", n, g, 4, "overlap", r,
                             cp.by_category);
  return s;
}

void json_path(std::ostream& os, const char* key, const PathTiming& t) {
  os << "    \"" << key << "\": {\"first_ms\": " << t.first_ms
     << ", \"mean_subsequent_ms\": " << t.mean_subsequent_ms
     << ", \"amortized_gbps\": " << t.amortized_gbps << "}";
}

std::string report_path(const MicroOptions& opts) {
  if (!opts.out.empty()) return opts.out;
  return "bench_results/bench_micro" + opts.file_suffix() + ".json";
}

void write_repeated_report(const MicroOptions& opts,
                           const std::vector<RepeatedCase>& cases,
                           const std::vector<ResilienceCase>& resilience,
                           const SegmentedComparison& seg,
                           const TraceSummary& trace) {
  const std::string path = report_path(opts);
  const auto dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir);
  std::ofstream os(path);
  os << "{\n"
     << "  \"bench\": \"bench_micro\",\n"
     << "  \"dtype\": \"" << opts.dtype_name() << "\",\n"
     << "  \"op\": \"" << opts.op_name() << "\",\n"
     << "  \"units\": {\"time\": \"ms host wall-clock\", "
        "\"throughput\": \"GB/s of scan payload per host second\"},\n"
     << "  \"iterations\": " << kIters << ",\n"
     << "  \"repeated_invocation\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    os << "  {\n"
       << "    \"case\": \"" << c.name << "\",\n"
       << "    \"executor\": \"" << c.executor << "\",\n"
       << "    \"n\": " << c.n << ", \"g\": " << c.g << ",\n";
    json_path(os, "per_call", c.per_call);
    os << ",\n";
    json_path(os, "context", c.context);
    os << ",\n"
       << "    \"context_plan_cache_hits\": " << c.plan_cache_hits << ",\n"
       << "    \"context_workspace_reuses\": " << c.workspace_reuses << ",\n"
       << "    \"context_device_allocations\": " << c.device_allocations
       << ",\n"
       << "    \"speedup_subsequent\": "
       << c.per_call.mean_subsequent_ms / c.context.mean_subsequent_ms << "\n"
       << "  }" << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (!resilience.empty()) {
    os << ",\n  \"resilience\": {\n"
       << "    \"spec\": \"" << opts.faults << "\",\n"
       << "    \"units\": {\"time\": \"simulated seconds\"},\n"
       << "    \"cases\": [\n";
    for (std::size_t i = 0; i < resilience.size(); ++i) {
      const auto& c = resilience[i];
      const auto& f = c.report.counters;
      os << "    {\n"
         << "      \"executor\": \"" << c.executor << "\", \"n\": " << c.n
         << ", \"g\": " << c.g << ",\n"
         << "      \"healthy_s\": " << c.healthy_s
         << ", \"faulted_s\": " << c.faulted_s << ", \"overhead_pct\": "
         << (c.error.empty() && c.healthy_s > 0.0
                 ? (c.faulted_s / c.healthy_s - 1.0) * 100.0
                 : 0.0)
         << ",\n"
         << "      \"retries\": " << f.retries
         << ", \"transient_failures\": " << f.transient_failures
         << ", \"timeouts\": " << f.timeouts
         << ", \"corruptions_detected\": " << f.corruptions_detected << ",\n"
         << "      \"rerouted_transfers\": " << f.rerouted_transfers
         << ", \"rerouted_bytes\": " << f.rerouted_bytes
         << ", \"retry_seconds\": " << f.retry_seconds << ",\n"
         << "      \"degraded\": " << (c.report.degraded ? "true" : "false")
         << ", \"degraded_mode\": \"" << c.report.degraded_mode << "\""
         << ", \"error\": \"" << c.error << "\"\n"
         << "    }" << (i + 1 < resilience.size() ? "," : "") << "\n";
    }
    os << "    ]\n  }";
  }
  os << ",\n  \"segmented\": {\n"
     << "    \"n\": " << seg.n << ", \"g\": " << seg.g
     << ", \"waves\": " << seg.waves << ",\n"
     << "    \"units\": {\"time\": \"simulated seconds\"},\n"
     << "    \"free_per_sequence_s\": " << seg.free_total_s << ",\n"
     << "    \"context_sp_s\": " << seg.ctx_sp_s << ",\n"
     << "    \"context_mps_sync_s\": " << seg.mps_sync_s << ",\n"
     << "    \"context_mps_overlap_s\": " << seg.mps_overlap_s << ",\n"
     << "    \"overlap_reduction_pct\": " << seg.overlap_reduction_pct()
     << ",\n"
     << "    \"context_overlap_speedup_vs_free\": " << seg.speedup_vs_free()
     << "\n  }";
  os << ",\n  \"trace\": {\n"
     << "    \"report\": \"" << trace.report_path << "\",\n"
     << "    \"spans\": " << trace.spans
     << ", \"metric_series\": " << trace.metric_series << ",\n"
     << "    \"critical_path\": {\"makespan_s\": " << trace.makespan_s;
  for (int c = 0; c < mgs::obs::kNumCategories; ++c) {
    os << ", \"" << mgs::obs::to_string(static_cast<mgs::obs::Category>(c))
       << "_s\": " << trace.by_category.seconds[static_cast<std::size_t>(c)];
  }
  os << "}\n  }";
  os << "\n}\n";
}

template <typename T, typename Op>
void report_repeated_invocation(const MicroOptions& opts) {
  const std::int64_t n = 1 << 20;
  const std::int64_t g = 4;
  const auto seed =
      mgs::util::random_i32(static_cast<std::size_t>(n * g), 42);
  const std::vector<T> data(seed.begin(), seed.end());
  const std::span<const T> span(data);

  std::vector<RepeatedCase> cases;
  cases.push_back(run_repeated_case<T, Op>("scan_sp_repeated", "Scan-SP", {},
                                           n, g, span));
  cases.push_back(run_repeated_case<T, Op>("scan_mps_w4_repeated", "Scan-MPS",
                                           {.w = 4}, n, g, span));

  std::vector<ResilienceCase> resilience;
  if (!opts.faults.empty()) {
    resilience.push_back(run_resilience_case<T>(opts.faults, "Scan-SP",
                                                {.op = opts.op}, n, g, span));
    resilience.push_back(run_resilience_case<T>(
        opts.faults, "Scan-MPS", {.w = 4, .op = opts.op}, n, g, span));
  }

  std::printf(
      "Repeated-invocation comparison (%d calls, n=2^20, g=4, %s/%s; host "
      "wall-clock):\n",
      kIters, opts.dtype_name(), opts.op_name());
  for (const auto& c : cases) {
    std::printf(
        "  %-22s per-call: first %7.1f ms, then %7.1f ms/call | "
        "context: first %7.1f ms, then %7.1f ms/call | speedup %.2fx\n",
        c.name.c_str(), c.per_call.first_ms, c.per_call.mean_subsequent_ms,
        c.context.first_ms, c.context.mean_subsequent_ms,
        c.per_call.mean_subsequent_ms / c.context.mean_subsequent_ms);
  }
  for (const auto& c : resilience) {
    if (!c.error.empty()) {
      std::printf("  %-22s faults: typed error: %s\n", c.executor.c_str(),
                  c.error.c_str());
    } else {
      std::printf(
          "  %-22s faults: %.3f ms -> %.3f ms simulated (+%.1f%%), "
          "%llu retries\n",
          c.executor.c_str(), c.healthy_s * 1e3, c.faulted_s * 1e3,
          (c.faulted_s / c.healthy_s - 1.0) * 100.0,
          static_cast<unsigned long long>(c.report.counters.retries));
    }
  }

  const auto seg = run_segmented_comparison<T, Op>(opts);
  std::printf(
      "  segmented n=2^17 g=%lld [%s/%s]: free per-sequence %.3f ms | "
      "context SP %.3f ms | MPS w4 sync %.3f ms | MPS w4 overlap %.3f ms "
      "(waves=%d, -%.1f%% vs sync, %.2fx vs free)\n",
      static_cast<long long>(seg.g), opts.dtype_name(), opts.op_name(),
      seg.free_total_s * 1e3, seg.ctx_sp_s * 1e3, seg.mps_sync_s * 1e3,
      seg.mps_overlap_s * 1e3, seg.waves, seg.overlap_reduction_pct(),
      seg.speedup_vs_free());

  std::filesystem::create_directories("bench_results");
  const auto trace = run_traced_case<T>(opts, span, n, g);
  std::printf("  traced Scan-MPS run: %zu spans, makespan %.3f ms -> %s\n",
              trace.spans, trace.makespan_s * 1e3,
              trace.report_path.c_str());
  write_repeated_report(opts, cases, resilience, seg, trace);
  std::printf("  -> %s\n\n", report_path(opts).c_str());
}

template <typename T>
void report_for_dtype(const MicroOptions& opts) {
  switch (opts.op) {
    case mc::OpTag::kPlus:
      return report_repeated_invocation<T, mc::Plus<T>>(opts);
    case mc::OpTag::kMax:
      return report_repeated_invocation<T, mc::Max<T>>(opts);
    case mc::OpTag::kMin:
      return report_repeated_invocation<T, mc::Min<T>>(opts);
  }
}

void report_all(const MicroOptions& opts) {
  switch (opts.dtype) {
    case mc::DType::kI32: return report_for_dtype<std::int32_t>(opts);
    case mc::DType::kI64: return report_for_dtype<std::int64_t>(opts);
    case mc::DType::kU32: return report_for_dtype<std::uint32_t>(opts);
    case mc::DType::kF32: return report_for_dtype<float>(opts);
    case mc::DType::kF64: return report_for_dtype<double>(opts);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark sees only its own --benchmark_* flags; util::Cli
  // parses the rest and rejects typos before any traced case runs.
  std::vector<char*> ours{argv[0]};
  std::vector<char*> theirs{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const bool bench_flag =
        std::string_view(argv[i]).starts_with("--benchmark_");
    (bench_flag ? theirs : ours).push_back(argv[i]);
  }
  MicroOptions opts;
  try {
    mgs::util::Cli cli(static_cast<int>(ours.size()), ours.data());
    mgs::bench::describe_run_flags(cli);
    cli.describe("out", "results JSON path (default bench_results/"
                        "bench_micro[_<dtype>_<op>].json)");
    if (cli.help_requested()) {
      cli.print_help("Substrate microbenchmarks plus the repeated-invocation, "
                     "segmented and traced Scan-MPS reports. --benchmark_* "
                     "flags go to google-benchmark.");
      return 0;
    }
    cli.reject_unknown();
    mgs::bench::read_run_flags(cli, opts);
    if (opts.trace.empty()) {
      // Default trace path follows the dtype/op suffix convention too.
      opts.trace = "bench_results/bench_micro_run_report" +
                   opts.file_suffix() + ".json";
    }
    opts.out = cli.get_string("out", "");
  } catch (const mgs::util::Error& e) {
    std::fprintf(stderr, "bench_micro: %s\n", e.what());
    return 2;
  }
  report_all(opts);
  argc = static_cast<int>(theirs.size());
  argv = theirs.data();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
