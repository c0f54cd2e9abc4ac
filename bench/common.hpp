#pragma once
/// \file common.hpp
/// Shared machinery for the figure/table harnesses. Each bench binary
/// reproduces one experiment of the paper's Section 5 on the simulated
/// TSUBAME-KFC platform and prints the same rows/series the paper plots.
///
/// The paper solves 2^28 total elements; the default here is 2^22 so the
/// functional simulation stays fast on a laptop -- pass --total-log2 28
/// to run at paper scale. Throughput numbers are simulated (see
/// DESIGN.md); the reproduction target is the *shape*: who wins, by what
/// factor, where the crossovers fall.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mgs/baselines/registry.hpp"
#include "mgs/core/api.hpp"
#include "mgs/obs/history.hpp"
#include "mgs/util/cli.hpp"
#include "mgs/util/random.hpp"
#include "mgs/util/stats.hpp"
#include "mgs/util/table.hpp"

namespace mgs::bench {

/// Records every run of the harness in an obs::TraceSession and writes
/// the JSON run-report when flushed (the --trace flag). Held by
/// shared_ptr in BenchConfig so the session outlives parse_bench_config.
/// Live guards register an atexit sweep, so the report is written even
/// when a harness leaves through std::exit (which skips destructors of
/// automatic and shared_ptr-held objects); the destructor unregisters and
/// flushes for the normal return path, and flush() is idempotent.
class TraceGuard {
 public:
  explicit TraceGuard(std::string path) : path_(std::move(path)) {
    info_.executor = "bench-harness";
    register_guard(this);
  }
  ~TraceGuard() {
    unregister_guard(this);
    flush();
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

  /// Write the report; second and later calls (e.g. the atexit sweep
  /// after a normal destruction) are no-ops.
  void flush() {
    if (flushed_) return;
    flushed_ = true;
    try {
      core::write_run_report_file(path_, info_, session_);
      std::fprintf(stderr, "trace: wrote %s\n", path_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace: %s\n", e.what());
    }
  }

  /// Stamp the report header with a representative run's summary.
  void set_run_info(obs::RunInfo info) { info_ = std::move(info); }
  obs::TraceSession& session() { return session_; }

 private:
  static std::vector<TraceGuard*>& live_guards() {
    static std::vector<TraceGuard*> guards;
    return guards;
  }
  static void flush_live_guards() {
    for (TraceGuard* g : live_guards()) g->flush();
  }
  static void register_guard(TraceGuard* g) {
    static const bool registered = [] {
      std::atexit(&flush_live_guards);
      return true;
    }();
    (void)registered;
    live_guards().push_back(g);
  }
  static void unregister_guard(TraceGuard* g) {
    auto& v = live_guards();
    v.erase(std::remove(v.begin(), v.end(), g), v.end());
  }

  std::string path_;
  bool flushed_ = false;
  obs::RunInfo info_;
  obs::TraceSession session_;
};

/// The label bench runs record history under when --history-label is
/// omitted: `git rev-parse --short HEAD`, or "local" outside a repo (or
/// when git is unavailable) -- so ad-hoc laptop runs still land on a
/// consistent timeline point instead of being dropped.
inline std::string detect_git_label() {
  std::string out;
  if (FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    const int rc = ::pclose(p);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    if (rc != 0) out.clear();
  }
  return out.empty() ? "local" : out;
}

struct BenchConfig {
  int total_log2 = 22;    ///< total elements per data point (paper: 28)
  int min_n_log2 = 13;    ///< smallest problem size exponent (paper: 13)
  bool csv = false;       ///< machine-readable output
  std::uint64_t seed = 20180521;  ///< IPDPS 2018 :-)
  std::string faults;     ///< fault-injection spec (see sim/fault.hpp); ""
                          ///< = healthy run (bit-identical to pre-fault)
  std::string trace;      ///< run-report output path (--trace); "" = off
  std::shared_ptr<TraceGuard> trace_guard;  ///< live session when tracing
  core::DType dtype = core::DType::kI32;  ///< --dtype: element type
  core::OpTag op = core::OpTag::kPlus;    ///< --op: scan operator
  std::string history_label;  ///< label runs append to the NDJSON history
                              ///< under; auto-detected from git when the
                              ///< flag is omitted, "" (--history-label
                              ///< none) = off
  std::string history_file = "bench_results/history.ndjson";

  const char* dtype_name() const { return core::to_string(dtype); }
  const char* op_name() const { return core::to_string(op); }
  /// "" for the default i32/plus config, "_f64_max"-style otherwise --
  /// non-default configs write side-by-side artifacts instead of
  /// clobbering the baseline-tracked i32 files.
  std::string file_suffix() const {
    if (dtype == core::DType::kI32 && op == core::OpTag::kPlus) return "";
    return std::string("_") + dtype_name() + "_" + op_name();
  }
};

/// The flags every bench binary shares: the fault plan, the run-report
/// path, the (dtype, op) cell and the run-history store.
inline void describe_run_flags(util::Cli& cli) {
  cli.describe("faults",
               "fault-injection spec, e.g. 'transient:prob=0.01;straggler:dev=1,factor=4' "
               "(kinds: transient, link-down, device-down, corrupt, straggler, policy)");
  cli.describe("trace",
               "record the runs in an obs::TraceSession and write the JSON "
               "run-report here (inspect with mgs_trace --in FILE)");
  cli.describe("dtype",
               "element type: i32 (default), i64, u32, f32, f64");
  cli.describe("op", "scan operator: plus (default), max, min");
  cli.describe("history-label",
               "append this harness's data points to the run history under "
               "this label (mgs_perf history show). Default: the current "
               "git short sha, or 'local' outside a repo; 'none' disables "
               "recording");
  cli.describe("history-file",
               "history store path (default bench_results/history.ndjson)");
}

/// Read the describe_run_flags set into `cfg`. Only the --trace path is
/// stored; what a trace records is up to the binary.
inline void read_run_flags(const util::Cli& cli, BenchConfig& cfg) {
  cfg.faults = cli.get_string("faults", "");
  if (!cfg.faults.empty()) {
    sim::parse_fault_plan(cfg.faults);  // fail fast on a malformed spec
  }
  cfg.trace = cli.get_string("trace", "");
  cfg.dtype = core::parse_dtype(cli.get_string("dtype", "i32"));
  cfg.op = core::parse_op(cli.get_string("op", "plus"));
  // Auto-label: an explicit --history-label wins; otherwise every run is
  // recorded under the current commit so local timelines accumulate for
  // free. "none" is the opt-out.
  cfg.history_label = cli.get_string("history-label", "");
  if (cfg.history_label.empty()) cfg.history_label = detect_git_label();
  if (cfg.history_label == "none") cfg.history_label.clear();
  cfg.history_file =
      cli.get_string("history-file", "bench_results/history.ndjson");
}

inline BenchConfig parse_bench_config(int argc, char** argv,
                                      const std::string& summary) {
  util::Cli cli(argc, argv);
  cli.describe("total-log2", "log2 of total elements per point (default 22; paper used 28)");
  cli.describe("min-n-log2", "smallest per-problem size exponent (default 13)");
  cli.describe("csv", "emit CSV instead of an aligned table");
  cli.describe("seed", "RNG seed for the input data");
  describe_run_flags(cli);
  if (cli.help_requested()) {
    cli.print_help(summary);
    std::exit(0);
  }
  cli.reject_unknown();
  BenchConfig cfg;
  cfg.total_log2 = static_cast<int>(cli.get_int("total-log2", 22));
  cfg.min_n_log2 = static_cast<int>(cli.get_int("min-n-log2", 13));
  cfg.csv = cli.get_bool("csv", false);
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 20180521));
  read_run_flags(cli, cfg);
  if (!cfg.trace.empty()) {
    cfg.trace_guard = std::make_shared<TraceGuard>(cfg.trace);
  }
  MGS_REQUIRE(cfg.total_log2 >= cfg.min_n_log2 && cfg.total_log2 <= 28,
              "--total-log2 must be in [--min-n-log2, 28]");
  return cfg;
}

/// Append one labeled data point to the NDJSON run history -- the shared
/// hook every bench binary calls. Runs record under the auto-detected git
/// label by default (--history-label none disables, leaving the label
/// empty and making this a no-op). by_category stays zero for untraced
/// runs; the traced paths fill
/// it from the analyzer before appending. Store failures are reported,
/// never fatal: history is telemetry, not a gate.
inline void record_history(const BenchConfig& cfg, const std::string& executor,
                           std::int64_t n, std::int64_t g, int devices,
                           const std::string& pipeline,
                           const core::RunResult& r,
                           const obs::CategorySeconds& by_category = {}) {
  if (cfg.history_label.empty()) return;
  try {
    obs::HistoryEntry e;
    e.key.executor = executor;
    e.key.dtype = cfg.dtype_name();
    e.key.op = cfg.op_name();
    e.key.pipeline = pipeline;
    e.key.n = static_cast<std::uint64_t>(n);
    e.key.g = g;
    e.key.devices = devices;
    e.label = cfg.history_label;
    e.seconds = r.seconds;
    e.payload_bytes = r.payload_bytes;
    e.breakdown = r.breakdown.entries();
    e.by_category = by_category;
    obs::RunHistory(cfg.history_file).append(e);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "history: %s\n", ex.what());
  }
}

inline void print_table(const util::Table& table, const BenchConfig& cfg) {
  if (cfg.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// The paper's plan for the K80 with the K chosen from the premise-trimmed
/// space for this (N, G, gpus-per-problem), picking the empirically best
/// candidate by a quick autotune run on a throwaway device.
inline core::ScanPlan tuned_plan(std::int64_t n, std::int64_t g,
                                 int gpus_per_problem) {
  const auto spec = sim::k80_spec();
  auto plan = core::derive_spl(spec, 4).plan;
  const auto ks = core::k1_candidates(n / gpus_per_problem * gpus_per_problem,
                                      g, plan, spec, gpus_per_problem);
  if (ks.size() > 1) {
    // Autotune on a reduced copy of the problem (the optimum K is scale-
    // stable because the trade-off is per-chunk, not per-element).
    simt::Device probe(0, spec);
    const std::int64_t n_probe = std::min<std::int64_t>(n, 1 << 18);
    auto in = probe.alloc<int>(n_probe);
    auto out = probe.alloc<int>(n_probe);
    const auto r = core::autotune_k(ks, [&](int k) {
      auto p = plan;
      p.s13.k = k;
      return core::scan_sp<int>(probe, in, out, n_probe, 1, p,
                                core::ScanKind::kInclusive)
          .seconds;
    });
    plan.s13.k = r.best_k;
  }
  return plan;
}

/// Multi-GPU plan per Section 4.2: "Premise 3 justifies the fact of
/// maximizing K^1 with Equation 1" -- with several GPUs a large K means
/// fewer chunk reductions written to the master GPU, so K is set to the
/// largest power of two admitted by Equations 1 and 2/3.
/// \param n_local elements of one problem on one GPU.
inline core::ScanPlan tuned_plan_multi(std::int64_t n_local, std::int64_t g,
                                       int gpus_per_problem) {
  const auto spec = sim::k80_spec();
  auto plan = core::derive_spl(spec, 4).plan;
  const std::int64_t n = n_local * gpus_per_problem;
  const std::int64_t bound =
      std::min(core::k1_max_eq1(n, g, plan, spec),
               core::k1_max_gpus(n, plan.s13, gpus_per_problem));
  plan.s13.k = static_cast<int>(
      util::floor_pow2(static_cast<std::uint64_t>(std::max<std::int64_t>(
          1, bound))));
  return plan;
}

/// Empirical K selection for a multi-node (M, W) configuration, as the
/// paper prescribes ("for each tuple (W, V, M) possible in the system,
/// all K values from the corresponding search space are empirically
/// tested"). The candidate set is trimmed to the corners of the space --
/// K = 1, the Equation-1 bound, the Equation-2 bound (one chunk per GPU,
/// minimal MPI volume) and a midpoint -- each measured with a real
/// simulated run.
/// Declared below multinode_run; defined after it.
inline core::ScanPlan tuned_plan_multinode(int m, int w,
                                           std::span<const int> data,
                                           std::int64_t n, std::int64_t g);

/// One baseline's simulated batch time on a fresh single GPU.
inline double baseline_seconds(const std::string& name,
                               std::span<const int> data, std::int64_t n,
                               std::int64_t g) {
  simt::Device dev(0, sim::k80_spec());
  auto in = dev.alloc<std::int32_t>(n * g);
  auto out = dev.alloc<std::int32_t>(n * g);
  std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(n * g),
            in.host_span().begin());
  return baselines::baseline_by_name(name)
      .run_batch(dev, in, out, n, g, core::ScanKind::kInclusive)
      .seconds;
}

/// Scan-MPS over the first W GPUs of a fresh one-node cluster.
inline core::RunResult mps_run(int w, std::span<const int> data,
                               std::int64_t n, std::int64_t g,
                               const core::ScanPlan& plan) {
  auto cluster = topo::tsubame_kfc_cluster(1);
  std::vector<int> gpus;
  // Fill PCIe networks in order (W<=4 stays on one network, W=8 spans two).
  for (int i = 0; i < w; ++i) {
    gpus.push_back(cluster.global_id(0, i / 4, i % 4));
  }
  auto batches = core::distribute_batch<int>(cluster, gpus, data, n, g);
  return core::scan_mps<int>(cluster, gpus, batches, n, g, plan,
                             core::ScanKind::kInclusive);
}

/// Scan-MP-PC with Y networks x V GPUs on a fresh one-node cluster.
inline core::RunResult mppc_run(int y, int v, std::span<const int> data,
                                std::int64_t n, std::int64_t g,
                                const core::ScanPlan& plan) {
  auto cluster = topo::tsubame_kfc_cluster(1);
  const auto part = core::make_mppc_partition(cluster, y, v, g);
  auto batches = core::distribute_mppc<int>(cluster, part, data, n);
  return core::scan_mppc<int>(cluster, part, batches, n, plan,
                              core::ScanKind::kInclusive);
}

/// Scan-SP on one fresh GPU.
inline core::RunResult sp_run(std::span<const int> data, std::int64_t n,
                              std::int64_t g, const core::ScanPlan& plan) {
  simt::Device dev(0, sim::k80_spec());
  auto in = dev.alloc<int>(n * g);
  auto out = dev.alloc<int>(n * g);
  std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(n * g),
            in.host_span().begin());
  return core::scan_sp<int>(dev, in, out, n, g, plan,
                            core::ScanKind::kInclusive);
}

/// Multi-node Scan-MPS over M nodes x W GPUs; returns result + breakdown.
inline core::RunResult multinode_run(int m, int w, std::span<const int> data,
                                     std::int64_t n, std::int64_t g,
                                     const core::ScanPlan& plan) {
  auto cluster = topo::tsubame_kfc_cluster(m);
  std::vector<int> ids;
  for (int node = 0; node < m; ++node) {
    for (int i = 0; i < w; ++i) {
      ids.push_back(cluster.global_id(node, i / 4, i % 4));
    }
  }
  msg::Communicator comm(cluster, ids);
  auto batches = core::distribute_batch<int>(cluster, ids, data, n, g);
  return core::scan_mps_multinode<int>(comm, batches, n, g, plan,
                                       core::ScanKind::kInclusive);
}

inline core::ScanPlan tuned_plan_multinode(int m, int w,
                                           std::span<const int> data,
                                           std::int64_t n, std::int64_t g) {
  const auto spec = sim::k80_spec();
  auto plan = core::derive_spl(spec, 4).plan;
  const int gpus = m * w;
  const std::int64_t k_eq2 = util::floor_pow2(static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, core::k1_max_gpus(n, plan.s13, gpus))));
  // Power-of-two space up to the Equation-2/3 bound (every GPU keeps at
  // least one chunk). Equation 1's occupancy concern is folded in
  // empirically: candidates that starve Stage 1/2 simply measure worse.
  // Coarse x4 sweep, then a x2 refinement around the winner (the measured
  // cost curve is unimodal in K).
  const auto measure = [&](int k) {
    auto p = plan;
    p.s13.k = k;
    return multinode_run(m, w, data, n, g, p).seconds;
  };
  std::vector<int> coarse;
  for (std::int64_t k = 1; k <= k_eq2; k *= 4) {
    coarse.push_back(static_cast<int>(k));
  }
  auto r = core::autotune_k(coarse, measure);
  std::vector<int> refine;
  if (r.best_k * 2 <= k_eq2) refine.push_back(r.best_k * 2);
  if (r.best_k / 2 >= 1) refine.push_back(r.best_k / 2);
  if (!refine.empty()) {
    const auto r2 = core::autotune_k(refine, measure);
    if (r2.best_seconds < r.best_seconds) r.best_k = r2.best_k;
  }
  plan.s13.k = r.best_k;
  return plan;
}

/// Throughput in GB/s for a run of `elems` total elements (in+out bytes).
inline double gbps(std::int64_t elems, double seconds, int elem_bytes = 4) {
  return 2.0 * static_cast<double>(elems) * static_cast<double>(elem_bytes) /
         seconds / 1e9;
}

/// Typed twins of sp_run / mps_run for dtype/op sweeps. The int versions
/// above keep the exact legacy shape the i32 baselines track.
template <typename T, typename Op = core::Plus<T>>
core::RunResult sp_run_t(std::span<const T> data, std::int64_t n,
                         std::int64_t g, const core::ScanPlan& plan) {
  simt::Device dev(0, sim::k80_spec());
  auto in = dev.alloc<T>(n * g);
  auto out = dev.alloc<T>(n * g);
  std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(n * g),
            in.host_span().begin());
  return core::scan_sp<T, Op>(dev, in, out, n, g, plan,
                              core::ScanKind::kInclusive);
}

template <typename T, typename Op = core::Plus<T>>
core::RunResult mps_run_t(int w, std::span<const T> data, std::int64_t n,
                          std::int64_t g, const core::ScanPlan& plan) {
  auto cluster = topo::tsubame_kfc_cluster(1);
  std::vector<int> gpus;
  for (int i = 0; i < w; ++i) {
    gpus.push_back(cluster.global_id(0, i / 4, i % 4));
  }
  auto batches = core::distribute_batch<T>(cluster, gpus, data, n, g);
  return core::scan_mps<T, Op>(cluster, gpus, batches, n, g, plan,
                               core::ScanKind::kInclusive);
}

/// Persistent harness state for the unified API: one cluster, one
/// ScanContext (shared plan cache + workspace pool) and one executor per
/// (proposal, placement) pair, reused across every data point of a sweep.
/// This is the production calling convention the refactor introduces; the
/// *_run free functions above are the legacy per-call convention and are
/// kept for the harnesses that measure it.
class BenchContext {
 public:
  explicit BenchContext(int nodes = 1)
      : cluster_(topo::tsubame_kfc_cluster(nodes)), ctx_(cluster_) {}

  core::ScanContext& ctx() { return ctx_; }

  /// Attach a fault-injection schedule (--faults spec) to the harness
  /// cluster; every subsequent run pays the modeled resilience costs and
  /// reports them in RunResult::faults. Empty spec detaches (healthy).
  void attach_faults(const std::string& spec) {
    if (spec.empty()) {
      cluster_.set_fault_injector(nullptr);
      injector_.reset();
      return;
    }
    injector_ = std::make_unique<sim::FaultInjector>(sim::parse_fault_plan(spec));
    cluster_.set_fault_injector(injector_.get());
  }

  const sim::FaultInjector* faults() const { return injector_.get(); }

  /// The cached executor for (name, params); created on first use.
  core::ScanExecutor& executor(const std::string& name,
                               const core::ExecutorParams& params = {}) {
    const std::string key =
        name + "/d" + std::to_string(params.device) + "/w" +
        std::to_string(params.w) + "/y" + std::to_string(params.y) + "/v" +
        std::to_string(params.v) + "/m" + std::to_string(params.m) + "/p" +
        std::to_string(static_cast<int>(params.pipeline)) + "x" +
        std::to_string(params.waves) + "/" +
        core::to_string(params.dtype) + "/" + core::to_string(params.op);
    auto it = executors_.find(key);
    if (it == executors_.end()) {
      it = executors_.emplace(key, core::make_executor(name, ctx_, params))
               .first;
    }
    return *it->second;
  }

  /// prepare + run through the cached executor (scratch output buffer).
  core::RunResult run(const std::string& name,
                      const core::ExecutorParams& params,
                      std::span<const int> data, std::int64_t n,
                      std::int64_t g,
                      core::ScanKind kind = core::ScanKind::kInclusive) {
    auto& ex = executor(name, params);
    ex.prepare(n, g);
    if (static_cast<std::int64_t>(out_.size()) < n * g) {
      out_.resize(static_cast<std::size_t>(n * g));
    }
    return ex.run(data.first(static_cast<std::size_t>(n * g)),
                  std::span<int>(out_).first(static_cast<std::size_t>(n * g)),
                  kind);
  }

  /// Dtype/op-generic spelling of run(): the executor is instantiated for
  /// T's DType (params.dtype is overwritten) and the given operator tag,
  /// then driven through the erased TypedSpan entry point -- exactly the
  /// path a production caller of the erased API takes.
  template <typename T>
  core::RunResult run_typed(const std::string& name,
                            core::ExecutorParams params,
                            std::span<const T> data, std::int64_t n,
                            std::int64_t g,
                            core::ScanKind kind = core::ScanKind::kInclusive) {
    static_assert(core::dtype_of_v<T>.has_value(),
                  "run_typed: element type outside the DType matrix");
    params.dtype = *core::dtype_of_v<T>;
    auto& ex = executor(name, params);
    ex.prepare(n, g);
    auto& out = typed_out<T>();
    if (static_cast<std::int64_t>(out.size()) < n * g) {
      out.resize(static_cast<std::size_t>(n * g));
    }
    return ex.run(
        core::ConstTypedSpan::of(data.first(static_cast<std::size_t>(n * g))),
        core::TypedSpan::of(
            std::span<T>(out).first(static_cast<std::size_t>(n * g))),
        kind);
  }

 private:
  /// One scratch output vector per element type (reused across points).
  template <typename T>
  std::vector<T>& typed_out() {
    static_assert(core::dtype_of_v<T>.has_value());
    auto& slot =
        typed_out_[static_cast<std::size_t>(*core::dtype_of_v<T>)];
    if (!slot) {
      slot = std::shared_ptr<void>(new std::vector<T>(),
                                   [](void* p) {
                                     delete static_cast<std::vector<T>*>(p);
                                   });
    }
    return *static_cast<std::vector<T>*>(slot.get());
  }

  topo::Cluster cluster_;
  core::ScanContext ctx_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::map<std::string, std::unique_ptr<core::ScanExecutor>> executors_;
  std::vector<int> out_;
  std::array<std::shared_ptr<void>, core::kNumDTypes> typed_out_;
};

}  // namespace mgs::bench
