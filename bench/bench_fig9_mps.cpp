/// bench_fig9_mps: reproduce Figure 9 -- Scan-MPS throughput for
/// W in {1, 2, 4, 8} GPUs, solving `total` elements split into
/// G = total/N problems for each N = 2^n.
///
/// Expected shape (paper): throughput scales with W for W <= 4 (all GPUs
/// on one PCIe network, P2P only); W = 8 drops markedly at small n (many
/// per-problem auxiliary rows staged through host memory) and recovers as
/// n grows and G shrinks.
///
/// --dtype/--op sweep the same figure over the erased executor matrix
/// (e.g. --dtype f64 --op max); non-default configs write their JSON
/// artifacts with a _<dtype>_<op> suffix so the i32/plus baselines the CI
/// gate tracks are never clobbered.

#include <filesystem>
#include <fstream>

#include "common.hpp"

using namespace mgs;

namespace {

/// One (n, W) point run under the --faults schedule, compared against the
/// healthy run of the same point.
struct FaultPoint {
  int nlog = 0;
  int w = 0;
  double healthy_s = 0.0;
  double faulted_s = 0.0;
  std::string error;
  sim::FaultReport report;
};

void write_faults_report(const bench::BenchConfig& cfg,
                         const std::vector<FaultPoint>& points) {
  std::filesystem::create_directories("bench_results");
  std::ofstream os("bench_results/bench_fig9_mps_faults" + cfg.file_suffix() +
                   ".json");
  os << "{\n"
     << "  \"bench\": \"bench_fig9_mps\",\n"
     << "  \"dtype\": \"" << cfg.dtype_name() << "\",\n"
     << "  \"op\": \"" << cfg.op_name() << "\",\n"
     << "  \"faults\": \"" << cfg.faults << "\",\n"
     << "  \"units\": {\"time\": \"simulated seconds\"},\n"
     << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const auto& f = p.report.counters;
    os << "  {\"nlog\": " << p.nlog << ", \"w\": " << p.w
       << ", \"healthy_s\": " << p.healthy_s
       << ", \"faulted_s\": " << p.faulted_s << ", \"overhead_pct\": "
       << (p.error.empty() && p.healthy_s > 0.0
               ? (p.faulted_s / p.healthy_s - 1.0) * 100.0
               : 0.0)
       << ", \"retries\": " << f.retries
       << ", \"timeouts\": " << f.timeouts
       << ", \"corruptions_detected\": " << f.corruptions_detected
       << ", \"rerouted_transfers\": " << f.rerouted_transfers
       << ", \"rerouted_bytes\": " << f.rerouted_bytes
       << ", \"retry_seconds\": " << f.retry_seconds
       << ", \"degraded\": " << (p.report.degraded ? "true" : "false")
       << ", \"degraded_mode\": \"" << p.report.degraded_mode << "\""
       << ", \"error\": \"" << p.error << "\"}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

/// One (n, W) point of the overlapped pipeline against the synchronous
/// stage path (same executor cache, same plans apart from the pipeline).
struct OverlapPoint {
  int nlog = 0;
  int w = 0;
  int waves = 1;
  double sync_s = 0.0;
  double overlap_s = 0.0;
  double reduction_pct() const {
    return sync_s > 0.0 ? (1.0 - overlap_s / sync_s) * 100.0 : 0.0;
  }
};

void write_overlap_report(const bench::BenchConfig& cfg,
                          const std::vector<OverlapPoint>& points) {
  std::filesystem::create_directories("bench_results");
  std::ofstream os("bench_results/bench_fig9_overlap" + cfg.file_suffix() +
                   ".json");
  os << "{\n"
     << "  \"bench\": \"bench_fig9_mps\",\n"
     << "  \"dtype\": \"" << cfg.dtype_name() << "\",\n"
     << "  \"op\": \"" << cfg.op_name() << "\",\n"
     << "  \"comparison\": \"overlapped pipeline vs synchronous stages\",\n"
     << "  \"units\": {\"time\": \"simulated seconds\"},\n"
     << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    os << "  {\"nlog\": " << p.nlog << ", \"w\": " << p.w
       << ", \"waves\": " << p.waves << ", \"sync_s\": " << p.sync_s
       << ", \"overlap_s\": " << p.overlap_s
       << ", \"reduction_pct\": " << p.reduction_pct() << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

/// The Figure-9 sweep, monomorphic in the element type; the operator
/// stays a runtime tag because the erased executor path carries it.
template <typename T>
int run_sweep(const bench::BenchConfig& cfg) {
  const std::int64_t total = std::int64_t{1} << cfg.total_log2;
  // The i32 seed stream is dropped once converted: the sweep holds one
  // copy of its input.
  const std::vector<T> data = [&] {
    const auto seed =
        util::random_i32(static_cast<std::size_t>(total), cfg.seed);
    return std::vector<T>(seed.begin(), seed.end());
  }();
  std::printf(
      "Figure 9 reproduction -- Scan-MPS, G = 2^%d / N, GB/s [%s/%s]\n",
      cfg.total_log2, cfg.dtype_name(), cfg.op_name());

  // One cluster + context for the whole sweep: every (W) keeps its
  // executor, the plan cache carries across points and the workspace pool
  // eliminates per-point allocations (the unified-API calling convention).
  bench::BenchContext bc(1);

  // A second harness carries the fault schedule when --faults is given;
  // the primary sweep stays healthy so the table is unchanged.
  bench::BenchContext bc_faulted(1);
  if (!cfg.faults.empty()) bc_faulted.attach_faults(cfg.faults);
  std::vector<FaultPoint> fault_points;

  const int elem_bytes = core::dtype_bytes(cfg.dtype);
  util::Table table({"n", "G", "W=1", "W=2", "W=4", "W=8"});
  std::vector<double> w8_over_w4;
  std::vector<OverlapPoint> overlap_points;
  for (int nlog = cfg.min_n_log2; nlog <= cfg.total_log2; ++nlog) {
    const std::int64_t n = std::int64_t{1} << nlog;
    const std::int64_t g = total / n;
    std::vector<std::string> row = {std::to_string(nlog), std::to_string(g)};
    double t4 = 0.0;
    for (int w : {1, 2, 4, 8}) {
      if (n % w != 0) {
        row.push_back("-");
        continue;
      }
      const auto r = bc.run_typed<T>("Scan-MPS", {.w = w, .op = cfg.op},
                                     std::span<const T>(data), n, g);
      row.push_back(
          util::fmt_double(bench::gbps(total, r.seconds, elem_bytes), 2));
      if (w == 4) t4 = r.seconds;
      if (w == 8 && t4 > 0.0) w8_over_w4.push_back(t4 / r.seconds);
      bench::record_history(cfg, "Scan-MPS", n, g, w, "overlap", r);
      if (w > 1 && g > 1) {
        // Same point on the forced-synchronous stage path: the overlap
        // comparison the pipeline doc quotes.
        const auto rs = bc.run_typed<T>(
            "Scan-MPS",
            {.w = w, .pipeline = core::PipelineMode::kSync, .op = cfg.op},
            std::span<const T>(data), n, g);
        OverlapPoint p;
        p.nlog = nlog;
        p.w = w;
        p.waves = bc.ctx().plan_for(n, g, cfg.dtype, cfg.op, w).pipe.waves;
        p.sync_s = rs.seconds;
        p.overlap_s = r.seconds;
        overlap_points.push_back(p);
        bench::record_history(cfg, "Scan-MPS", n, g, w, "sync", rs);
      }
      if (!cfg.faults.empty()) {
        FaultPoint p;
        p.nlog = nlog;
        p.w = w;
        p.healthy_s = r.seconds;
        try {
          const auto rf =
              bc_faulted.run_typed<T>("Scan-MPS", {.w = w, .op = cfg.op},
                                      std::span<const T>(data), n, g);
          p.faulted_s = rf.seconds;
          p.report = rf.faults;
        } catch (const util::Error& e) {
          p.error = e.what();
        }
        fault_points.push_back(std::move(p));
      }
    }
    table.add_row(std::move(row));
  }
  bench::print_table(table, cfg);

  if (!cfg.faults.empty()) {
    write_faults_report(cfg, fault_points);
    double worst = 0.0;
    for (const auto& p : fault_points) {
      if (p.error.empty() && p.healthy_s > 0.0) {
        worst = std::max(worst, (p.faulted_s / p.healthy_s - 1.0) * 100.0);
      }
    }
    std::printf(
        "\nResilience overhead under '%s': worst point +%.1f%% simulated "
        "time -> bench_results/bench_fig9_mps_faults%s.json\n",
        cfg.faults.c_str(), worst, cfg.file_suffix().c_str());
  }

  if (!overlap_points.empty()) {
    write_overlap_report(cfg, overlap_points);
    double w4_sum = 0.0;
    double w4_min = 1e300;
    int w4_count = 0;
    for (const auto& p : overlap_points) {
      if (p.w != 4) continue;
      w4_sum += p.reduction_pct();
      w4_min = std::min(w4_min, p.reduction_pct());
      ++w4_count;
    }
    if (w4_count > 0) {
      std::printf(
          "\nOverlapped pipeline vs synchronous stages (W=4): mean "
          "-%.1f%%, min -%.1f%% modeled makespan -> "
          "bench_results/bench_fig9_overlap%s.json\n",
          w4_sum / w4_count, w4_min, cfg.file_suffix().c_str());
    }
  }

  std::printf(
      "\nShape checks vs the paper:\n"
      "  W=8/W=4 relative throughput at smallest n: %.2f (paper: well below "
      "1, host staging)\n"
      "  W=8/W=4 relative throughput at largest  n: %.2f (paper: recovers "
      "towards/above 1)\n",
      w8_over_w4.front(), w8_over_w4.back());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = bench::parse_bench_config(
      argc, argv,
      "Reproduces Figure 9: Scan-MPS throughput vs problem size for "
      "W in {1,2,4,8}. --dtype/--op select the element type and operator.");

  switch (cfg.dtype) {
    case core::DType::kI32: return run_sweep<std::int32_t>(cfg);
    case core::DType::kI64: return run_sweep<std::int64_t>(cfg);
    case core::DType::kU32: return run_sweep<std::uint32_t>(cfg);
    case core::DType::kF32: return run_sweep<float>(cfg);
    case core::DType::kF64: return run_sweep<double>(cfg);
  }
  return 1;
}
