#pragma once
/// \file plan.hpp
/// Kernel execution plans -- the (s, p, l, K) tuples of the paper's Table 2
/// -- plus batch layout arithmetic and the RunResult every proposal returns.

#include <cstdint>
#include <string>

#include "mgs/obs/metrics.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/sim/timeline.hpp"
#include "mgs/simt/types.hpp"
#include "mgs/util/check.hpp"
#include "mgs/util/math.hpp"

namespace mgs::core {

/// Per-kernel tuning parameters (values, not exponents; all powers of two).
/// For stages 1 and 3: ly == 1 and every thread of a block works on one
/// chunk. For stage 2: lx is one warp and ly packs several problems per
/// block, exactly as Section 3.1 prescribes.
struct StagePlan {
  int p = 8;    ///< P: elements per thread per iteration
  int lx = 128; ///< L_x: threads per block on the same problem
  int ly = 1;   ///< L_y: problems per block
  int k = 1;    ///< K: cascade iterations per block

  int threads() const { return lx * ly; }
  int warps() const {
    return static_cast<int>(util::div_up(
        static_cast<std::uint64_t>(threads()), simt::kWarpSize));
  }
  /// Elements one block covers per cascade iteration.
  std::int64_t tile() const { return static_cast<std::int64_t>(p) * lx; }
  /// Chunk size: K * Lx * P (Section 3.1).
  std::int64_t chunk() const { return static_cast<std::int64_t>(k) * tile(); }

  /// Declared register usage. Model (documented in DESIGN.md): each of the
  /// P register-resident elements costs ~6 registers of live state across
  /// the scan (value + scanned value + address math), plus a fixed 16 for
  /// indices and loop bookkeeping. Yields exactly the paper's choice:
  /// p = 3 (P = 8) is the largest P with <= 64 registers on cc 3.7.
  int regs_per_thread() const { return 6 * p + 16; }

  /// Shared memory: one element per warp (shuffle-based warp scans need
  /// shared memory only for inter-warp partials; s <= 5 per Section 3.1).
  std::int64_t smem_bytes(int elem_bytes) const {
    return static_cast<std::int64_t>(warps()) * elem_bytes;
  }

  // Exponent views (the paper names parameters by their log2).
  int p_log2() const { return util::ilog2(static_cast<std::uint64_t>(p)); }
  int l_log2() const {
    return util::ilog2(static_cast<std::uint64_t>(threads()));
  }
  int s_log2() const {
    return util::ilog2(util::ceil_pow2(static_cast<std::uint64_t>(warps())));
  }

  /// Throws util::Error unless all fields are positive powers of two and
  /// lx is warp-aligned.
  void validate() const;
};

/// Stream-pipeline shape for the multi-GPU paths. When overlap is on, the
/// executors replace the bulk-synchronous barriers between Stage 1, the aux
/// gather, Stage 2, the prefix scatter and Stage 3 with per-device
/// event-driven dependencies, and split the batch dimension G into `waves`
/// pipelined sub-batches so communication of wave v overlaps compute of
/// wave v+1 (Premise-3-style cost-model pick in core::pick_wave_count).
/// Default-constructed plans keep overlap off: legacy call sites are
/// bit-identical in both results and modeled times.
struct PipelinePlan {
  bool overlap = false;  ///< event-driven pipeline instead of barriers
  int waves = 1;         ///< batch-dimension sub-batches (>= 1)
};

/// Full plan for the three-kernel pipeline. Stages 1 and 3 share a plan
/// (B_x^1 = B_x^3, same SM resources -- Section 3.1); stage 2 has its own.
struct ScanPlan {
  StagePlan s13;
  StagePlan s2;
  PipelinePlan pipe;

  void validate() const;
  std::string describe() const;
};

/// User-facing override for the pipeline choice, carried by executor
/// factories: kAuto defers to the planner (overlap on for multi-GPU plans,
/// cost-model wave count), kSync forces the bulk-synchronous schedule,
/// kOverlap forces the pipeline on.
enum class PipelineMode {
  kAuto,
  kSync,
  kOverlap,
};

struct PipelineChoice {
  PipelineMode mode = PipelineMode::kAuto;
  int waves = 0;  ///< 0 = planner-chosen; > 0 overrides the wave count
};

/// Apply a user override on top of a planned ScanPlan.
ScanPlan apply_pipeline_choice(ScanPlan plan, const PipelineChoice& choice);

/// Geometry of one batch on one GPU: G problem portions of n_local
/// elements, each split into bx chunks.
struct BatchLayout {
  std::int64_t n_local = 0;  ///< elements per problem portion on this GPU
  std::int64_t g = 0;        ///< number of problems (B_y^1)
  std::int64_t chunk = 0;    ///< chunk size in elements
  std::int64_t bx = 0;       ///< chunks per portion (B_x^1)

  std::int64_t elems_per_gpu() const { return n_local * g; }
  std::int64_t aux_elems() const { return bx * g; }
};

/// Compute the layout; bx = ceil(n_local / chunk) so non-power-of-two
/// problem sizes produce a final partial chunk rather than an error.
BatchLayout make_layout(std::int64_t n_local, std::int64_t g,
                        const StagePlan& s13);

/// Result of one simulated proposal run.
struct RunResult {
  double seconds = 0.0;          ///< simulated makespan of the whole scan
  std::uint64_t payload_bytes = 0;  ///< bytes read + written of problem data
  sim::Breakdown breakdown;      ///< per-phase accounting (Figure 14)
  sim::FaultReport faults;       ///< resilience costs; empty when healthy
  /// Metrics recorded during this run when an obs::TraceSession was
  /// installed (empty otherwise): transfer/kernel/plan-cache counters.
  obs::MetricsSnapshot metrics;

  /// Effective throughput: problem bytes moved per second of simulated
  /// time (N*G elements read and written once). Throws util::Error on a
  /// zero-time run so harnesses can report the bad configuration instead
  /// of aborting.
  double throughput_bps() const {
    MGS_REQUIRE(seconds > 0.0, "throughput of zero-time run");
    return static_cast<double>(payload_bytes) / seconds;
  }
  double throughput_gbps() const { return throughput_bps() / 1e9; }
};

}  // namespace mgs::core
