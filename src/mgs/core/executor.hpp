#pragma once
/// \file executor.hpp
/// The unified proposal interface. Each of the paper's five proposals
/// (Scan-SP, Scan-MPS, Scan-MPS-direct, Scan-MP-PC, multi-node Scan-MPS)
/// is wrapped in a ScanExecutor that draws its plan from the ScanContext's
/// memoized cache and its device staging/auxiliary buffers from the
/// context's WorkspacePool, so repeated invocations pay neither re-tuning
/// nor re-allocation (the clppScan / LightScan "construct once, scan many"
/// shape).
///
/// Element type and operator are erased over the (DType, OpTag) matrix of
/// dtype.hpp: run() takes TypedSpan carriers and the factories take a
/// (dtype, op) pair that selects the fully templated executor
/// instantiation from a dispatch table at construction. Dispatch happens
/// exactly once -- after construction the hot path runs the same
/// monomorphic kernels a hand-instantiated scan_sp<T, Op> call would, with
/// no per-element or per-call type dispatch. Typed std::span convenience
/// overloads wrap the erasure so callers that know their type statically
/// (including every pre-refactor caller) compile unchanged.
///
/// Protocol: prepare(n, g) places the run and derives/caches the plan for
/// the shape (idempotent for an unchanged shape; it holds no device
/// memory); run() leases one staging buffer per placed device from the
/// pool, scans G host problems of N contiguous elements in place through
/// them into `out`, returns the leases and the simulated RunResult.
/// run() resets the cluster clocks, so repeated runs of one shape report
/// identical modeled times (determinism).
///
/// Degraded mode: when the cluster carries a sim::FaultInjector, prepare()
/// places the run on the surviving GPUs only, and both prepare() and run()
/// re-place automatically when the injector's liveness epoch moves (a
/// device died or recovered since the cached placement). A shrunk
/// placement re-plans -- Scan-MPS picks the largest surviving W that still
/// divides N, Scan-MP-PC repartitions its groups from the alive GPUs of
/// each PCIe network, the multi-node proposal drops dead ranks -- and
/// every proposal collapses to Scan-SP when a single device remains. The
/// RunResult's FaultReport records the degradation (excluded devices,
/// re-planned placement, invalidated plan-cache entries).

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "mgs/core/dtype.hpp"
#include "mgs/core/op.hpp"
#include "mgs/core/plan.hpp"
#include "mgs/core/scan_context.hpp"
#include "mgs/obs/span.hpp"

namespace mgs::core {

class ScanExecutor {
 public:
  virtual ~ScanExecutor() = default;

  /// Registry name ("Scan-SP", "Scan-MPS", ...).
  virtual std::string name() const = 0;
  /// Human-readable configuration: proposal, GPU placement, element
  /// type/operator, cached plan. Most detailed after prepare().
  virtual std::string describe() const = 0;

  /// Set up for G problems of N elements: placement and plan lookup (cache
  /// hit after the first call for a shape). Throws util::Error for shapes
  /// the proposal cannot place. Idempotent when the shape is unchanged;
  /// re-prepares when it differs.
  virtual void prepare(std::int64_t n, std::int64_t g) = 0;

  /// Scan problem g of `in` (at offset g*N) into the same region of `out`.
  /// Requires prepare(); spans must hold N*G elements and their dtype must
  /// match the executor's (checked once per call -- never reinterpreted
  /// silently). Clocks are reset, so the result is a function of the
  /// shape alone.
  virtual RunResult run(ConstTypedSpan in, TypedSpan out, ScanKind kind) = 0;

  /// Typed convenience overloads over the erased entry point, one per
  /// DType so implicit conversions (std::vector<T> -> std::span<const T>)
  /// keep working at existing call sites.
  RunResult run(std::span<const std::int32_t> in, std::span<std::int32_t> out,
                ScanKind kind) {
    return run(ConstTypedSpan::of(in), TypedSpan::of(out), kind);
  }
  RunResult run(std::span<const std::int64_t> in, std::span<std::int64_t> out,
                ScanKind kind) {
    return run(ConstTypedSpan::of(in), TypedSpan::of(out), kind);
  }
  RunResult run(std::span<const std::uint32_t> in,
                std::span<std::uint32_t> out, ScanKind kind) {
    return run(ConstTypedSpan::of(in), TypedSpan::of(out), kind);
  }
  RunResult run(std::span<const float> in, std::span<float> out,
                ScanKind kind) {
    return run(ConstTypedSpan::of(in), TypedSpan::of(out), kind);
  }
  RunResult run(std::span<const double> in, std::span<double> out,
                ScanKind kind) {
    return run(ConstTypedSpan::of(in), TypedSpan::of(out), kind);
  }

  std::int64_t prepared_n() const { return n_; }
  std::int64_t prepared_g() const { return g_; }

  /// Element type / operator this instantiation runs (the scalar identity
  /// for the internal segmented path, which packs SegPair elements).
  DType dtype() const { return dtype_; }
  OpTag op() const { return op_; }
  bool segmented() const { return segmented_; }

 protected:
  /// Shared argument checking for run() implementations (counts only; the
  /// dtype check already happened in the TypedSpan recovery).
  void require_ready(std::int64_t in_count, std::int64_t out_count) const;

  /// The context plan-cache key for this executor's element type and
  /// operator at the given shape.
  PlanKey plan_key(const ScanContext& ctx, std::int64_t n, std::int64_t g,
                   int gpus_per_problem) const;

  /// " [i32/plus]"-style suffix for describe().
  std::string type_suffix() const;

  /// Copy the placement-time degradation record into a run's report
  /// (counters stay whatever the proposal accumulated).
  void stamp_report(RunResult& r) const;

  /// Open the kRun span for this run (simulated t = 0, i.e. the clock
  /// reset), with a kPlan child describing the placement and -- for a
  /// degraded placement -- kFault "replan" children. Inactive (and free
  /// beyond one branch) when no TraceSession is installed.
  obs::ScopedSpan trace_run() const;
  /// The kPlan span of the current placement and, when degraded, its
  /// kFault "replan" span: trace_run emits them once, and a restart that
  /// re-placed emits them again.
  void trace_placement() const;
  /// Close the run span at the run's makespan and snapshot the session's
  /// metrics into r.metrics. Call after stamp_report on every return path.
  void finish_run(obs::ScopedSpan& span, RunResult& r) const;

  std::int64_t n_ = 0;  ///< prepared shape; 0 = not prepared
  std::int64_t g_ = 0;
  std::uint64_t fault_epoch_ = 0;   ///< liveness epoch of the placement
  sim::FaultReport prep_report_;    ///< degradation recorded at prepare()
  DType dtype_ = DType::kI32;       ///< set by TypedScanExecutor
  OpTag op_ = OpTag::kPlus;
  bool segmented_ = false;
};

/// Scan-SP on one device of the context's cluster, instantiated for
/// (dtype, op) via the dispatch table.
std::unique_ptr<ScanExecutor> make_sp_executor(ScanContext& ctx,
                                               int device_id = 0,
                                               DType dtype = DType::kI32,
                                               OpTag op = OpTag::kPlus);

/// Scan-MPS over `w` GPUs of node 0 (0 = every GPU of the node). With
/// `direct`, Stage 1 peer-writes straight into the master's auxiliary
/// array (requires all GPUs on one PCIe network). `pipe` overrides the
/// planner's pipeline choice (kSync forces the synchronous stage path,
/// kOverlap the event-driven one; waves > 0 pins the wave count).
std::unique_ptr<ScanExecutor> make_mps_executor(ScanContext& ctx, int w = 0,
                                                bool direct = false,
                                                PipelineChoice pipe = {},
                                                DType dtype = DType::kI32,
                                                OpTag op = OpTag::kPlus);

/// Scan-MP-PC: `y` PCIe networks per node on `m` nodes, `v` GPUs from
/// each (0 = hardware maximum). `pipe` as for make_mps_executor.
std::unique_ptr<ScanExecutor> make_mppc_executor(ScanContext& ctx, int y = 0,
                                                 int v = 0, int m = 1,
                                                 PipelineChoice pipe = {},
                                                 DType dtype = DType::kI32,
                                                 OpTag op = OpTag::kPlus);

/// Multi-node Scan-MPS over `m` nodes with `w` GPUs each via the MPI-like
/// communicator (0 = whole cluster). `pipe` as for make_mps_executor.
std::unique_ptr<ScanExecutor> make_multinode_executor(
    ScanContext& ctx, int m = 0, int w = 0, PipelineChoice pipe = {},
    DType dtype = DType::kI32, OpTag op = OpTag::kPlus);

}  // namespace mgs::core
