#pragma once
/// \file scan_multinode.hpp
/// Multi-node Scan-MPS (Section 4.1, multi-node paragraph): one MPI rank
/// per GPU across M nodes; the chunk reductions travel to rank 0 with
/// MPI_Gather, Stage 2 runs on the master GPU, MPI_Scatter returns the
/// scanned prefixes, and barriers bracket the pipeline. Everything but the
/// fabric is Scan-MPS's one body (detail::scan_mps_cells).

#include <vector>

#include "mgs/core/kernels.hpp"
#include "mgs/core/scan_mps.hpp"
#include "mgs/msg/comm.hpp"

namespace mgs::core {

namespace detail {

/// Multi-node Scan-MPS's fabric: the communicator over its ranks. The
/// master's aux array is rank-major ([r][g][c], matching MPI_Gather), so
/// one wave of one rank is contiguous. The synchronous schedule moves all
/// cells with one MPI_Gather / MPI_Scatter; the overlapped one sends each
/// cell by MPI_Isend on the endpoints' DMA engines. Entry/exit barriers
/// bracket the pipeline ("After synchronizing all MPI processes, the first
/// stage is executed.") and share one MPI_Barrier row.
template <typename T>
struct MpiFabric {
  static constexpr bool kCollectives = true;
  static constexpr const char* kGather = "MPI_Gather";
  static constexpr const char* kScatter = "MPI_Scatter";

  MpiFabric(msg::Communicator& comm, const BatchLayout& lay)
      : comm(comm), cluster(comm.cluster()), bx(lay.bx), g(lay.g) {
    for (int r = 0; r < comm.size(); ++r) devices.push_back(comm.device_of(r));
    comm.reset_breakdown();
    comm.reset_fault_counters();
  }

  msg::Communicator& comm;
  topo::Cluster& cluster;
  std::vector<int> devices;  ///< rank -> device; rank 0 is the master
  std::int64_t bx;
  std::int64_t g;

  const sim::FaultCounters& fault_counters() const {
    return comm.fault_counters();
  }
  template <typename Op>
  void scan(simt::Device& master, simt::DeviceBuffer<T>& all,
            const StagePlan& s2, Op op, std::int64_t g0, std::int64_t rows,
            std::int64_t c0, std::int64_t cols, simt::DeviceBuffer<T>* carry) {
    launch_intermediate_scan_ranked(master, all, bx, comm.size(), g, s2, op,
                                    g0, rows, c0, cols, carry);
  }
  /// One message per cell (only the overlapped schedule moves single
  /// cells, so it never blocks).
  simt::Event move(bool gather, int r, simt::DeviceBuffer<T>& local,
                   simt::DeviceBuffer<T>& all, std::int64_t g0,
                   std::int64_t rows, simt::Event ready, bool) {
    const std::int64_t at = r * g * bx + g0 * bx;
    return gather ? comm.isend(r, 0, local, g0 * bx, all, at, rows * bx, ready)
                  : comm.isend(0, r, all, at, local, g0 * bx, rows * bx,
                               ready);
  }
  simt::Event move_all(bool gather,
                       std::vector<WorkspacePool::Handle<T>>& locals,
                       simt::DeviceBuffer<T>& all) {
    std::vector<msg::Slice<T>> s;
    for (auto& h : locals) s.push_back({&h.buffer(), 0, g * bx});
    return {gather ? comm.gather(0, s, all, 0) : comm.scatter(0, all, 0, s)};
  }
  template <typename Front>
  double enter(double t0, Front&& front) {
    return barrier("EntryBarrier", t0, front);
  }
  template <typename Front>
  double leave(double t_stage3, double entry, sim::Breakdown& rows,
               Front&& front) {
    const double t_end = barrier("ExitBarrier", t_stage3, front);
    rows.add("MPI_Barrier", entry + (t_end - t_stage3));
    return t_end;
  }
  template <typename Front>
  double barrier(const char* stage, double t, Front& front) {
    auto span = obs::open_stage(stage, t);
    comm.barrier();
    const double t_out = front();
    span.close(t_out);
    return t_out;
  }
};

}  // namespace detail

/// Run the multi-node proposal over the communicator's M*W ranks.
/// `batches[r]` follows the distribute_batch layout for rank r (portion r
/// of every problem). Returns makespan + breakdown including the MPI
/// communication (the data behind Figure 14).
///
/// Every breakdown entry is a window cut on the global compute front (or
/// the last prefix arrival), NOT the communicator's master-dwell numbers:
/// dwell is measured from the master's own entry clock, which lags the
/// front whenever a compute straggler stretches Stage 1, and a "combined
/// window minus dwell" subtraction then goes negative. PipelinePins'
/// straggler cases pin the skewed accounting.
template <typename T, typename Op = Plus<T>>
RunResult scan_mps_multinode(msg::Communicator& comm,
                             std::vector<GpuBatch<T>>& batches,
                             std::int64_t n, std::int64_t g,
                             const ScanPlan& plan, ScanKind kind, Op op = {},
                             WorkspacePool* ws = nullptr) {
  plan.validate();
  const int ranks = comm.size();
  MGS_REQUIRE(static_cast<int>(batches.size()) == ranks,
              "scan_mps_multinode: one batch per rank required");
  MGS_REQUIRE(n % ranks == 0, "scan_mps_multinode: N must divide by M*W");
  const BatchLayout lay = make_layout(n / ranks, g, plan.s13);
  detail::MpiFabric<T> fab(comm, lay);
  return detail::scan_mps_cells<T>(fab, batches, lay, plan, kind, op, ws,
                                   nullptr);
}

}  // namespace mgs::core
