#pragma once
/// \file scan_multinode.hpp
/// Multi-node Scan-MPS (Section 4.1, multi-node paragraph): one MPI rank
/// per GPU across M nodes; the chunk reductions travel to rank 0 with
/// MPI_Gather, Stage 2 runs on the master GPU, MPI_Scatter returns the
/// scanned prefixes, and barriers bracket the pipeline.

#include <vector>

#include "mgs/core/kernels.hpp"
#include "mgs/core/scan_mps.hpp"
#include "mgs/msg/comm.hpp"

namespace mgs::core {

/// Run the multi-node proposal over the communicator's M*W ranks.
/// `batches[r]` follows the distribute_batch layout for rank r (portion r
/// of every problem). Returns makespan + breakdown including the MPI
/// communication (the data behind Figure 14).
///
/// The same (wave, rank) cell body as scan_mps, over the rank-major
/// combined array (rank r's rows at offset r*g*bx, matching MPI_Gather,
/// so one wave of one rank is a contiguous region) and the communicator
/// instead of the transfer engine. The synchronous schedule (no overlap,
/// or a single rank) moves the chunk reductions with the blocking
/// MPI_Gather/MPI_Scatter collectives and cuts a stage after each; the
/// overlapped one sends every (wave, rank) cell by MPI_Isend on the
/// endpoints' DMA engines, gated on its producer's event, and scans one
/// rank's column group per wave with the running row carry. Both apply
/// the operator in ascending rank order per row, so results are
/// bit-identical. Entry/exit barriers bracket the pipeline ("After
/// synchronizing all MPI processes, the first stage is executed.").
///
/// Every breakdown entry is a [stage boundary, stage boundary] window cut
/// on the global compute front (or the last prefix arrival), NOT the
/// communicator's master-dwell numbers: dwell is measured from the
/// master's own entry clock, which lags the front whenever a compute
/// straggler stretches Stage 1, and a "combined window minus dwell"
/// subtraction then goes negative. With homogeneous ranks (every healthy
/// run) both accountings coincide.
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
  const std::int64_t n_local = n / ranks;
  const BatchLayout lay = make_layout(n_local, g, plan.s13);
  const detail::Schedule sched = detail::schedule_of(plan.pipe, ranks, g);
  const int k = sched.waves;
  const auto wave_begin = [&](int v) { return (g * v) / k; };

  topo::Cluster& cluster = comm.cluster();
  RunResult result;
  result.payload_bytes = 2ull * static_cast<std::uint64_t>(n) * g * sizeof(T);
  comm.reset_breakdown();
  comm.reset_fault_counters();

  auto compute_front = [&] {
    double t = 0.0;
    for (int r = 0; r < ranks; ++r) {
      t = std::max(t, cluster.device(comm.device_of(r)).clock().now());
    }
    return t;
  };
  double t0 = compute_front();
  if (!sched.sync) {
    for (int r = 0; r < ranks; ++r) {
      t0 = std::max(t0, cluster.device(comm.device_of(r)).dma_clock().now());
    }
  }

  simt::Device& master = cluster.device(comm.device_of(0));
  auto aux_all = acquire_workspace<T>(
      ws, master, static_cast<std::int64_t>(ranks) * g * lay.bx);
  WorkspacePool::Handle<T> carry;
  if (!sched.sync) carry = acquire_workspace<T>(ws, master, g);
  std::vector<WorkspacePool::Handle<T>> aux_local;
  aux_local.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    aux_local.push_back(acquire_workspace<T>(
        ws, cluster.device(comm.device_of(r)), lay.aux_elems()));
  }

  auto entry_stage = obs::open_stage("EntryBarrier", t0);
  comm.barrier();
  double boundary = compute_front();
  const double t_sync = boundary;
  entry_stage.close(t_sync);
  const auto window = [&](const char* name, int device, auto body) {
    detail::stage_window(result.breakdown, boundary, compute_front(), name,
                         device, body);
  };

  const auto cell = [ranks](int v, int r) {
    return static_cast<std::size_t>(v * ranks + r);
  };
  const auto cells = static_cast<std::size_t>(k * ranks);
  std::vector<simt::Event> ev_s1(cells);
  std::vector<simt::Event> ev_gather(cells);
  std::vector<simt::Event> ev_scatter(cells);
  // One wave of rank r's rows: its offset in the rank-major array.
  const auto region = [&](int v, int r) {
    return static_cast<std::int64_t>(r) * g * lay.bx + wave_begin(v) * lay.bx;
  };
  simt::Stream master_stream(master);
  const int group = sched.sync ? ranks : 1;
  const auto scan_group = [&](int v, int r0) {
    for (int r = r0; r < r0 + group; ++r) {
      master_stream.wait(ev_gather[cell(v, r)]);
    }
    const std::int64_t g0 = wave_begin(v);
    launch_intermediate_scan_ranked(
        master, aux_all.buffer(), lay.bx, ranks, g, plan.s2, op, g0,
        wave_begin(v + 1) - g0, r0 * lay.bx, group * lay.bx,
        sched.sync ? nullptr : &carry.buffer());
  };

  // ---- Stage 1 on every rank, per wave.
  window("Stage1", -1, [&] {
    for (int r = 0; r < ranks; ++r) {
      simt::Stream s(cluster.device(comm.device_of(r)));
      for (int v = 0; v < k; ++v) {
        const std::int64_t g0 = wave_begin(v);
        launch_chunk_reduce(s.device(), batches[static_cast<std::size_t>(r)].in,
                            aux_local[static_cast<std::size_t>(r)].buffer(),
                            lay, plan.s13, op, g0, wave_begin(v + 1) - g0);
        ev_s1[cell(v, r)] = s.record();
      }
    }
    return compute_front();
  });

  // ---- Gather, Stage 2, scatter.
  if (sched.sync) {
    std::vector<msg::Slice<T>> slices;
    for (int r = 0; r < ranks; ++r) {
      slices.push_back({&aux_local[static_cast<std::size_t>(r)].buffer(), 0,
                        lay.aux_elems()});
    }
    window("MPI_Gather", -1, [&] {
      ev_gather.assign(cells, {comm.gather(0, slices, aux_all.buffer(), 0)});
      return compute_front();
    });
    window("Stage2", comm.device_of(0), [&] {
      scan_group(0, 0);  // the one wave's one group
      return compute_front();
    });
    window("MPI_Scatter", -1, [&] {
      ev_scatter.assign(cells, {comm.scatter(0, aux_all.buffer(), 0, slices)});
      return compute_front();
    });
  } else {
    window("Stage2+Comm", -1, [&] {
      for (int v = 0; v < k; ++v) {
        for (int r = 0; r < ranks; ++r) {
          ev_gather[cell(v, r)] = comm.isend(
              r, 0, aux_local[static_cast<std::size_t>(r)].buffer(),
              wave_begin(v) * lay.bx, aux_all.buffer(), region(v, r),
              (wave_begin(v + 1) - wave_begin(v)) * lay.bx, ev_s1[cell(v, r)]);
        }
      }
      double t_out = 0.0;
      for (int v = 0; v < k; ++v) {
        for (int r = 0; r < ranks; ++r) {
          scan_group(v, r);
          ev_scatter[cell(v, r)] = comm.isend(
              0, r, aux_all.buffer(), region(v, r),
              aux_local[static_cast<std::size_t>(r)].buffer(),
              wave_begin(v) * lay.bx,
              (wave_begin(v + 1) - wave_begin(v)) * lay.bx,
              master_stream.record());
          t_out = std::max(t_out, ev_scatter[cell(v, r)].seconds);
        }
      }
      return t_out;
    });
  }

  // ---- Stage 3 per rank per wave, gated on the prefix arrival.
  window("Stage3", -1, [&] {
    for (int r = 0; r < ranks; ++r) {
      simt::Stream s(cluster.device(comm.device_of(r)));
      for (int v = 0; v < k; ++v) {
        const std::int64_t g0 = wave_begin(v);
        s.wait(ev_scatter[cell(v, r)]);
        launch_scan_add(s.device(), batches[static_cast<std::size_t>(r)].in,
                        batches[static_cast<std::size_t>(r)].out,
                        aux_local[static_cast<std::size_t>(r)].buffer(), lay,
                        plan.s13, kind, op, g0, wave_begin(v + 1) - g0);
      }
    }
    return compute_front();
  });

  const double t_stage3 = boundary;
  auto exit_stage = obs::open_stage("ExitBarrier", t_stage3);
  comm.barrier();
  const double t_end = compute_front();
  exit_stage.close(t_end);
  result.breakdown.add("MPI_Barrier", (t_sync - t0) + (t_end - t_stage3));

  result.seconds = t_end - t0;
  result.faults.counters = comm.fault_counters();
  return result;
}

}  // namespace mgs::core
