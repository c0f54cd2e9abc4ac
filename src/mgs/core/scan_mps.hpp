#pragma once
/// \file scan_mps.hpp
/// Scan-MPS: Multi-GPU Problem Scattering (Section 4.1, Figures 6-7).
/// Every problem is split across all W participating GPUs; each GPU runs
/// Stage 1 on its G portions, the chunk reductions converge on a master
/// GPU for Stage 2, and the scanned prefixes return for Stage 3.

#include <algorithm>
#include <string>
#include <vector>

#include "mgs/core/kernels.hpp"
#include "mgs/core/plan.hpp"
#include "mgs/core/workspace.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/simt/stream.hpp"
#include "mgs/topo/transfer.hpp"

namespace mgs::core {

/// Per-GPU problem portions: `in`/`out` hold G portions of n_local
/// contiguous elements (portion of problem g at offset g*n_local).
template <typename T>
struct GpuBatch {
  simt::DeviceBuffer<T> in;
  simt::DeviceBuffer<T> out;
};

/// Copy G host-resident problems of N elements into already-allocated
/// per-GPU input portions (portion d of each problem to batches[d]).
/// Untimed: the paper's evaluation starts with data already in GPU
/// memory. Factored out of distribute_batch so executors can refill
/// persistent batches without reallocating.
template <typename T>
void scatter_batch(std::span<const T> host, std::vector<GpuBatch<T>>& batches,
                   std::int64_t n, std::int64_t g) {
  const int w = static_cast<int>(batches.size());
  MGS_REQUIRE(w > 0, "scatter_batch: need at least one GPU");
  MGS_REQUIRE(n % w == 0, "scatter_batch: N must be divisible by W");
  MGS_REQUIRE(static_cast<std::int64_t>(host.size()) >= n * g,
              "scatter_batch: host data too small");
  const std::int64_t n_local = n / w;
  for (int d = 0; d < w; ++d) {
    auto dst = batches[static_cast<std::size_t>(d)].in.host_span();
    MGS_REQUIRE(static_cast<std::int64_t>(dst.size()) >= n_local * g,
                "scatter_batch: batch input too small");
    for (std::int64_t gg = 0; gg < g; ++gg) {
      const auto row = host.begin() + (gg * n + d * n_local);
      std::copy(row, row + n_local, dst.begin() + gg * n_local);
    }
  }
}

/// Reassemble the scanned problems from the per-GPU outputs into a host
/// range (untimed). Inverse of scatter_batch.
template <typename T>
void gather_batch(const std::vector<GpuBatch<T>>& batches, std::int64_t n,
                  std::int64_t g, std::span<T> host) {
  const int w = static_cast<int>(batches.size());
  MGS_REQUIRE(w > 0 && n % w == 0, "gather_batch: bad shape");
  MGS_REQUIRE(static_cast<std::int64_t>(host.size()) >= n * g,
              "gather_batch: host range too small");
  const std::int64_t n_local = n / w;
  for (int d = 0; d < w; ++d) {
    const auto src = batches[static_cast<std::size_t>(d)].out.host_span();
    for (std::int64_t gg = 0; gg < g; ++gg) {
      const auto row = src.begin() + gg * n_local;
      std::copy(row, row + n_local, host.begin() + (gg * n + d * n_local));
    }
  }
}

/// Split G host-resident problems of N elements across `gpus` (portion d
/// of each problem to gpus[d]) and allocate matching outputs. Placement is
/// untimed: the paper's evaluation starts with data already in GPU memory.
template <typename T>
std::vector<GpuBatch<T>> distribute_batch(topo::Cluster& cluster,
                                          const std::vector<int>& gpus,
                                          std::span<const T> host,
                                          std::int64_t n, std::int64_t g) {
  const int w = static_cast<int>(gpus.size());
  MGS_REQUIRE(w > 0, "distribute_batch: need at least one GPU");
  MGS_REQUIRE(n % w == 0, "distribute_batch: N must be divisible by W");
  std::vector<GpuBatch<T>> batches;
  for (int d : gpus) {
    simt::Device& dev = cluster.device(d);
    batches.push_back({dev.template alloc<T>(n / w * g),
                       dev.template alloc<T>(n / w * g)});
  }
  scatter_batch(host, batches, n, g);
  return batches;
}

/// Reassemble the scanned problems from the per-GPU outputs (untimed).
template <typename T>
std::vector<T> collect_batch(const std::vector<GpuBatch<T>>& batches,
                             std::int64_t n, std::int64_t g) {
  std::vector<T> host(static_cast<std::size_t>(n * g));
  gather_batch(batches, n, g, std::span<T>(host));
  return host;
}

/// Stage-granular checkpoint for Scan-MPS (either fabric). The scan
/// records its progress here per (wave, portion) cell and at every stage
/// boundary, so a mid-run device/link failure unwinds with the completed
/// work intact: the executor's recovery driver remaps the dead device's
/// portions onto a survivor, regresses exactly the flags whose backing
/// state died, and calls the scan again -- it continues from the last
/// completed boundary instead of restarting. Passing no checkpoint (the
/// default) uses a function-local one, so a first pass computes every
/// boundary instant from the same clock maxima whether or not a checkpoint
/// is kept.
template <typename T>
struct MpsCheckpoint {
  bool active = false;  ///< initialized by a scan call; false when consumed
  int w = 0;
  int k = 1;  ///< waves
  double t0 = 0.0;
  double entered = 0.0;  ///< end of the fabric's entry step (t0 if none)
  double last_boundary = 0.0;  ///< latest completed stage boundary
  RunResult partial;           ///< breakdown accumulated so far
  sim::FaultCounters counters; ///< fabric counters incl. aborted attempts

  /// Device-resident partial state. aux_local holds the raw Stage-1 chunk
  /// reductions; prefix_local receives the scanned prefixes scattered
  /// back. They are separate buffers so a master death can re-gather the
  /// raw reductions -- a generic operator cannot reconstruct them from
  /// prefixes (max/min are not invertible).
  std::vector<WorkspacePool::Handle<T>> aux_local;
  std::vector<WorkspacePool::Handle<T>> prefix_local;
  WorkspacePool::Handle<T> aux_all;  ///< on the master
  /// Per-row Stage-2 carry on the master; held only by schedules that scan
  /// a row in several column groups.
  WorkspacePool::Handle<T> carry;

  /// Progress flags: s1_done per portion (size w); gathered, scanned and
  /// scattered per (wave, portion) cell (size k*w, cell v*w + d).
  std::vector<char> s1_done;
  std::vector<char> gathered;
  std::vector<char> scanned;
  std::vector<char> scattered;

  /// Per-cell dependency events (absolute simulated times, so they stay
  /// valid across a resume).
  std::vector<simt::Event> ev_s1;
  std::vector<simt::Event> ev_gather;
  std::vector<simt::Event> ev_scatter;

  /// Resume bookkeeping, filled by the executor's recovery driver.
  int resumes = 0;
  std::vector<std::string> resumed_stages;

  /// The most advanced stage boundary the surviving state still covers
  /// (what a resume continues from).
  const char* resume_boundary() const {
    const auto any = [](const std::vector<char>& f) {
      return std::any_of(f.begin(), f.end(), [](char x) { return x != 0; });
    };
    if (any(scanned)) return "Stage2";
    if (any(gathered)) return "AuxGather";
    if (any(s1_done)) return "Stage1";
    return "Start";
  }
};

namespace detail {

/// How the one three-kernel body of Scan-MPS runs, derived from plan.pipe
/// alone. The synchronous schedule -- chosen when the plan does not
/// overlap or there is a single participant -- is one wave, blocking moves
/// (each completion is its event), one carry-less Stage-2 column group per
/// wave, a stage cut after the gather, Stage 2 and the scatter, and an
/// entry instant from the compute clocks only: the paper's Figure-14
/// phases. The overlapped schedule splits G into waves, queues moves on
/// the DMA engines behind their producers' events, scans one column group
/// per portion carrying the running row prefix, and cuts the
/// communication once (Stage2+Comm).
struct Schedule {
  bool sync = true;
  int waves = 1;
};

inline Schedule schedule_of(const PipelinePlan& pipe, int parts,
                            std::int64_t g) {
  if (!pipe.overlap || parts == 1) return {};
  return {false,
          static_cast<int>(std::clamp<std::int64_t>(pipe.waves, 1, g))};
}

/// Run `body` as one stage window: it opens at the later of the last
/// `boundary` and the compute `front`, closes at the instant `body`
/// returns (never before it opened), and books one breakdown row, so the
/// rows telescope to the makespan exactly. Kernels and copies of later
/// stages may start inside an earlier window -- that is the overlap -- and
/// the critical-path analyzer clips leaf spans by time.
template <typename Body>
void stage_window(sim::Breakdown& rows, double& boundary, double front,
                  const char* name, int device, Body body) {
  const double t_in = std::max(boundary, front);
  auto span = obs::open_stage(name, t_in, device);
  const double t_out = std::max(t_in, body());
  span.close(t_out);
  rows.add(name, t_out - t_in);
  boundary = t_out;
}

/// Scan-MPS's fabric on one node: the transfer engine over a GPU list.
/// The master's aux array is problem-major ([g][d][c]), so a row is
/// contiguous for the coalesced Stage-2 scan, and each (wave, portion)
/// cell moves as one strided 2-D copy. No entry or exit step.
template <typename T>
struct CopyFabric {
  static constexpr bool kCollectives = false;
  static constexpr const char* kGather = "AuxGather";
  static constexpr const char* kScatter = "AuxScatter";

  topo::Cluster& cluster;
  std::vector<int> devices;  ///< participant -> device; [0] is the master
  std::int64_t bx = 0;
  std::int64_t g = 0;
  topo::TransferEngine xfer{cluster};

  const sim::FaultCounters& fault_counters() const {
    return xfer.fault_counters();
  }
  /// Stage 2 over rows [g0, g0 + rows), columns [c0, c0 + cols).
  template <typename Op>
  void scan(simt::Device& master, simt::DeviceBuffer<T>& all,
            const StagePlan& s2, Op op, std::int64_t g0, std::int64_t rows,
            std::int64_t c0, std::int64_t cols, simt::DeviceBuffer<T>* carry) {
    launch_intermediate_scan(master, all, bx * std::ssize(devices), g, s2,
                             op, g0, rows, c0, cols, carry);
  }
  /// Move rows [g0, g0 + rows) of portion d to the master (`gather`) or
  /// back: blocking, or queued on the DMA engines behind `ready`.
  simt::Event move(bool gather, int d, simt::DeviceBuffer<T>& local,
                   simt::DeviceBuffer<T>& all, std::int64_t g0,
                   std::int64_t rows, simt::Event ready, bool blocking) {
    struct End {
      simt::DeviceBuffer<T>* buf;
      std::int64_t off;
      std::int64_t stride;
    };
    const std::int64_t row_len = bx * std::ssize(devices);
    End src{&local, g0 * bx, bx};
    End dst{&all, g0 * row_len + d * bx, row_len};
    if (!gather) std::swap(src, dst);
    if (!blocking) {
      return xfer.copy_2d_async(*dst.buf, dst.off, dst.stride, *src.buf,
                                src.off, src.stride, rows, bx, ready).done;
    }
    xfer.copy_2d(*dst.buf, dst.off, dst.stride, *src.buf, src.off,
                 src.stride, rows, bx);
    return {cluster.device(dst.buf->device_id()).clock().now()};
  }
  template <typename Front>
  double enter(double t0, Front&&) { return t0; }
  template <typename Front>
  double leave(double t, double, sim::Breakdown&, Front&&) { return t; }
};

/// The one body of Scan-MPS, over a fabric (CopyFabric above, MpiFabric
/// in scan_multinode.hpp) and the (wave, portion) cells of a Schedule.
/// Each cell's chunk reductions move to the master once its Stage 1 is
/// done; the master scans a column group once its gathers arrived, and the
/// prefixes return to separate per-portion arrays (the raw reductions stay
/// valid for a re-gather if the master dies), so Stage 3 starts per cell
/// on arrival. Column groups of a row run in ascending portion order on
/// the master's in-order engine, so every schedule and fabric applies the
/// operator in the same order: outputs are bit-identical. Stage 2 stays on
/// the master (Section 4.1). The checkpoint's per-cell flags let a resume
/// skip cells whose data already lives where the next stage needs it.
template <typename T, typename Op, typename Fabric>
RunResult scan_mps_cells(Fabric& fab, std::vector<GpuBatch<T>>& batches,
                         const BatchLayout& lay, const ScanPlan& plan,
                         ScanKind kind, Op op, WorkspacePool* ws,
                         MpsCheckpoint<T>* ck) {
  const int w = static_cast<int>(fab.devices.size());
  const std::int64_t g = lay.g;
  const Schedule sched = schedule_of(plan.pipe, w, g);
  const int k = sched.waves;
  const auto wave_begin = [&](int v) { return (g * v) / k; };
  MpsCheckpoint<T> local_ck;
  MpsCheckpoint<T>& c = ck != nullptr ? *ck : local_ck;

  const auto device = [&](int d) -> simt::Device& {
    return fab.cluster.device(fab.devices[static_cast<std::size_t>(d)]);
  };
  const auto compute_front = [&] {
    double t = 0.0;
    for (int d = 0; d < w; ++d) t = std::max(t, device(d).clock().now());
    return t;
  };
  const auto cell = [w](int v, int d) {
    return static_cast<std::size_t>(v * w + d);
  };
  const auto pending = [](const std::vector<char>& f) {
    return std::any_of(f.begin(), f.end(), [](char x) { return x == 0; });
  };
  // A stage window closed at the compute front once `body` returns.
  const auto phase = [&](const char* name, int dev, auto body) {
    stage_window(c.partial.breakdown, c.last_boundary, compute_front(), name,
                 dev, [&] {
                   body();
                   return compute_front();
                 });
  };
  const auto at = [](std::vector<WorkspacePool::Handle<T>>& h, int d)
      -> simt::DeviceBuffer<T>& { return h[static_cast<std::size_t>(d)]; };
  const auto all_done = [](std::vector<simt::Event>& ev,
                           std::vector<char>& done, simt::Event e) {
    std::fill(ev.begin(), ev.end(), e);
    std::fill(done.begin(), done.end(), char{1});
  };

  // ---- Per-cell moves: one wave's rows of one portion each, unless the
  // synchronous schedule of a fabric with collectives moves every cell at
  // once.
  const auto gather_all = [&] {
    if constexpr (Fabric::kCollectives) {
      if (sched.sync) {
        return all_done(c.ev_gather, c.gathered,
                        fab.move_all(true, c.aux_local, c.aux_all));
      }
    }
    for (int v = 0; v < k; ++v) {
      const std::int64_t g0 = wave_begin(v);
      for (int d = 0; d < w; ++d) {
        const auto i = cell(v, d);
        if (c.gathered[i] != 0) continue;
        c.ev_gather[i] = fab.move(true, d, at(c.aux_local, d), c.aux_all, g0,
                                  wave_begin(v + 1) - g0, c.ev_s1[i],
                                  sched.sync);
        c.gathered[i] = 1;
      }
    }
  };
  // Stage-2 column groups: the whole row (sync) or one portion, each
  // launch gated on the gathers of its cells.
  simt::Stream master_stream(device(0));
  const int group = sched.sync ? w : 1;
  const auto scan_group = [&](int v, int d0) {
    if (c.scanned[cell(v, d0)] != 0) return;
    for (int d = d0; d < d0 + group; ++d) {
      master_stream.wait(c.ev_gather[cell(v, d)]);
    }
    const std::int64_t g0 = wave_begin(v);
    fab.scan(master_stream.device(), c.aux_all, plan.s2, op, g0,
             wave_begin(v + 1) - g0, d0 * lay.bx, group * lay.bx,
             sched.sync ? nullptr : &c.carry.buffer());
    for (int d = d0; d < d0 + group; ++d) c.scanned[cell(v, d)] = 1;
  };
  const auto scatter = [&](int v, int d) {
    const auto i = cell(v, d);
    if (c.scattered[i] != 0) return;
    const std::int64_t g0 = wave_begin(v);
    c.ev_scatter[i] = fab.move(false, d, at(c.prefix_local, d), c.aux_all,
                               g0, wave_begin(v + 1) - g0,
                               master_stream.record(), sched.sync);
    c.scattered[i] = 1;
  };
  const auto scatter_all = [&] {
    if constexpr (Fabric::kCollectives) {
      all_done(c.ev_scatter, c.scattered,
               fab.move_all(false, c.prefix_local, c.aux_all));
    } else {
      for (int d = 0; d < w; ++d) scatter(0, d);
    }
  };

  double t_end = 0.0;
  try {
    if (!c.active) {
      c.w = w;
      c.k = k;
      c.partial = RunResult{};
      c.partial.payload_bytes =
          2ull * static_cast<std::uint64_t>(lay.n_local * w) * g * sizeof(T);
      // Entry instant. The overlapped schedule queues moves on the DMA
      // engines, so it also waits for those (free-function calls may
      // arrive with clocks already advanced).
      c.t0 = compute_front();
      for (int d = 0; d < w && !sched.sync; ++d) {
        c.t0 = std::max(c.t0, device(d).dma_clock().now());
      }
      const auto cells = static_cast<std::size_t>(k * w);
      c.s1_done.assign(static_cast<std::size_t>(w), 0);
      for (auto* f : {&c.gathered, &c.scanned, &c.scattered}) {
        f->assign(cells, 0);
      }
      for (auto* e : {&c.ev_s1, &c.ev_gather, &c.ev_scatter}) {
        e->assign(cells, simt::Event{});
      }
      c.aux_local.clear();
      c.prefix_local.clear();
      for (int d = 0; d < w; ++d) {
        c.aux_local.push_back(
            acquire_workspace<T>(ws, device(d), lay.aux_elems()));
        c.prefix_local.push_back(
            acquire_workspace<T>(ws, device(d), lay.aux_elems()));
      }
      c.aux_all = acquire_workspace<T>(ws, device(0), g * w * lay.bx);
      if (!sched.sync) c.carry = acquire_workspace<T>(ws, device(0), g);
      c.entered = fab.enter(c.t0, compute_front);
      c.last_boundary = c.entered;
      c.active = true;
    }
    MGS_REQUIRE(c.w == w && c.k == k,
                "scan_mps: checkpoint shape mismatch on resume");

    // ---- Stage 1 per portion per wave; each wave records the event its
    // gather depends on. On resume only portions whose reductions were
    // lost re-run (chunk_reduce is pure, so relaunching a whole portion
    // reproduces its values and events bit-identically).
    if (pending(c.s1_done)) {
      phase("Stage1", -1, [&] {
        for (int d = 0; d < w; ++d) {
          if (c.s1_done[static_cast<std::size_t>(d)] != 0) continue;
          simt::Stream s(device(d));
          for (int v = 0; v < k; ++v) {
            const std::int64_t g0 = wave_begin(v);
            launch_chunk_reduce(s.device(),
                                batches[static_cast<std::size_t>(d)].in,
                                at(c.aux_local, d), lay, plan.s13, op, g0,
                                wave_begin(v + 1) - g0);
            c.ev_s1[cell(v, d)] = s.record();
          }
          c.s1_done[static_cast<std::size_t>(d)] = 1;
        }
      });
    }

    // ---- Gather, Stage 2, scatter. A move that hits a dead device/link
    // throws with the earlier cells' flags already set. The synchronous
    // schedule runs each phase over every cell in its own window; the
    // overlapped one interleaves Stage 2 and the scatter per column group
    // inside one window that closes when the last prefix landed.
    if (sched.sync) {
      if (pending(c.gathered)) phase(Fabric::kGather, -1, gather_all);
      // The one wave's one group.
      if (pending(c.scanned)) {
        phase("Stage2", fab.devices[0], [&] { scan_group(0, 0); });
      }
      if (pending(c.scattered)) phase(Fabric::kScatter, -1, scatter_all);
    } else if (pending(c.scattered)) {
      stage_window(c.partial.breakdown, c.last_boundary, compute_front(),
                   "Stage2+Comm", -1, [&] {
        gather_all();
        for (int v = 0; v < k; ++v) {
          for (int d = 0; d < w; ++d) {
            scan_group(v, d);
            scatter(v, d);
          }
        }
        double t_out = 0.0;
        for (const simt::Event& e : c.ev_scatter) {
          t_out = std::max(t_out, e.seconds);
        }
        return t_out;
      });
    }

    // ---- Stage 3 per portion per wave, gated on that wave's prefix
    // arrival. Failures can only surface in the moves above, so Stage 3
    // always runs whole once reached.
    phase("Stage3", -1, [&] {
      for (int d = 0; d < w; ++d) {
        simt::Stream s(device(d));
        for (int v = 0; v < k; ++v) {
          const std::int64_t g0 = wave_begin(v);
          s.wait(c.ev_scatter[cell(v, d)]);
          launch_scan_add(s.device(), batches[static_cast<std::size_t>(d)].in,
                          batches[static_cast<std::size_t>(d)].out,
                          at(c.prefix_local, d), lay, plan.s13, kind, op, g0,
                          wave_begin(v + 1) - g0);
        }
      }
    });
    t_end = fab.leave(c.last_boundary, c.entered - c.t0, c.partial.breakdown,
                      compute_front);
  } catch (...) {
    // Preserve the counters of the aborted attempt (the fabric dies with
    // the unwind); the recovery driver re-enters with the same checkpoint.
    c.counters.merge(fab.fault_counters());
    throw;
  }

  RunResult result = std::move(c.partial);
  c.partial = RunResult{};
  c.active = false;
  result.seconds = t_end - c.t0;
  c.counters.merge(fab.fault_counters());
  result.faults.counters = c.counters;
  result.faults.resumed_stages = c.resumed_stages;
  return result;
}

}  // namespace detail

/// Run Scan-MPS over `gpus` (gpus[0] is the master) through the copy
/// fabric. Batches must follow the distribute_batch layout. Returns the
/// simulated makespan across the participating GPUs plus the phase
/// breakdown. When `ws` is given, the auxiliary arrays are leased from it
/// instead of allocated per call; `ck` keeps what a resume needs.
template <typename T, typename Op = Plus<T>>
RunResult scan_mps(topo::Cluster& cluster, const std::vector<int>& gpus,
                   std::vector<GpuBatch<T>>& batches, std::int64_t n,
                   std::int64_t g, const ScanPlan& plan, ScanKind kind,
                   Op op = {}, WorkspacePool* ws = nullptr,
                   MpsCheckpoint<T>* ck = nullptr) {
  plan.validate();
  const int w = static_cast<int>(gpus.size());
  MGS_REQUIRE(w > 0 && static_cast<int>(batches.size()) == w,
              "scan_mps: one batch per GPU required");
  MGS_REQUIRE(n % w == 0, "scan_mps: N must be divisible by W");
  const BatchLayout lay = make_layout(n / w, g, plan.s13);
  MGS_REQUIRE(lay.bx >= 1,
              "scan_mps: every GPU needs at least one chunk (Equation 2)");
  detail::CopyFabric<T> fab{cluster, gpus, lay.bx, g};
  return detail::scan_mps_cells<T>(fab, batches, lay, plan, kind, op, ws, ck);
}

/// Scan-MPS variant with direct peer writes: when every participating GPU
/// shares a PCIe network with the master, Stage 1 writes its chunk
/// reductions straight into the master's combined auxiliary array through
/// UVA peer access (Section 2: P2P copies are asynchronous and overlap
/// with computation), eliminating the separate gather step. The scattered
/// peer writes ride the P2P link pipelined behind the kernel; the model
/// charges the link time minus the overlap with Stage 1.
///
/// Requires all GPUs on one PCIe network (throws util::Error otherwise);
/// the scatter-back still uses explicit copies (Stage 3 needs the data
/// resident before it starts).
template <typename T, typename Op = Plus<T>>
RunResult scan_mps_direct(topo::Cluster& cluster, const std::vector<int>& gpus,
                          std::vector<GpuBatch<T>>& batches, std::int64_t n,
                          std::int64_t g, const ScanPlan& plan, ScanKind kind,
                          Op op = {}, WorkspacePool* ws = nullptr) {
  plan.validate();
  const int w = static_cast<int>(gpus.size());
  MGS_REQUIRE(w > 0 && static_cast<int>(batches.size()) == w,
              "scan_mps_direct: one batch per GPU required");
  MGS_REQUIRE(n % w == 0, "scan_mps_direct: N must be divisible by W");
  const int master = gpus[0];
  for (int d : gpus) {
    const auto link = cluster.link_between(master, d);
    MGS_REQUIRE(link == topo::LinkType::kSelf || link == topo::LinkType::kP2P,
                "scan_mps_direct: all GPUs must share the master's PCIe "
                "network (peer access)");
  }
  const std::int64_t n_local = n / w;
  const BatchLayout lay = make_layout(n_local, g, plan.s13);

  RunResult result;
  result.payload_bytes = 2ull * static_cast<std::uint64_t>(n) * g * sizeof(T);
  topo::TransferEngine xfer(cluster);
  auto phase_start = [&] {
    double t = 0.0;
    for (int d : gpus) t = std::max(t, cluster.device(d).clock().now());
    return t;
  };
  const double t0 = phase_start();

  auto aux_all =
      acquire_workspace<T>(ws, cluster.device(master), g * w * lay.bx);
  const auto aux_view = aux_all.view();

  // ---- Stage 1 with direct peer writes into the master's array.
  auto stage1 = obs::open_stage("Stage1+P2PWrites", t0);
  for (int d = 0; d < w; ++d) {
    simt::Device& dev = cluster.device(gpus[static_cast<std::size_t>(d)]);
    simt::LaunchConfig cfg;
    cfg.name = "chunk_reduce_p2p";
    cfg.grid = {static_cast<int>(lay.bx), static_cast<int>(g), 1};
    cfg.block = {plan.s13.lx, 1, 1};
    cfg.regs_per_thread = plan.s13.regs_per_thread();
    cfg.smem_per_block = plan.s13.smem_bytes(sizeof(T));
    const auto inv = batches[static_cast<std::size_t>(d)].in.view();
    const StagePlan sp = plan.s13;
    const std::int64_t dd = d;
    const auto t = simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
      const std::int64_t c = ctx.block_idx().x;
      const std::int64_t gg = ctx.block_idx().y;
      const std::int64_t chunk_off = c * lay.chunk;
      const std::int64_t len =
          std::min<std::int64_t>(lay.chunk, lay.n_local - chunk_off);
      const T total =
          cascade_reduce(ctx, inv, gg * lay.n_local + chunk_off, len, sp, op);
      // UVA peer store into the master's [g][d][c] slot.
      aux_view.store(gg * (w * lay.bx) + dd * lay.bx + c, total, ctx.stats());
    });
    if (gpus[static_cast<std::size_t>(d)] != master) {
      // The peer writes ride the P2P link behind the kernel; only the
      // non-overlapped remainder delays the pipeline.
      const double wire = xfer.link_time(
          gpus[static_cast<std::size_t>(d)], master,
          static_cast<std::uint64_t>(g) * lay.bx * sizeof(T));
      const double exposed = std::max(0.0, wire - 0.5 * t.seconds);
      dev.clock().advance(exposed);
      cluster.device(master).clock().sync_to(dev.clock().now());
      if (exposed > 0.0) {
        if (obs::TraceSession* ts = obs::TraceSession::current()) {
          // The overlapped portion of the peer writes hides behind the
          // kernel; only the exposed tail occupies the link as a span.
          obs::SpanRecord rec;
          rec.name = "p2p_writes";
          rec.kind = obs::SpanKind::kTransfer;
          rec.category = obs::Category::kP2P;
          rec.device = master;
          rec.src_device = gpus[static_cast<std::size_t>(d)];
          rec.start_seconds = dev.clock().now() - exposed;
          rec.end_seconds = dev.clock().now();
          const std::uint64_t wire_bytes =
              static_cast<std::uint64_t>(g) * lay.bx * sizeof(T);
          rec.bytes = wire_bytes;
          rec.notes.emplace_back("link", "p2p");
          ts->add_event(std::move(rec));
          ts->metrics().add("transfer_bytes", {{"kind", "p2p"}},
                            static_cast<double>(wire_bytes));
        }
      }
    }
  }
  const double t_stage1 = phase_start();
  // The master may only start Stage 2 once every peer's writes landed.
  cluster.device(master).clock().sync_to(t_stage1);
  stage1.close(t_stage1);
  result.breakdown.add("Stage1+P2PWrites", t_stage1 - t0);

  // ---- Stage 2 on the master.
  auto stage2 = obs::open_stage("Stage2", t_stage1, master);
  launch_intermediate_scan(cluster.device(master), aux_all.buffer(),
                           static_cast<std::int64_t>(w) * lay.bx, g, plan.s2,
                           op);
  const double t_stage2 = phase_start();
  stage2.close(t_stage2);
  result.breakdown.add("Stage2", t_stage2 - t_stage1);

  // ---- Scatter slices back, then Stage 3 (same as regular MPS).
  auto scatter_stage = obs::open_stage("AuxScatter", t_stage2);
  std::vector<WorkspacePool::Handle<T>> aux_local;
  aux_local.reserve(static_cast<std::size_t>(w));
  for (int d = 0; d < w; ++d) {
    aux_local.push_back(acquire_workspace<T>(
        ws, cluster.device(gpus[static_cast<std::size_t>(d)]),
        lay.aux_elems()));
    xfer.copy_2d(aux_local.back().buffer(), 0, lay.bx, aux_all.buffer(),
                 static_cast<std::int64_t>(d) * lay.bx,
                 static_cast<std::int64_t>(w) * lay.bx, g, lay.bx);
  }
  const double t_scatter = phase_start();
  scatter_stage.close(t_scatter);
  result.breakdown.add("AuxScatter", t_scatter - t_stage2);

  auto stage3 = obs::open_stage("Stage3", t_scatter);
  for (int d = 0; d < w; ++d) {
    launch_scan_add(cluster.device(gpus[static_cast<std::size_t>(d)]),
                    batches[static_cast<std::size_t>(d)].in,
                    batches[static_cast<std::size_t>(d)].out,
                    aux_local[static_cast<std::size_t>(d)].buffer(), lay,
                    plan.s13, kind, op);
  }
  const double t_end = phase_start();
  stage3.close(t_end);
  result.breakdown.add("Stage3", t_end - t_scatter);

  result.seconds = t_end - t0;
  result.faults.counters = xfer.fault_counters();
  return result;
}

}  // namespace mgs::core
