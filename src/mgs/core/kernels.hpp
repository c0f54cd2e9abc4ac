#pragma once
/// \file kernels.hpp
/// The three kernels of the large-size scan (Section 3.1, Figure 3):
///
///   Stage 1  Chunk Reduce       -- one block per chunk, reduction into the
///                                  auxiliary array (one element per chunk);
///   Stage 2  Intermediate Scan  -- exclusive scan of each problem's chunk
///                                  totals, several problems per block;
///   Stage 3  Scan + Addition    -- local chunk scan with the auxiliary
///                                  element folded into every output.
///
/// Grids are two-dimensional: x indexes chunks within a problem (B_x),
/// y indexes the batch (B_y = G). Launchers return the simulated timing.

#include <algorithm>
#include <string>

#include "mgs/core/skeleton.hpp"

namespace mgs::core {

/// Stage 1. `in` holds G portions of lay.n_local contiguous elements
/// (problem g at offset g*n_local); `aux` receives the chunk reductions,
/// problem-major (aux[g*bx + c]). `g_begin`/`g_count` restrict the launch
/// to a slice of the batch dimension (a pipeline wave); indexing into `in`
/// and `aux` stays absolute, so slices compose to exactly the full launch.
template <typename T, typename Op>
sim::KernelTime launch_chunk_reduce(simt::Device& dev,
                                    const simt::DeviceBuffer<T>& in,
                                    simt::DeviceBuffer<T>& aux,
                                    const BatchLayout& lay,
                                    const StagePlan& sp, Op op,
                                    std::int64_t g_begin = 0,
                                    std::int64_t g_count = -1) {
  if (g_count < 0) g_count = lay.g - g_begin;
  MGS_CHECK(g_begin >= 0 && g_count >= 0 && g_begin + g_count <= lay.g,
            "chunk_reduce: batch slice out of range");
  MGS_CHECK(in.size() >= lay.elems_per_gpu(), "chunk_reduce: input too small");
  MGS_CHECK(aux.size() >= lay.aux_elems(), "chunk_reduce: aux too small");
  if (g_count == 0) return {};
  simt::LaunchConfig cfg;
  cfg.name = "chunk_reduce";
  cfg.grid = {static_cast<int>(lay.bx), static_cast<int>(g_count), 1};
  cfg.block = {sp.lx, sp.ly, 1};
  cfg.regs_per_thread = sp.regs_per_thread();
  cfg.smem_per_block = sp.smem_bytes(sizeof(T));
  const auto inv = in.view();
  const auto auxv = aux.view();
  return simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t c = ctx.block_idx().x;
    const std::int64_t g = g_begin + ctx.block_idx().y;
    const std::int64_t chunk_off = c * lay.chunk;
    const std::int64_t len =
        std::min<std::int64_t>(lay.chunk, lay.n_local - chunk_off);
    const T total =
        cascade_reduce(ctx, inv, g * lay.n_local + chunk_off, len, sp, op);
    auxv.store(g * lay.bx + c, total, ctx.stats());
  });
}

namespace detail {

/// Shared body of the two Stage-2 launchers: each block scans s2.ly
/// problem rows, each row segment warp by warp through the layout's
/// `load(row, col, n, ctx)` / `store(row, col, n, v, ctx)` accessors
/// (columns absolute within the logical row).
template <typename T, typename Op, typename Load, typename Store>
sim::KernelTime launch_row_scan(simt::Device& dev, const char* name,
                                bool aux_fits, std::int64_t g,
                                const StagePlan& s2, Op op,
                                std::int64_t g_begin, std::int64_t g_count,
                                std::int64_t row_len, std::int64_t c_begin,
                                std::int64_t c_count,
                                simt::DeviceBuffer<T>* carry, Load load,
                                Store store) {
  if (g_count < 0) g_count = g - g_begin;
  if (c_count < 0) c_count = row_len - c_begin;
  MGS_CHECK(g_begin >= 0 && g_count >= 0 && g_begin + g_count <= g,
            std::string(name) + ": bad rows");
  MGS_CHECK(c_begin >= 0 && c_count >= 0 && c_begin + c_count <= row_len,
            std::string(name) + ": bad columns");
  MGS_CHECK(aux_fits, std::string(name) + ": aux too small");
  MGS_CHECK(carry == nullptr || carry->size() >= g,
            std::string(name) + ": carry too small");
  if (g_count == 0 || c_count == 0) return {};
  simt::LaunchConfig cfg;
  cfg.name = name;
  cfg.grid = {1, static_cast<int>(util::div_up(
                     static_cast<std::uint64_t>(g_count),
                     static_cast<std::uint64_t>(s2.ly))),
              1};
  cfg.block = {s2.lx, s2.ly, 1};
  cfg.regs_per_thread = s2.regs_per_thread();
  cfg.smem_per_block = s2.smem_bytes(sizeof(T));
  const bool carried = carry != nullptr;
  const auto carryv = carried ? carry->view() : simt::GlobalView<T>{};
  return simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    for (int r = 0; r < s2.ly; ++r) {
      const std::int64_t local_row =
          static_cast<std::int64_t>(ctx.block_idx().y) * s2.ly + r;
      if (local_row >= g_count) break;
      const std::int64_t row = g_begin + local_row;
      const T carry_in = (carried && c_begin != 0)
                             ? carryv.load(row, ctx.stats())
                             : Op::identity();
      const T total = warp_row_scan_exclusive_carry<T>(
          ctx, c_count,
          [&](std::int64_t i0, int n) {
            return load(row, c_begin + i0, n, ctx);
          },
          [&](std::int64_t i0, int n, const simt::WarpReg<T>& v) {
            store(row, c_begin + i0, n, v, ctx);
          },
          op, carry_in);
      if (carried) carryv.store(row, op(carry_in, total), ctx.stats());
    }
  });
}

}  // namespace detail

/// Stage 2, contiguous layout: `aux` holds `g` rows of `row_len` chunk
/// totals (row r at offset r*row_len); each row is exclusively scanned in
/// place. Several problems share a block (L_y^2 = s2.ly, B_x^2 = 1).
///
/// The trailing parameters restrict the launch to one pipeline cell, like
/// launch_chunk_reduce's `g_begin`/`g_count`: rows [g_begin,
/// g_begin+g_count) and columns [c_begin, c_begin+c_count) of each row
/// (defaults: everything). Without `carry` every row segment scans from
/// the identity, so the default launch is the whole-row kernel. With
/// `carry` (>= g elements) a segment starting past column 0 seeds from the
/// running row prefix the previous segment left there, and every segment
/// stores its updated prefix back: segments of one row issued in ascending
/// column order on one in-order stream reproduce the whole-row output
/// bit-for-bit. Distinct rows are independent.
template <typename T, typename Op>
sim::KernelTime launch_intermediate_scan(
    simt::Device& dev, simt::DeviceBuffer<T>& aux, std::int64_t row_len,
    std::int64_t g, const StagePlan& s2, Op op, std::int64_t g_begin = 0,
    std::int64_t g_count = -1, std::int64_t c_begin = 0,
    std::int64_t c_count = -1, simt::DeviceBuffer<T>* carry = nullptr) {
  return detail::launch_row_scan(
      dev, "intermediate_scan", aux.size() >= row_len * g, g, s2, op,
      g_begin, g_count, row_len, c_begin, c_count, carry,
      [auxv = aux.view(), row_len](std::int64_t row, std::int64_t i0, int n,
                                   simt::BlockCtx& ctx) {
        return auxv.load_warp_partial(row * row_len + i0, n, Op::identity(),
                                      ctx.stats());
      },
      [auxv = aux.view(), row_len](std::int64_t row, std::int64_t i0, int n,
                                   const simt::WarpReg<T>& v,
                                   simt::BlockCtx& ctx) {
        auxv.store_warp_partial(row * row_len + i0, n, v, ctx.stats());
      });
}

/// Stage 2, strided layout (MPI_Gather output, rank-major): element i of
/// problem row `row` lives at offset (i / bx)*(g*bx) + row*bx + (i % bx).
/// Scalar (uncoalesced) accesses -- the honest price of the MPI layout.
/// The trailing parameters select a cell exactly as for
/// launch_intermediate_scan; columns index the logical row (rank r's
/// chunks are columns [r*bx, (r+1)*bx)).
template <typename T, typename Op>
sim::KernelTime launch_intermediate_scan_ranked(
    simt::Device& dev, simt::DeviceBuffer<T>& aux, std::int64_t bx,
    std::int64_t ranks, std::int64_t g, const StagePlan& s2, Op op,
    std::int64_t g_begin = 0, std::int64_t g_count = -1,
    std::int64_t c_begin = 0, std::int64_t c_count = -1,
    simt::DeviceBuffer<T>* carry = nullptr) {
  const auto offset_of = [bx, g](std::int64_t row, std::int64_t i) {
    return (i / bx) * (g * bx) + row * bx + (i % bx);
  };
  return detail::launch_row_scan(
      dev, "intermediate_scan_ranked", aux.size() >= ranks * g * bx, g, s2,
      op, g_begin, g_count, ranks * bx, c_begin, c_count, carry,
      [auxv = aux.view(), offset_of](std::int64_t row, std::int64_t i0, int n,
                                     simt::BlockCtx& ctx) {
        simt::WarpReg<T> v;
        for (int l = 0; l < simt::kWarpSize; ++l) {
          v[l] = (l < n) ? auxv.load(offset_of(row, i0 + l), ctx.stats())
                         : Op::identity();
        }
        return v;
      },
      [auxv = aux.view(), offset_of](std::int64_t row, std::int64_t i0, int n,
                                     const simt::WarpReg<T>& v,
                                     simt::BlockCtx& ctx) {
        for (int l = 0; l < n; ++l) {
          auxv.store(offset_of(row, i0 + l), v[l], ctx.stats());
        }
      });
}

/// Stage 3. `aux` holds the *exclusively scanned* chunk totals for this
/// GPU's chunks, problem-major like Stage 1 wrote them. `in` and `out` may
/// alias (in-place scan).
template <typename T, typename Op>
sim::KernelTime launch_scan_add(simt::Device& dev,
                                const simt::DeviceBuffer<T>& in,
                                simt::DeviceBuffer<T>& out,
                                const simt::DeviceBuffer<T>& aux,
                                const BatchLayout& lay, const StagePlan& sp,
                                ScanKind kind, Op op,
                                std::int64_t g_begin = 0,
                                std::int64_t g_count = -1) {
  if (g_count < 0) g_count = lay.g - g_begin;
  MGS_CHECK(g_begin >= 0 && g_count >= 0 && g_begin + g_count <= lay.g,
            "scan_add: batch slice out of range");
  MGS_CHECK(in.size() >= lay.elems_per_gpu(), "scan_add: input too small");
  MGS_CHECK(out.size() >= lay.elems_per_gpu(), "scan_add: output too small");
  MGS_CHECK(aux.size() >= lay.aux_elems(), "scan_add: aux too small");
  if (g_count == 0) return {};
  simt::LaunchConfig cfg;
  cfg.name = "scan_add";
  cfg.grid = {static_cast<int>(lay.bx), static_cast<int>(g_count), 1};
  cfg.block = {sp.lx, sp.ly, 1};
  cfg.regs_per_thread = sp.regs_per_thread();
  cfg.smem_per_block = sp.smem_bytes(sizeof(T));
  const auto inv = in.view();
  const auto outv = out.view();
  const auto auxv = aux.view();
  return simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t c = ctx.block_idx().x;
    const std::int64_t g = g_begin + ctx.block_idx().y;
    const std::int64_t chunk_off = c * lay.chunk;
    const std::int64_t len =
        std::min<std::int64_t>(lay.chunk, lay.n_local - chunk_off);
    const T carry_in = auxv.load(g * lay.bx + c, ctx.stats());
    auto smem = ctx.shared<T>(sp.warps());
    cascade_scan(ctx, inv, outv, g * lay.n_local + chunk_off, len, sp,
                 carry_in, kind, op, smem);
  });
}

/// Single-kernel path for problems that fit in one chunk (B_x = 1): a
/// direct cascade scan with identity carry, skipping stages 1-2 entirely.
template <typename T, typename Op>
sim::KernelTime launch_direct_scan(simt::Device& dev,
                                   const simt::DeviceBuffer<T>& in,
                                   simt::DeviceBuffer<T>& out,
                                   const BatchLayout& lay, const StagePlan& sp,
                                   ScanKind kind, Op op) {
  MGS_CHECK(lay.bx == 1, "direct_scan requires a single chunk per problem");
  simt::LaunchConfig cfg;
  cfg.name = "direct_scan";
  cfg.grid = {1, static_cast<int>(lay.g), 1};
  cfg.block = {sp.lx, sp.ly, 1};
  cfg.regs_per_thread = sp.regs_per_thread();
  cfg.smem_per_block = sp.smem_bytes(sizeof(T));
  const auto inv = in.view();
  const auto outv = out.view();
  return simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t g = ctx.block_idx().y;
    auto smem = ctx.shared<T>(sp.warps());
    cascade_scan(ctx, inv, outv, g * lay.n_local, lay.n_local, sp,
                 Op::identity(), kind, op, smem);
  });
}

}  // namespace mgs::core
