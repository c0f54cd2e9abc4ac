#pragma once
/// \file launch.hpp
/// Kernel launch API: execute a block body over a grid, functionally and
/// in parallel on the host pool, while accumulating work counters; then
/// convert the counters into simulated time and advance the device clock.

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "mgs/obs/span.hpp"
#include "mgs/sim/cost_model.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/simt/device.hpp"
#include "mgs/simt/thread_pool.hpp"
#include "mgs/simt/types.hpp"
#include "mgs/util/check.hpp"

namespace mgs::simt {

/// Launch shape + declared per-thread resources. regs_per_thread and
/// smem_per_block are *declared* (as a CUDA compiler would report them);
/// they feed the occupancy calculator exactly like --ptxas-options=-v
/// output would.
struct LaunchConfig {
  std::string name = "kernel";
  Dim3 grid;
  Dim3 block;
  int regs_per_thread = 32;
  std::int64_t smem_per_block = 0;
};

/// Execution context handed to the kernel body, one per thread block.
class BlockCtx {
 public:
  BlockCtx(Dim3 block_idx, const LaunchConfig& cfg, int device_id)
      : block_idx_(block_idx),
        grid_dim_(cfg.grid),
        block_dim_(cfg.block),
        device_id_(device_id),
        smem_(static_cast<std::size_t>(cfg.smem_per_block)) {}

  Dim3 block_idx() const { return block_idx_; }
  Dim3 grid_dim() const { return grid_dim_; }
  Dim3 block_dim() const { return block_dim_; }
  int device_id() const { return device_id_; }

  sim::KernelStats& stats() { return stats_; }

  /// Bump-allocate `count` Ts from the block's shared memory (static
  /// __shared__ arrays in CUDA terms). Checks the declared budget.
  template <typename T>
  std::span<T> shared(std::int64_t count) {
    const std::size_t align = alignof(T);
    std::size_t offset = (smem_used_ + align - 1) / align * align;
    const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
    MGS_CHECK(offset + bytes <= smem_.size(),
              "shared memory over the declared smem_per_block budget");
    smem_used_ = offset + bytes;
    return {reinterpret_cast<T*>(smem_.data() + offset),
            static_cast<std::size_t>(count)};
  }

  /// __syncthreads(). Functionally a no-op (a block executes its warps in
  /// program order on one worker), kept as a semantic marker and charged
  /// as one instruction per thread.
  void sync() {
    stats_.alu_ops += static_cast<std::uint64_t>(block_dim_.count());
  }

  /// Charge explicit lane-operations (index arithmetic, predicates) that
  /// the skeletons want the cost model to see.
  void count_alu(std::uint64_t n) { stats_.alu_ops += n; }

 private:
  Dim3 block_idx_;
  Dim3 grid_dim_;
  Dim3 block_dim_;
  int device_id_;
  sim::KernelStats stats_;
  std::vector<std::byte> smem_;
  std::size_t smem_used_ = 0;
};

namespace detail {
/// Throws util::Error when the launch cannot run on the device at all.
void validate_launch(const Device& dev, const LaunchConfig& cfg);
}  // namespace detail

/// Execute `body(BlockCtx&)` for every block of cfg.grid on the shared
/// pool, blocks dispatched in ascending linear index (x fastest, then y,
/// then z). Aggregates the per-block KernelStats, evaluates the cost model
/// for this DeviceSpec, advances the device clock, and returns the timing.
template <typename Fn>
sim::KernelTime launch(Device& dev, const LaunchConfig& cfg, Fn&& body) {
  detail::validate_launch(dev, cfg);

  sim::KernelStats total;
  total.blocks = static_cast<std::uint64_t>(cfg.grid.count());
  total.threads_per_block = static_cast<int>(cfg.block.count());
  total.regs_per_thread = cfg.regs_per_thread;
  total.smem_per_block = cfg.smem_per_block;

  std::mutex agg_mutex;
  const std::int64_t gx = cfg.grid.x;
  const std::int64_t gy = cfg.grid.y;
  ThreadPool::instance().run_ordered(
      cfg.grid.count(), [&](std::int64_t linear) {
        Dim3 idx;
        idx.x = static_cast<int>(linear % gx);
        idx.y = static_cast<int>((linear / gx) % gy);
        idx.z = static_cast<int>(linear / (gx * gy));
        BlockCtx ctx(idx, cfg, dev.id());
        body(ctx);
        std::lock_guard<std::mutex> lock(agg_mutex);
        total.bytes_read += ctx.stats().bytes_read;
        total.bytes_written += ctx.stats().bytes_written;
        total.mem_transactions += ctx.stats().mem_transactions;
        total.alu_ops += ctx.stats().alu_ops;
      });

  sim::KernelTime t = sim::kernel_time(dev.spec(), total);
  const double start = dev.clock().now();
  // A straggling device runs its kernels slower too, not just its
  // transfers (FaultKind::kStraggler). No injector -> bit-identical time.
  double straggle = 1.0;
  if (const sim::FaultInjector* fi = dev.fault_injector()) {
    straggle = fi->compute_slowdown(dev.id(), start);
    if (straggle > 1.0) t.seconds *= straggle;
  }
  dev.clock().advance(t.seconds);

  if (obs::TraceSession* ts = obs::TraceSession::current()) {
    obs::SpanRecord rec;
    rec.name = cfg.name;
    rec.kind = obs::SpanKind::kKernel;
    rec.category = obs::Category::kCompute;
    rec.device = dev.id();
    rec.start_seconds = start;
    rec.end_seconds = start + t.seconds;
    rec.bytes = total.total_bytes();
    rec.alu_ops = total.alu_ops;
    rec.occupancy = t.occ.warp_occupancy;
    if (straggle > 1.0) {
      rec.notes.emplace_back("straggler_factor", std::to_string(straggle));
    }
    ts->add_event(std::move(rec));
    obs::MetricsRegistry& m = ts->metrics();
    if (straggle > 1.0) m.inc("straggler_kernels_total");
    m.inc("kernel_launches_total", {{"name", cfg.name}});
    m.add("kernel_seconds", {{"name", cfg.name}}, t.seconds);
    m.add("kernel_bytes", {{"name", cfg.name}},
          static_cast<double>(total.total_bytes()));
  }
  return t;
}

}  // namespace mgs::simt
