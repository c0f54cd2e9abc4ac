#pragma once
/// \file executor_impl.hpp
/// The templated side of the erasure boundary: TypedScanExecutor<T, Op>
/// and the five proposal executors as templates over (element type,
/// operator), plus the dispatch-table machinery that maps a runtime
/// (DType, OpTag) pair to one instantiation.
///
/// Most code includes executor.hpp only and never sees this header; it
/// exists for the two TUs that must instantiate the matrix (executor.cpp
/// builds the factory tables; the CI instantiation guard instantiates all
/// of it explicitly) and for typed wrappers such as SegmentedScan, which
/// needs a TypedScanExecutor over SegPair elements -- a type that has no
/// erased carrier and therefore can never come out of the tables.
/// Keeping the table *variables* out of this header keeps ordinary TUs
/// from paying the 5 proposals x 5 dtypes x 3 ops instantiation cost.

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "mgs/core/executor.hpp"
#include "mgs/core/executor_registry.hpp"
#include "mgs/core/scan_mppc.hpp"
#include "mgs/core/scan_mps.hpp"
#include "mgs/core/scan_multinode.hpp"
#include "mgs/core/scan_sp.hpp"
#include "mgs/msg/comm.hpp"
#include "mgs/sim/fault.hpp"

namespace mgs::core {

/// Intermediate base fixing the element type and operator of an executor.
/// The erased run() unwraps the TypedSpans (checking the dtype once) and
/// forwards to run_typed(); for element types outside the DType matrix
/// (SegPair on the internal segmented path) the erased entry point is
/// compiled to a hard error path, and only run_typed() is usable.
template <typename T, typename Op>
class TypedScanExecutor : public ScanExecutor {
 public:
  TypedScanExecutor() {
    dtype_ = PlanTypeOf<T>::dtype;
    op_ = op_tag_of_v<Op>.value_or(OpTag::kPlus);
    segmented_ = PlanTypeOf<T>::segmented;
  }

  using ScanExecutor::run;  // keep the typed std::span overloads visible

  RunResult run(ConstTypedSpan in, TypedSpan out, ScanKind kind) final {
    if constexpr (dtype_of_v<T>.has_value()) {
      return run_typed(in.template as<T>(), out.template as<T>(), kind);
    } else {
      MGS_REQUIRE(false,
                  "ScanExecutor: this instantiation's element type has no "
                  "erased carrier (packed segmented elements); call "
                  "run_typed() on the TypedScanExecutor instead");
      return {};
    }
  }

  /// The monomorphic entry point: same contract as the erased run(), with
  /// the types recovered.
  virtual RunResult run_typed(std::span<const T> in, std::span<T> out,
                              ScanKind kind) = 0;
};

namespace detail {

/// The first `count` GPUs of `node` in global-id order (network-major,
/// the same fill order the figure harnesses use).
inline std::vector<int> node_gpus(const topo::Cluster& cluster, int node,
                                  int count) {
  const auto& cfg = cluster.config();
  MGS_REQUIRE(count >= 1 && count <= cfg.gpus_per_node(),
              "executor: W exceeds the GPUs of a node");
  std::vector<int> ids;
  for (int i = 0; i < count; ++i) {
    ids.push_back(cluster.global_id(node, i / cfg.gpus_per_network,
                                    i % cfg.gpus_per_network));
  }
  return ids;
}

inline bool is_down(const ScanContext& ctx, int dev) {
  const sim::FaultInjector* fi = ctx.cluster().fault_injector();
  return fi != nullptr && fi->device_is_down(dev);
}

inline int cluster_alive_count(const ScanContext& ctx) {
  return static_cast<int>(ctx.cluster().alive_devices().size());
}

/// Latest instant any of `gpus` has reached on either engine -- the
/// cluster-wide "now" a mid-run failure is diagnosed at.
inline double cluster_front(topo::Cluster& cluster,
                            const std::vector<int>& gpus) {
  double t = 0.0;
  for (int d : gpus) {
    t = std::max(t, cluster.device(d).clock().now());
    t = std::max(t, cluster.device(d).dma_clock().now());
  }
  return t;
}

/// Decide which endpoint of a failed mid-run transfer is lost and mark it
/// down in the injector. Scheduled device-down events identify the culprit
/// directly; a pure link death is attributed to the non-master endpoint
/// (fail-stop assumption -- the master must survive for anyone to make
/// progress). Returns the device marked, or -1 when no endpoint can be
/// blamed.
inline int blame_endpoint(sim::FaultInjector& fi, int src_dev, int dst_dev,
                          int master, double now) {
  int dead = -1;
  if (src_dev >= 0 && fi.device_down_at(src_dev, now)) {
    dead = src_dev;
  } else if (dst_dev >= 0 && fi.device_down_at(dst_dev, now)) {
    dead = dst_dev;
  } else if (src_dev >= 0 && src_dev != master) {
    dead = src_dev;
  } else if (dst_dev >= 0 && dst_dev != master) {
    dead = dst_dev;
  }
  if (dead >= 0 && !fi.device_is_down(dead)) fi.mark_device_down(dead);
  return dead;
}

/// Fold a mid-run recovery into a run's fault report; called after
/// stamp_report, which only reflects prepare-time placement.
inline void merge_mid_run_losses(sim::FaultReport& f,
                                 const std::string& executor,
                                 const std::vector<int>& lost) {
  f.degraded = true;
  for (int d : lost) {
    if (std::find(f.excluded_devices.begin(), f.excluded_devices.end(), d) ==
        f.excluded_devices.end()) {
      f.excluded_devices.push_back(d);
    }
  }
  std::string step = executor + ": lost device";
  for (int d : lost) step += " " + std::to_string(d);
  if (!f.resumed_stages.empty()) {
    step += " mid-run, resumed from ";
    for (std::size_t i = 0; i < f.resumed_stages.size(); ++i) {
      if (i != 0) step += "+";
      step += f.resumed_stages[i];
    }
  } else {
    step += " mid-run (restarted on survivors)";
  }
  f.replanned.push_back(step);
  if (f.degraded_mode.empty()) f.degraded_mode = step;
}

/// Last-resort placement shared by the multi-GPU executors: when a
/// degraded placement shrinks to a single surviving device, the run
/// collapses to Scan-SP on that device (the paper's single-GPU proposal --
/// no inter-GPU traffic to fail).
template <typename T, typename Op>
struct SpFallbackT {
  using Handle = typename WorkspacePool::Handle<T>;

  int device = -1;
  Handle in;
  Handle out;

  void prepare(ScanContext& ctx, int dev, std::int64_t elems) {
    device = dev;
    simt::Device& d = ctx.cluster().device(dev);
    in = ctx.workspace().template acquire<T>(d, elems);
    out = ctx.workspace().template acquire<T>(d, elems);
  }

  RunResult run(ScanContext& ctx, const ScanPlan& plan, std::span<const T> src,
                std::span<T> dst, std::int64_t n, std::int64_t g,
                ScanKind kind) {
    ctx.cluster().reset_clocks();
    std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(n * g),
              in.host_span().begin());
    RunResult r = scan_sp<T, Op>(ctx.cluster().device(device), in.buffer(),
                                 out.buffer(), n, g, plan, kind, Op{},
                                 &ctx.workspace());
    const auto produced = out.host_span();
    std::copy(produced.begin(),
              produced.begin() + static_cast<std::ptrdiff_t>(n * g),
              dst.begin());
    return r;
  }
};

// ---------------------------------------------------------------- Scan-SP

template <typename T, typename Op>
class SpExecutorT final : public TypedScanExecutor<T, Op> {
 public:
  using Base = TypedScanExecutor<T, Op>;
  using Handle = typename WorkspacePool::Handle<T>;

  SpExecutorT(ScanContext& ctx, int device_id)
      : ctx_(&ctx), requested_(device_id), device_id_(device_id) {
    MGS_REQUIRE(device_id >= 0 && device_id < ctx.cluster().num_devices(),
                "Scan-SP executor: device id out of range");
  }

  std::string name() const override { return "Scan-SP"; }

  std::string describe() const override {
    std::ostringstream os;
    os << "Scan-SP on device " << device_id_ << this->type_suffix();
    if (plan_ != nullptr) {
      os << "; n=" << n_ << " g=" << g_ << "; " << plan_->describe();
    }
    if (prep_report_.degraded) {
      os << " [degraded: " << prep_report_.degraded_mode << "]";
    }
    return os.str();
  }

  void prepare(std::int64_t n, std::int64_t g) override {
    MGS_REQUIRE(n > 0 && g > 0, "Scan-SP executor: N and G must be positive");
    const std::uint64_t epoch = ctx_->fault_epoch();
    if (n == n_ && g == g_ && epoch == fault_epoch_) return;
    prep_report_ = {};
    device_id_ = requested_;
    if (is_down(*ctx_, device_id_)) {
      const auto alive = ctx_->cluster().alive_devices();
      MGS_REQUIRE(!alive.empty(), "Scan-SP executor: no surviving device");
      device_id_ = alive.front();
      prep_report_.degraded = true;
      prep_report_.degraded_mode =
          "Scan-SP on device " + std::to_string(device_id_);
      prep_report_.excluded_devices.push_back(requested_);
      prep_report_.replanned.push_back(
          "Scan-SP: device " + std::to_string(requested_) + " -> " +
          std::to_string(device_id_));
    }
    plan_ = &ctx_->plan_for(this->plan_key(*ctx_, n, g, 1));
    simt::Device& dev = ctx_->cluster().device(device_id_);
    in_ = ctx_->workspace().template acquire<T>(dev, n * g);
    out_ = ctx_->workspace().template acquire<T>(dev, n * g);
    n_ = n;
    g_ = g;
    fault_epoch_ = epoch;
  }

  RunResult run_typed(std::span<const T> in, std::span<T> out,
                      ScanKind kind) override {
    this->require_ready(static_cast<std::int64_t>(in.size()),
                        static_cast<std::int64_t>(out.size()));
    prepare(n_, g_);  // re-place if device liveness changed since prepare()
    obs::ScopedSpan run_span = this->trace_run();
    ctx_->cluster().reset_clocks();
    std::copy(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(n_ * g_),
              in_.host_span().begin());
    RunResult r =
        scan_sp<T, Op>(ctx_->cluster().device(device_id_), in_.buffer(),
                       out_.buffer(), n_, g_, *plan_, kind, Op{},
                       &ctx_->workspace());
    const auto src = out_.host_span();
    std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(n_ * g_),
              out.begin());
    this->stamp_report(r);
    this->finish_run(run_span, r);
    return r;
  }

 private:
  using Base::fault_epoch_;
  using Base::g_;
  using Base::n_;
  using Base::prep_report_;

  ScanContext* ctx_;
  int requested_;
  int device_id_;
  const ScanPlan* plan_ = nullptr;
  Handle in_;
  Handle out_;
};

// --------------------------------------------------- Scan-MPS (+ direct)

template <typename T, typename Op>
class MpsExecutorT final : public TypedScanExecutor<T, Op> {
 public:
  using Base = TypedScanExecutor<T, Op>;
  using Handle = typename WorkspacePool::Handle<T>;

  MpsExecutorT(ScanContext& ctx, int w, bool direct, PipelineChoice pipe)
      : ctx_(&ctx), direct_(direct), pipe_(pipe) {
    const auto& cfg = ctx.cluster().config();
    w_req_ = (w > 0) ? w
                     : (direct ? cfg.gpus_per_network : cfg.gpus_per_node());
    gpus_ = node_gpus(ctx.cluster(), 0, w_req_);  // validates w_req_
    w_ = w_req_;
  }

  std::string name() const override {
    return direct_ ? "Scan-MPS-direct" : "Scan-MPS";
  }

  std::string describe() const override {
    std::ostringstream os;
    os << name() << " over " << w_ << " GPUs of node 0 (master "
       << gpus_.front() << ")" << this->type_suffix();
    if (plan_.has_value()) {
      os << "; n=" << n_ << " g=" << g_ << "; " << plan_->describe();
    }
    if (prep_report_.degraded) {
      os << " [degraded: " << prep_report_.degraded_mode << "]";
    }
    return os.str();
  }

  void prepare(std::int64_t n, std::int64_t g) override {
    MGS_REQUIRE(n > 0 && g > 0, "Scan-MPS executor: N and G must be positive");
    const std::uint64_t epoch = ctx_->fault_epoch();
    if (n == n_ && g == g_ && epoch == fault_epoch_) return;
    place(n);
    if (use_sp_) {
      plan_ = ctx_->plan_for(this->plan_key(*ctx_, n, g, 1));
      sp_.prepare(*ctx_, gpus_.front(), n * g);
      ins_.clear();
      outs_.clear();
    } else {
      MGS_REQUIRE(n % w_ == 0, "Scan-MPS executor: N must be divisible by W");
      plan_ = apply_pipeline_choice(
          ctx_->plan_for(this->plan_key(*ctx_, n, g, w_)), pipe_);
      const std::int64_t per_gpu = (n / w_) * g;
      ins_.clear();
      outs_.clear();
      for (int id : gpus_) {
        simt::Device& dev = ctx_->cluster().device(id);
        ins_.push_back(ctx_->workspace().template acquire<T>(dev, per_gpu));
        outs_.push_back(ctx_->workspace().template acquire<T>(dev, per_gpu));
      }
    }
    n_ = n;
    g_ = g;
    fault_epoch_ = epoch;
  }

  RunResult run_typed(std::span<const T> in, std::span<T> out,
                      ScanKind kind) override {
    this->require_ready(static_cast<std::int64_t>(in.size()),
                        static_cast<std::int64_t>(out.size()));
    prepare(n_, g_);
    obs::ScopedSpan run_span = this->trace_run();
    if (use_sp_) {
      RunResult r = sp_.run(*ctx_, *plan_, in, out, n_, g_, kind);
      this->stamp_report(r);
      this->finish_run(run_span, r);
      return r;
    }
    std::vector<int> lost;
    RunResult r = direct_ ? run_direct_restarting(in, out, kind, lost)
                          : run_mps_resuming(in, out, kind, lost);
    this->stamp_report(r);
    if (!lost.empty()) merge_mid_run_losses(r.faults, name(), lost);
    this->finish_run(run_span, r);
    return r;
  }

 private:
  using Base::fault_epoch_;
  using Base::g_;
  using Base::n_;
  using Base::prep_report_;

  /// Non-direct Scan-MPS with stage-granular mid-run recovery: the scan
  /// records per-stage progress in a checkpoint; a device/link death
  /// unwinds to here, the dead device's portions remap onto the
  /// least-loaded survivors (logical W and the chunk layout stay fixed, so
  /// Stage 2 still applies the operator in ascending portion order and
  /// results stay bit-identical to the healthy run), the lost portions'
  /// inputs restage from the host, and the scan re-enters to continue from
  /// the last completed stage boundary instead of restarting.
  RunResult run_mps_resuming(std::span<const T> in, std::span<T> out,
                             ScanKind kind, std::vector<int>& lost) {
    ctx_->cluster().reset_clocks();
    std::vector<GpuBatch<T>> batches;
    for (std::size_t d = 0; d < gpus_.size(); ++d) {
      batches.push_back(GpuBatch<T>{ins_[d].buffer(), outs_[d].buffer()});
    }
    scatter_batch<T>(in, batches, n_, g_);
    sim::FaultInjector* fi = ctx_->cluster().fault_injector();
    MpsCheckpoint<T> ck;
    for (int attempt = 0;; ++attempt) {
      try {
        RunResult r =
            scan_mps<T, Op>(ctx_->cluster(), gpus_, batches, n_, g_, *plan_,
                            kind, Op{}, &ctx_->workspace(), &ck);
        gather_batch<T>(batches, n_, g_, out);
        return r;
      } catch (const topo::TransferError& e) {
        // One recovery per device that can still die; anything past that
        // is unsurvivable -- propagate.
        if (fi == nullptr || attempt >= w_req_) throw;
        resume_after_fault(e, in, batches, ck, *fi, lost);
      }
    }
  }

  /// Remap a dead device's portions, restage their inputs, and regress
  /// exactly the checkpoint flags whose backing buffers died. Rethrows the
  /// active exception when the failure cannot be attributed or survived.
  void resume_after_fault(const topo::TransferError& e, std::span<const T> in,
                          std::vector<GpuBatch<T>>& batches,
                          MpsCheckpoint<T>& ck, sim::FaultInjector& fi,
                          std::vector<int>& lost) {
    topo::Cluster& cluster = ctx_->cluster();
    const double now = cluster_front(cluster, gpus_);
    const int old_master = gpus_.front();
    const int dead = blame_endpoint(fi, e.src_dev, e.dst_dev, old_master, now);
    if (dead < 0) throw;
    std::vector<int> portions;
    for (int i = 0; i < w_; ++i) {
      if (gpus_[static_cast<std::size_t>(i)] == dead) portions.push_back(i);
    }
    if (portions.empty()) throw;  // not a participant; cannot route around
    std::vector<int> pool;
    for (int id : node_gpus(cluster, 0, w_req_)) {
      if (!fi.device_is_down(id)) pool.push_back(id);
    }
    if (pool.empty()) throw;  // no survivor to resume onto
    const bool master_died = (old_master == dead);

    const std::int64_t n_local = n_ / w_;
    const std::int64_t per_gpu = n_local * g_;
    const BatchLayout lay = make_layout(n_local, g_, plan_->s13);

    // A dead master takes the gathered aux matrix and the Stage-2 output
    // with it: everything master-resident regresses, while the survivors'
    // raw reductions (aux_local) and already-scattered prefixes
    // (prefix_local) stay valid. Reset before the per-portion pass so a
    // dead portion whose gather died with the master re-runs Stage 1 too.
    if (ck.active && master_died) {
      std::fill(ck.gathered.begin(), ck.gathered.end(), char{0});
      std::fill(ck.scanned.begin(), ck.scanned.end(), char{0});
    }

    auto load_of = [&](int id) {
      int c = 0;
      for (int owner : gpus_) c += (owner == id) ? 1 : 0;
      return c;
    };
    for (int i : portions) {
      const auto ii = static_cast<std::size_t>(i);
      int repl = pool.front();
      int best = load_of(repl);
      for (int id : pool) {
        const int l = load_of(id);
        if (l < best) {
          repl = id;
          best = l;
        }
      }
      gpus_[ii] = repl;
      simt::Device& dev = cluster.device(repl);
      ins_[ii] = ctx_->workspace().template acquire<T>(dev, per_gpu);
      outs_[ii] = ctx_->workspace().template acquire<T>(dev, per_gpu);
      batches[ii] = GpuBatch<T>{ins_[ii].buffer(), outs_[ii].buffer()};
      // Refill this portion's input from the host (same layout as
      // scatter_batch) and charge the H2D restage to the replacement's
      // clock -- lost time is real time.
      auto dst = ins_[ii].host_span();
      for (std::int64_t gg = 0; gg < g_; ++gg) {
        const auto row = in.begin() + (gg * n_ + i * n_local);
        std::copy(row, row + n_local, dst.begin() + gg * n_local);
      }
      const auto& links = cluster.config().links;
      const double restage =
          links.host_latency_us * 1e-6 +
          static_cast<double>(per_gpu) * sizeof(T) /
              (links.host_bandwidth_gbps * 1e9);
      dev.clock().sync_to(now);
      dev.clock().advance(restage);

      if (!ck.active) continue;
      ck.aux_local[ii] =
          acquire_workspace<T>(&ctx_->workspace(), dev, lay.aux_elems());
      ck.prefix_local[ii] =
          acquire_workspace<T>(&ctx_->workspace(), dev, lay.aux_elems());
      bool fully_gathered = true;
      for (int v = 0; v < ck.k; ++v) {
        const auto cell = static_cast<std::size_t>(v * ck.w + i);
        ck.scattered[cell] = 0;
        if (ck.gathered[cell] == 0) fully_gathered = false;
      }
      // Ungathered cells need the reductions regenerated on the
      // replacement (pure kernels: identical values). Cells already on
      // the master keep their flags -- their data survived.
      if (!fully_gathered) ck.s1_done[ii] = 0;
    }
    if (ck.active && master_died) {
      simt::Device& new_master = cluster.device(gpus_.front());
      ck.aux_all = acquire_workspace<T>(&ctx_->workspace(), new_master,
                                        g_ * w_ * lay.bx);
      if (ck.carry.valid()) {
        ck.carry = acquire_workspace<T>(&ctx_->workspace(), new_master, g_);
      }
    }

    // Account the recovery window so the breakdown keeps telescoping to
    // the total, then arm the next entry instant.
    double t_resume = now;
    for (int i : portions) {
      t_resume = std::max(
          t_resume,
          cluster.device(gpus_[static_cast<std::size_t>(i)]).clock().now());
    }
    std::string boundary = "Start";
    if (ck.active) {
      boundary = ck.resume_boundary();
      t_resume = std::max(t_resume, ck.last_boundary);
      auto rec = obs::open_stage("Recovery", ck.last_boundary);
      rec.close(t_resume);
      ck.partial.breakdown.add("Recovery", t_resume - ck.last_boundary);
      ck.resumes += 1;
      ck.resumed_stages.push_back(boundary);
      ck.last_boundary = t_resume;
    }
    obs::note_fault("resume",
                    {{"executor", name()},
                     {"dead", std::to_string(dead)},
                     {"boundary", boundary},
                     {"portions", std::to_string(portions.size())},
                     {"master", master_died ? "replaced" : "kept"}},
                    now, dead);
    lost.push_back(dead);
  }

  /// Scan-MPS-direct recovery is restart-based: UVA peer writes leave no
  /// checkpointable intermediate on the master mid-kernel, so mark the
  /// device down, re-place (fewer GPUs, possibly Scan-SP), and rerun.
  RunResult run_direct_restarting(std::span<const T> in, std::span<T> out,
                                  ScanKind kind, std::vector<int>& lost) {
    sim::FaultInjector* fi = ctx_->cluster().fault_injector();
    const int limit = ctx_->cluster().num_devices();
    for (int attempt = 0;; ++attempt) {
      prepare(n_, g_);  // re-places when a recovery moved the liveness epoch
      if (use_sp_) return sp_.run(*ctx_, *plan_, in, out, n_, g_, kind);
      ctx_->cluster().reset_clocks();
      std::vector<GpuBatch<T>> batches;
      for (std::size_t d = 0; d < gpus_.size(); ++d) {
        batches.push_back(GpuBatch<T>{ins_[d].buffer(), outs_[d].buffer()});
      }
      scatter_batch<T>(in, batches, n_, g_);
      try {
        RunResult r = scan_mps_direct<T, Op>(ctx_->cluster(), gpus_, batches,
                                             n_, g_, *plan_, kind, Op{},
                                             &ctx_->workspace());
        gather_batch<T>(batches, n_, g_, out);
        return r;
      } catch (const topo::TransferError& e) {
        if (fi == nullptr || attempt >= limit) throw;
        const double now = cluster_front(ctx_->cluster(), gpus_);
        const int dead =
            blame_endpoint(*fi, e.src_dev, e.dst_dev, gpus_.front(), now);
        if (dead < 0) throw;
        lost.push_back(dead);
        obs::note_fault("restart",
                        {{"executor", name()}, {"dead", std::to_string(dead)}},
                        now, dead);
      }
    }
  }

  /// Placement: the requested W GPUs of node 0 when all are alive; the
  /// largest surviving prefix whose size divides N otherwise (direct mode
  /// additionally keeps only GPUs sharing the new master's PCIe network,
  /// since peer writes need P2P reach).
  void place(std::int64_t n) {
    prep_report_ = {};
    const auto all = node_gpus(ctx_->cluster(), 0, w_req_);
    std::vector<int> alive;
    std::vector<int> dead;
    for (int id : all) (is_down(*ctx_, id) ? dead : alive).push_back(id);
    MGS_REQUIRE(!alive.empty(),
                "Scan-MPS executor: no surviving GPU on node 0");
    if (dead.empty()) {
      gpus_ = all;
      w_ = w_req_;
      use_sp_ = false;
      return;
    }
    if (direct_) {
      const int master = alive.front();
      std::vector<int> same;
      for (int id : alive) {
        const auto link = ctx_->cluster().link_between(master, id);
        if (link == topo::LinkType::kSelf || link == topo::LinkType::kP2P) {
          same.push_back(id);
        }
      }
      alive = std::move(same);
    }
    int w2 = static_cast<int>(alive.size());
    while (w2 > 1 && n % w2 != 0) --w2;
    gpus_.assign(alive.begin(), alive.begin() + w2);
    w_ = w2;
    use_sp_ = (w2 == 1);
    prep_report_.degraded = true;
    prep_report_.excluded_devices = dead;
    prep_report_.invalidated_plans +=
        ctx_->invalidate_plans(cluster_alive_count(*ctx_));
    prep_report_.degraded_mode =
        use_sp_ ? ("Scan-SP on device " + std::to_string(gpus_.front()))
                : (name() + " W=" + std::to_string(w_));
    prep_report_.replanned.push_back(name() + ": W=" + std::to_string(w_req_) +
                                     " -> " + std::to_string(w_));
  }

  ScanContext* ctx_;
  bool direct_;
  PipelineChoice pipe_;
  int w_req_ = 1;
  int w_ = 1;
  bool use_sp_ = false;
  std::vector<int> gpus_;
  std::optional<ScanPlan> plan_;
  std::vector<Handle> ins_;
  std::vector<Handle> outs_;
  SpFallbackT<T, Op> sp_;
};

// -------------------------------------------------------------- Scan-MP-PC

template <typename T, typename Op>
class MppcExecutorT final : public TypedScanExecutor<T, Op> {
 public:
  using Base = TypedScanExecutor<T, Op>;
  using Handle = typename WorkspacePool::Handle<T>;

  MppcExecutorT(ScanContext& ctx, int y, int v, int m, PipelineChoice pipe)
      : ctx_(&ctx), pipe_(pipe) {
    const auto& cfg = ctx.cluster().config();
    y_ = (y > 0) ? y : cfg.networks_per_node;
    v_req_ = (v > 0) ? v : cfg.gpus_per_network;
    v_ = v_req_;
    m_ = (m > 0) ? m : 1;
  }

  std::string name() const override { return "Scan-MP-PC"; }

  std::string describe() const override {
    std::ostringstream os;
    os << "Scan-MP-PC with Y=" << y_ << " networks/node, V=" << v_
       << " GPUs/network, M=" << m_ << " nodes" << this->type_suffix();
    if (plan_.has_value()) {
      os << " (" << part_.groups.size() << " groups); n=" << n_ << " g=" << g_
         << "; " << plan_->describe();
    }
    if (prep_report_.degraded) {
      os << " [degraded: " << prep_report_.degraded_mode << "]";
    }
    return os.str();
  }

  void prepare(std::int64_t n, std::int64_t g) override {
    MGS_REQUIRE(n > 0 && g > 0,
                "Scan-MP-PC executor: N and G must be positive");
    const std::uint64_t epoch = ctx_->fault_epoch();
    if (n == n_ && g == g_ && epoch == fault_epoch_) return;
    place(n, g);
    ins_.clear();
    outs_.clear();
    if (use_sp_) {
      plan_ = ctx_->plan_for(this->plan_key(*ctx_, n, g, 1));
      sp_.prepare(*ctx_, sp_device_, n * g);
    } else {
      plan_ = apply_pipeline_choice(
          ctx_->plan_for(this->plan_key(*ctx_, n, g, v_)), pipe_);
      for (std::size_t grp = 0; grp < part_.groups.size(); ++grp) {
        const std::int64_t per_gpu = (n / v_) * part_.g_of_group[grp];
        std::vector<Handle> gin, gout;
        for (int id : part_.groups[grp]) {
          simt::Device& dev = ctx_->cluster().device(id);
          gin.push_back(ctx_->workspace().template acquire<T>(dev, per_gpu));
          gout.push_back(ctx_->workspace().template acquire<T>(dev, per_gpu));
        }
        ins_.push_back(std::move(gin));
        outs_.push_back(std::move(gout));
      }
    }
    n_ = n;
    g_ = g;
    fault_epoch_ = epoch;
  }

  RunResult run_typed(std::span<const T> in, std::span<T> out,
                      ScanKind kind) override {
    this->require_ready(static_cast<std::int64_t>(in.size()),
                        static_cast<std::int64_t>(out.size()));
    prepare(n_, g_);
    obs::ScopedSpan run_span = this->trace_run();
    sim::FaultInjector* fi = ctx_->cluster().fault_injector();
    const int limit = ctx_->cluster().num_devices();
    std::vector<int> lost;
    RunResult r;
    // Restart-based mid-run recovery: group-independent sub-scans make a
    // partial result useless once any group loses a member, so mark the
    // dead device, re-place (regrouping survivors), and rerun.
    for (int attempt = 0;; ++attempt) {
      prepare(n_, g_);  // re-places when a recovery moved the liveness epoch
      if (use_sp_) {
        r = sp_.run(*ctx_, *plan_, in, out, n_, g_, kind);
        break;
      }
      ctx_->cluster().reset_clocks();
      std::vector<std::vector<GpuBatch<T>>> batches;
      for (std::size_t grp = 0; grp < part_.groups.size(); ++grp) {
        std::vector<GpuBatch<T>> b;
        for (std::size_t d = 0; d < part_.groups[grp].size(); ++d) {
          b.push_back(
              GpuBatch<T>{ins_[grp][d].buffer(), outs_[grp][d].buffer()});
        }
        batches.push_back(std::move(b));
      }
      for (std::size_t grp = 0; grp < batches.size(); ++grp) {
        scatter_batch<T>(
            in.subspan(static_cast<std::size_t>(part_.g_offset[grp] * n_),
                       static_cast<std::size_t>(part_.g_of_group[grp] * n_)),
            batches[grp], n_, part_.g_of_group[grp]);
      }
      try {
        r = scan_mppc<T, Op>(ctx_->cluster(), part_, batches, n_, *plan_,
                             kind, Op{}, &ctx_->workspace());
        for (std::size_t grp = 0; grp < batches.size(); ++grp) {
          gather_batch<T>(
              batches[grp], n_, part_.g_of_group[grp],
              out.subspan(static_cast<std::size_t>(part_.g_offset[grp] * n_),
                          static_cast<std::size_t>(part_.g_of_group[grp] *
                                                   n_)));
        }
        break;
      } catch (const topo::TransferError& e) {
        if (fi == nullptr || attempt >= limit) throw;
        std::vector<int> ids;
        for (const auto& grp : part_.groups) {
          ids.insert(ids.end(), grp.begin(), grp.end());
        }
        const double now = cluster_front(ctx_->cluster(), ids);
        const int dead = blame_endpoint(*fi, e.src_dev, e.dst_dev,
                                        /*master=*/-1, now);
        if (dead < 0) throw;
        lost.push_back(dead);
        obs::note_fault("restart",
                        {{"executor", name()}, {"dead", std::to_string(dead)}},
                        now, dead);
      }
    }
    this->stamp_report(r);
    if (!lost.empty()) merge_mid_run_losses(r.faults, name(), lost);
    this->finish_run(run_span, r);
    return r;
  }

 private:
  using Base::fault_epoch_;
  using Base::g_;
  using Base::n_;
  using Base::prep_report_;

  /// Placement: the paper's Y x V partition when every requested GPU is
  /// alive; otherwise the groups are rebuilt from the alive GPUs of each
  /// PCIe network (any slot of a network may substitute for a dead one),
  /// with a uniform V' = min over networks, shrunk until it divides N.
  /// Networks with no survivor are dropped; a single surviving GPU
  /// collapses to Scan-SP.
  void place(std::int64_t n, std::int64_t g) {
    prep_report_ = {};
    const auto& cfg = ctx_->cluster().config();
    bool any_down = false;
    for (int node = 0; node < m_ && !any_down; ++node) {
      for (int net = 0; net < y_ && !any_down; ++net) {
        for (int s = 0; s < v_req_; ++s) {
          if (is_down(*ctx_, ctx_->cluster().global_id(node, net, s))) {
            any_down = true;
            break;
          }
        }
      }
    }
    if (!any_down) {
      MGS_REQUIRE(n % v_req_ == 0,
                  "Scan-MP-PC executor: N must be divisible by V");
      part_ = make_mppc_partition(ctx_->cluster(), y_, v_req_, g, m_);
      v_ = v_req_;
      use_sp_ = false;
      return;
    }

    std::vector<std::vector<int>> nets;
    std::vector<int> dead;
    for (int node = 0; node < m_; ++node) {
      for (int net = 0; net < y_; ++net) {
        std::vector<int> ids;
        for (int s = 0; s < cfg.gpus_per_network; ++s) {
          const int id = ctx_->cluster().global_id(node, net, s);
          if (is_down(*ctx_, id)) {
            if (s < v_req_) dead.push_back(id);
          } else {
            ids.push_back(id);
          }
        }
        if (!ids.empty()) nets.push_back(std::move(ids));
      }
    }
    MGS_REQUIRE(!nets.empty(), "Scan-MP-PC executor: no surviving GPU");
    std::size_t v_min = nets.front().size();
    for (const auto& ids : nets) v_min = std::min(v_min, ids.size());
    int v2 = std::min(v_req_, static_cast<int>(v_min));
    while (v2 > 1 && n % v2 != 0) --v2;

    prep_report_.degraded = true;
    prep_report_.excluded_devices = dead;
    prep_report_.invalidated_plans +=
        ctx_->invalidate_plans(cluster_alive_count(*ctx_));
    if (nets.size() == 1 && v2 == 1) {
      use_sp_ = true;
      sp_device_ = nets.front().front();
      v_ = 1;
      prep_report_.degraded_mode =
          "Scan-SP on device " + std::to_string(sp_device_);
    } else {
      use_sp_ = false;
      v_ = v2;
      part_ = MppcPartition{};
      part_.v = v2;
      const std::int64_t total_groups =
          std::min<std::int64_t>(static_cast<std::int64_t>(nets.size()), g);
      std::int64_t next_g = 0;
      for (std::int64_t grp = 0; grp < total_groups; ++grp) {
        const auto& ids = nets[static_cast<std::size_t>(grp)];
        part_.groups.emplace_back(
            ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(v2));
        const std::int64_t share =
            g / total_groups + ((grp < g % total_groups) ? 1 : 0);
        part_.g_of_group.push_back(share);
        part_.g_offset.push_back(next_g);
        next_g += share;
      }
      prep_report_.degraded_mode =
          "Scan-MP-PC " + std::to_string(part_.groups.size()) +
          " groups x V=" + std::to_string(v2);
    }
    prep_report_.replanned.push_back(
        "Scan-MP-PC: V=" + std::to_string(v_req_) + " -> " +
        std::to_string(v2) + ", groups -> " +
        std::to_string(use_sp_ ? 1 : static_cast<int>(part_.groups.size())));
  }

  ScanContext* ctx_;
  PipelineChoice pipe_;
  int y_ = 1;
  int v_req_ = 1;
  int v_ = 1;
  int m_ = 1;
  bool use_sp_ = false;
  int sp_device_ = -1;
  MppcPartition part_;
  std::optional<ScanPlan> plan_;
  std::vector<std::vector<Handle>> ins_;
  std::vector<std::vector<Handle>> outs_;
  SpFallbackT<T, Op> sp_;
};

// --------------------------------------------------- multi-node Scan-MPS

template <typename T, typename Op>
class MultinodeExecutorT final : public TypedScanExecutor<T, Op> {
 public:
  using Base = TypedScanExecutor<T, Op>;
  using Handle = typename WorkspacePool::Handle<T>;

  MultinodeExecutorT(ScanContext& ctx, int m, int w, PipelineChoice pipe)
      : ctx_(&ctx), pipe_(pipe) {
    const auto& cfg = ctx.cluster().config();
    m_ = (m > 0) ? m : cfg.nodes;
    w_ = (w > 0) ? w : cfg.gpus_per_node();
    MGS_REQUIRE(m_ <= cfg.nodes,
                "Scan-MPS-multinode executor: M exceeds the cluster");
    node_gpus(ctx.cluster(), 0, w_);  // validates w_ against the node shape
  }

  std::string name() const override { return "Scan-MPS-multinode"; }

  std::string describe() const override {
    std::ostringstream os;
    os << "Scan-MPS-multinode over " << m_ << " nodes x " << w_
       << " GPUs (one MPI rank per GPU)" << this->type_suffix();
    if (plan_.has_value()) {
      os << "; n=" << n_ << " g=" << g_ << "; " << plan_->describe();
    }
    if (prep_report_.degraded) {
      os << " [degraded: " << prep_report_.degraded_mode << "]";
    }
    return os.str();
  }

  void prepare(std::int64_t n, std::int64_t g) override {
    MGS_REQUIRE(n > 0 && g > 0,
                "Scan-MPS-multinode executor: N and G must be positive");
    const std::uint64_t epoch = ctx_->fault_epoch();
    if (n == n_ && g == g_ && epoch == fault_epoch_) return;
    place(n);
    ins_.clear();
    outs_.clear();
    if (use_sp_) {
      plan_ = ctx_->plan_for(this->plan_key(*ctx_, n, g, 1));
      sp_.prepare(*ctx_, sp_device_, n * g);
    } else {
      const int ranks = comm_->size();
      plan_ = apply_pipeline_choice(
          ctx_->plan_for(this->plan_key(*ctx_, n, g, ranks)), pipe_);
      const std::int64_t per_rank = (n / ranks) * g;
      for (int r = 0; r < ranks; ++r) {
        simt::Device& dev = ctx_->cluster().device(comm_->device_of(r));
        ins_.push_back(ctx_->workspace().template acquire<T>(dev, per_rank));
        outs_.push_back(ctx_->workspace().template acquire<T>(dev, per_rank));
      }
    }
    n_ = n;
    g_ = g;
    fault_epoch_ = epoch;
  }

  RunResult run_typed(std::span<const T> in, std::span<T> out,
                      ScanKind kind) override {
    this->require_ready(static_cast<std::int64_t>(in.size()),
                        static_cast<std::int64_t>(out.size()));
    prepare(n_, g_);
    obs::ScopedSpan run_span = this->trace_run();
    sim::FaultInjector* fi = ctx_->cluster().fault_injector();
    const int limit = ctx_->cluster().num_devices();
    std::vector<int> lost;
    RunResult r;
    // Restart-based mid-run recovery: a failed rank is identified from the
    // typed error (CommError names it; TransferError names the endpoints),
    // marked down, and the run re-places on the surviving ranks.
    for (int attempt = 0;; ++attempt) {
      prepare(n_, g_);  // re-places when a recovery moved the liveness epoch
      if (use_sp_) {
        r = sp_.run(*ctx_, *plan_, in, out, n_, g_, kind);
        break;
      }
      ctx_->cluster().reset_clocks();
      std::vector<GpuBatch<T>> batches;
      for (std::size_t rk = 0; rk < ins_.size(); ++rk) {
        batches.push_back(GpuBatch<T>{ins_[rk].buffer(), outs_[rk].buffer()});
      }
      scatter_batch<T>(in, batches, n_, g_);
      try {
        r = scan_mps_multinode<T, Op>(*comm_, batches, n_, g_, *plan_, kind,
                                      Op{}, &ctx_->workspace());
        gather_batch<T>(batches, n_, g_, out);
        break;
      } catch (const msg::CommError& e) {
        if (fi == nullptr || attempt >= limit) throw;
        std::vector<int> ids;
        for (int rk = 0; rk < comm_->size(); ++rk) {
          ids.push_back(comm_->device_of(rk));
        }
        const double now = cluster_front(ctx_->cluster(), ids);
        const int dead = comm_->device_of(e.failed_rank);
        if (!fi->device_is_down(dead)) fi->mark_device_down(dead);
        lost.push_back(dead);
        obs::note_fault("restart",
                        {{"executor", name()},
                         {"rank", std::to_string(e.failed_rank)},
                         {"dead", std::to_string(dead)}},
                        now, dead);
      } catch (const topo::TransferError& e) {
        if (fi == nullptr || attempt >= limit) throw;
        std::vector<int> ids;
        for (int rk = 0; rk < comm_->size(); ++rk) {
          ids.push_back(comm_->device_of(rk));
        }
        const double now = cluster_front(ctx_->cluster(), ids);
        const int dead = blame_endpoint(*fi, e.src_dev, e.dst_dev,
                                        comm_->device_of(0), now);
        if (dead < 0) throw;
        lost.push_back(dead);
        obs::note_fault("restart",
                        {{"executor", name()}, {"dead", std::to_string(dead)}},
                        now, dead);
      }
    }
    this->stamp_report(r);
    if (!lost.empty()) merge_mid_run_losses(r.faults, name(), lost);
    this->finish_run(run_span, r);
    return r;
  }

 private:
  using Base::fault_epoch_;
  using Base::g_;
  using Base::n_;
  using Base::prep_report_;

  /// Placement: one rank per requested GPU when all are alive; dead ranks
  /// are dropped otherwise, then surviving ranks are trimmed from the tail
  /// until the count divides N. A single survivor collapses to Scan-SP.
  void place(std::int64_t n) {
    prep_report_ = {};
    std::vector<int> ids;
    std::vector<int> dead;
    for (int node = 0; node < m_; ++node) {
      for (int id : node_gpus(ctx_->cluster(), node, w_)) {
        (is_down(*ctx_, id) ? dead : ids).push_back(id);
      }
    }
    MGS_REQUIRE(!ids.empty(), "Scan-MPS-multinode executor: no surviving GPU");
    if (dead.empty()) {
      MGS_REQUIRE(n % static_cast<std::int64_t>(ids.size()) == 0,
                  "Scan-MPS-multinode executor: N must divide by M*W");
      use_sp_ = false;
      comm_.emplace(ctx_->cluster(), std::move(ids));
      return;
    }
    const std::size_t survivors = ids.size();
    std::size_t r = survivors;
    while (r > 1 && n % static_cast<std::int64_t>(r) != 0) --r;
    ids.resize(r);
    prep_report_.degraded = true;
    prep_report_.excluded_devices = dead;
    prep_report_.invalidated_plans +=
        ctx_->invalidate_plans(cluster_alive_count(*ctx_));
    if (r == 1) {
      use_sp_ = true;
      sp_device_ = ids.front();
      comm_.reset();
      prep_report_.degraded_mode =
          "Scan-SP on device " + std::to_string(sp_device_);
    } else {
      use_sp_ = false;
      comm_.emplace(ctx_->cluster(), std::move(ids));
      prep_report_.degraded_mode =
          "Scan-MPS-multinode on " + std::to_string(r) + " ranks";
    }
    prep_report_.replanned.push_back(
        "Scan-MPS-multinode: ranks " + std::to_string(m_ * w_) + " -> " +
        std::to_string(r) +
        (r < survivors ? " (" + std::to_string(survivors - r) +
                             " surviving ranks idled so ranks divide N)"
                       : ""));
  }

  ScanContext* ctx_;
  PipelineChoice pipe_;
  int m_ = 1;
  int w_ = 1;
  bool use_sp_ = false;
  int sp_device_ = -1;
  std::optional<msg::Communicator> comm_;
  std::optional<ScanPlan> plan_;
  std::vector<Handle> ins_;
  std::vector<Handle> outs_;
  SpFallbackT<T, Op> sp_;
};

}  // namespace detail

/// Build one typed proposal executor by registry name. This is the typed
/// twin of make_executor(): wrappers that hold the executor by its
/// TypedScanExecutor interface (SegmentedScan) use it to keep run_typed()
/// callable; everyone else goes through the erased factories.
template <typename T, typename Op = Plus<T>>
std::unique_ptr<TypedScanExecutor<T, Op>> make_typed_executor(
    const std::string& name, ScanContext& ctx, const ExecutorParams& p = {}) {
  const PipelineChoice pipe{p.pipeline, p.waves};
  if (name == "Scan-SP") {
    return std::make_unique<detail::SpExecutorT<T, Op>>(ctx, p.device);
  }
  if (name == "Scan-MPS") {
    return std::make_unique<detail::MpsExecutorT<T, Op>>(ctx, p.w,
                                                         /*direct=*/false,
                                                         pipe);
  }
  if (name == "Scan-MPS-direct") {
    return std::make_unique<detail::MpsExecutorT<T, Op>>(ctx, p.w,
                                                         /*direct=*/true,
                                                         pipe);
  }
  if (name == "Scan-MP-PC") {
    return std::make_unique<detail::MppcExecutorT<T, Op>>(
        ctx, p.y, p.v, p.m > 0 ? p.m : 1, pipe);
  }
  if (name == "Scan-MPS-multinode") {
    return std::make_unique<detail::MultinodeExecutorT<T, Op>>(ctx, p.m, p.w,
                                                               pipe);
  }
  MGS_REQUIRE(false, "make_typed_executor: unknown executor '" + name + "'");
  return nullptr;
}

namespace detail {

/// One (DType, OpTag) -> executor-factory dispatch table. The table
/// *variables* are built only in executor.cpp and in the CI instantiation
/// guard -- never as inline header constants -- so ordinary TUs including
/// this header do not instantiate the full proposal x dtype x op matrix.
using ExecutorFactory = std::unique_ptr<ScanExecutor> (*)(
    ScanContext&, const ExecutorParams&);

struct FactoryTable {
  ExecutorFactory fn[kNumDTypes][kNumOpTags] = {};
  /// Mirrors fn: set exactly where a factory was installed. The density
  /// check reads this instead of comparing fn against nullptr -- under
  /// -fsanitize=address GCC refuses to constant-fold comparisons with an
  /// instrumented function's address, so the bool mirror keeps
  /// table_is_dense usable in static_asserts on every build flavor.
  bool set[kNumDTypes][kNumOpTags] = {};

  ExecutorFactory at(DType d, OpTag o) const {
    return fn[static_cast<int>(d)][static_cast<int>(o)];
  }
};

/// Every cell filled? static_asserted over each table in executor.cpp and
/// the guard TU, so a new DType/OpTag enumerator that misses a maker row
/// breaks the build rather than null-dispatching at runtime.
constexpr bool table_is_dense(const FactoryTable& t) {
  for (int d = 0; d < kNumDTypes; ++d) {
    for (int o = 0; o < kNumOpTags; ++o) {
      if (!t.set[d][o]) return false;
    }
  }
  return true;
}

/// Maker shims: one static make() per (proposal, T, Op) with the uniform
/// ExecutorFactory signature the tables store.
template <typename T, typename Op>
struct SpMaker {
  static std::unique_ptr<ScanExecutor> make(ScanContext& ctx,
                                            const ExecutorParams& p) {
    return std::make_unique<SpExecutorT<T, Op>>(ctx, p.device);
  }
};

template <typename T, typename Op>
struct MpsMaker {
  static std::unique_ptr<ScanExecutor> make(ScanContext& ctx,
                                            const ExecutorParams& p) {
    return std::make_unique<MpsExecutorT<T, Op>>(
        ctx, p.w, /*direct=*/false, PipelineChoice{p.pipeline, p.waves});
  }
};

template <typename T, typename Op>
struct MpsDirectMaker {
  static std::unique_ptr<ScanExecutor> make(ScanContext& ctx,
                                            const ExecutorParams& p) {
    return std::make_unique<MpsExecutorT<T, Op>>(
        ctx, p.w, /*direct=*/true, PipelineChoice{p.pipeline, p.waves});
  }
};

template <typename T, typename Op>
struct MppcMaker {
  static std::unique_ptr<ScanExecutor> make(ScanContext& ctx,
                                            const ExecutorParams& p) {
    return std::make_unique<MppcExecutorT<T, Op>>(
        ctx, p.y, p.v, p.m > 0 ? p.m : 1, PipelineChoice{p.pipeline, p.waves});
  }
};

template <typename T, typename Op>
struct MultinodeMaker {
  static std::unique_ptr<ScanExecutor> make(ScanContext& ctx,
                                            const ExecutorParams& p) {
    return std::make_unique<MultinodeExecutorT<T, Op>>(
        ctx, p.m, p.w, PipelineChoice{p.pipeline, p.waves});
  }
};

/// Fill one dtype row of a table with the three operator columns.
template <template <typename, typename> class Maker, typename T>
constexpr void fill_row(FactoryTable& t) {
  const int d = static_cast<int>(*dtype_of_v<T>);
  t.fn[d][static_cast<int>(OpTag::kPlus)] = &Maker<T, Plus<T>>::make;
  t.fn[d][static_cast<int>(OpTag::kMax)] = &Maker<T, Max<T>>::make;
  t.fn[d][static_cast<int>(OpTag::kMin)] = &Maker<T, Min<T>>::make;
  for (const OpTag o : {OpTag::kPlus, OpTag::kMax, OpTag::kMin}) {
    t.set[d][static_cast<int>(o)] = true;
  }
}

/// The full 5 x 3 table for one proposal. Instantiates that proposal over
/// the whole matrix -- call only from executor.cpp / the guard TU.
template <template <typename, typename> class Maker>
constexpr FactoryTable make_table() {
  FactoryTable t;
  fill_row<Maker, std::int32_t>(t);
  fill_row<Maker, std::int64_t>(t);
  fill_row<Maker, std::uint32_t>(t);
  fill_row<Maker, float>(t);
  fill_row<Maker, double>(t);
  return t;
}

}  // namespace detail

}  // namespace mgs::core
