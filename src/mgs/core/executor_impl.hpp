#pragma once
/// \file executor_impl.hpp
/// The templated side of the erasure boundary: TypedScanExecutor<T, Op>,
/// which owns the executor protocol (prepare, run, mid-run recovery),
/// the five proposals as templates over (element type, operator) that
/// supply only their placement, leases and attempt body, and the one
/// (proposal, T, Op, params) -> constructor mapping behind every factory.
///
/// Most code includes executor.hpp only and never sees this header; it
/// exists for the two TUs that must instantiate the matrix (executor.cpp
/// builds the factory table; the CI instantiation guard instantiates all
/// of it explicitly) and for typed wrappers such as SegmentedScan, which
/// needs a TypedScanExecutor over SegPair elements -- a type that has no
/// erased carrier and therefore can never come out of the table.
/// Keeping the table *variable* out of this header keeps ordinary TUs
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

namespace detail {

/// The five proposals in the registry's presentation order; the index
/// into all_executors() and kProposalNames.
enum class ProposalKind { kSp, kMps, kMpsDirect, kMppc, kMultinode };
inline constexpr int kNumProposals = 5;
inline constexpr const char* kProposalNames[kNumProposals] = {
    "Scan-SP", "Scan-MPS", "Scan-MPS-direct", "Scan-MP-PC",
    "Scan-MPS-multinode"};

inline ProposalKind proposal_of(const std::string& name) {
  for (int k = 0; k < kNumProposals; ++k) {
    if (name == kProposalNames[k]) return static_cast<ProposalKind>(k);
  }
  throw util::Error("unknown executor: " + name);
}

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

/// Fold what a run's failed attempts left -- lost devices
/// (excluded_devices), superseded placements' steps and restarted
/// attempts' counters -- into its report, after stamp_report (which only
/// reflects the last placement). No-op when nothing was lost.
inline void merge_mid_run_losses(sim::FaultReport& f,
                                 const std::string& executor,
                                 const sim::FaultReport& failed) {
  const std::vector<int>& lost = failed.excluded_devices;
  if (lost.empty()) return;
  f.degraded = true;
  f.counters.merge(failed.counters);
  f.replanned.insert(f.replanned.begin(), failed.replanned.begin(),
                     failed.replanned.end());
  for (int d : lost) {
    if (std::find(f.excluded_devices.begin(), f.excluded_devices.end(), d) ==
        f.excluded_devices.end()) {
      f.excluded_devices.push_back(d);
    }
  }
  std::ostringstream step;
  step << executor << ": lost device";
  for (int d : lost) step << ' ' << d;
  if (!f.resumed_stages.empty()) {
    step << " mid-run, resumed from ";
    for (std::size_t i = 0; i < f.resumed_stages.size(); ++i) {
      if (i != 0) step << '+';
      step << f.resumed_stages[i];
    }
  } else {
    step << " mid-run (restarted on survivors)";
  }
  f.replanned.push_back(step.str());
  if (f.degraded_mode.empty()) f.degraded_mode = f.replanned.back();
}

}  // namespace detail

/// The executor protocol, written once for every proposal and fixed to
/// one element type and operator. A proposal supplies only what differs:
///  - place(): which devices the run uses, or a collapse onto one device
///    (the paper's Scan-SP, which is also Scan-SP's own placement);
///  - lease_staging(): the run's per-device staging leases (via lease());
///  - run_attempt(): one attempt -- scatter, scan, gather;
///  - optionally resume(): an in-place recovery step (Scan-MPS's
///    checkpoint) instead of a restart.
/// The base owns prepare validation and the liveness-epoch early return,
/// describe(), the Scan-SP body, the run's trace and fault report, and
/// the one recovery loop.
///
/// The erased run() unwraps the TypedSpans (checking the dtype once) and
/// forwards to run_typed(); for element types outside the DType matrix
/// (SegPair on the internal segmented path) the erased entry point is
/// compiled to a hard error path, and only run_typed() is usable.
template <typename T, typename Op>
class TypedScanExecutor : public ScanExecutor {
 public:
  using ScanExecutor::run;  // keep the typed std::span overloads visible

  std::string name() const final {
    return detail::kProposalNames[static_cast<int>(kind_)];
  }

  std::string describe() const final {
    std::ostringstream os;
    os << placement() << this->type_suffix();
    if (plan_.has_value()) {
      os << plan_note() << "; n=" << n_ << " g=" << g_ << "; "
         << plan_->describe();
    }
    if (prep_report_.degraded) {
      os << " [degraded: " << prep_report_.degraded_mode << "]";
    }
    return os.str();
  }

  void prepare(std::int64_t n, std::int64_t g) final {
    MGS_REQUIRE(n > 0 && g > 0,
                name() + " executor: N and G must be positive");
    const std::uint64_t epoch = ctx_->fault_epoch();
    if (n == n_ && g == g_ && epoch == fault_epoch_) return;
    prep_report_ = {};
    const Placement at = place(n, g);
    solo_ = at.solo;
    plan_ = solo_ >= 0
                ? ctx_->plan_for(this->plan_key(*ctx_, n, g, 1))
                : apply_pipeline_choice(
                      ctx_->plan_for(this->plan_key(*ctx_, n, g, at.width)),
                      pipe_);
    n_ = n;
    g_ = g;
    fault_epoch_ = epoch;
  }

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
  RunResult run_typed(std::span<const T> in, std::span<T> out,
                      ScanKind kind) {
    this->require_ready(static_cast<std::int64_t>(in.size()),
                        static_cast<std::int64_t>(out.size()));
    prepare(n_, g_);  // re-place if device liveness changed since prepare()
    obs::ScopedSpan run_span = this->trace_run();
    struct EndRun {  // returns the run's leases on every exit path
      TypedScanExecutor& ex;
      ~EndRun() { ex.end_run(); }
    } end_run{*this};
    sim::FaultReport failed;
    RunResult r = run_recovering(in, out, kind, failed);
    this->stamp_report(r);
    detail::merge_mid_run_losses(r.faults, name(), failed);
    this->finish_run(run_span, r);
    return r;
  }

 protected:
  using Handle = typename WorkspacePool::Handle<T>;

  /// Where prepare() put the run: `width` GPUs per problem (the plan
  /// key), or -- when `solo` >= 0 -- Scan-SP on that one device.
  struct Placement {
    int width = 1;
    int solo = -1;
  };

  TypedScanExecutor(ScanContext& ctx, detail::ProposalKind kind,
                    PipelineChoice pipe = {})
      : ctx_(&ctx), pipe_(pipe), kind_(kind) {
    dtype_ = PlanTypeOf<T>::dtype;
    op_ = op_tag_of_v<Op>.value_or(OpTag::kPlus);
    segmented_ = PlanTypeOf<T>::segmented;
  }

  /// Choose the devices for n x g on the current liveness, recording any
  /// degradation in prep_report_ (reset beforehand). Throws util::Error
  /// for shapes the proposal cannot place.
  virtual Placement place(std::int64_t n, std::int64_t g) = 0;
  /// Lease the multi-GPU placement's staging, in attempt order.
  virtual void lease_staging(std::int64_t /*n*/, std::int64_t /*g*/) {}
  /// Return the run's leases to the pool (once per run, also on a throw).
  virtual void end_run() { staging_.clear(); }
  /// describe() head: proposal and devices.
  virtual std::string placement() const = 0;
  /// describe() text between the type suffix and the shape.
  virtual std::string plan_note() const { return {}; }
  /// One attempt over the multi-GPU placement: scatter `in` into the
  /// staging (skipped when `resumed`: the recovery step restaged what it
  /// moved), scan, gather into `out`. Scan-SP keeps this default.
  virtual RunResult run_attempt(std::span<const T> in, std::span<T> out,
                                ScanKind kind, bool /*resumed*/) {
    return run_sp(in, out, kind);
  }
  /// Recovery step after `dead` was lost at `now`: true when the proposal
  /// continued in place (the next attempt resumes), false to restart on
  /// the survivors. Called inside the failed attempt's catch handler, so
  /// a bare `throw;` rethrows a failure that cannot be survived.
  virtual bool resume(int /*dead*/, double /*now*/,
                      std::span<const T> /*in*/) {
    return false;
  }
  /// Endpoint a link death is never blamed on (-1: no master).
  virtual int master() const { return staging_device(0); }
  /// Recoveries allowed per run before a failure propagates.
  virtual int recovery_limit() const {
    return ctx_->cluster().num_devices();
  }

  /// Lease the one staging buffer of `elems` on `dev` (scanned in place).
  void lease(int dev, std::int64_t elems) {
    staging_.push_back(ctx_->workspace().template acquire<T>(
        ctx_->cluster().device(dev), elems));
  }
  /// Record a placement without the `dead` devices: degraded, and the
  /// cached plans of the old device count dropped.
  void degrade(std::vector<int> dead) {
    prep_report_.degraded = true;
    prep_report_.excluded_devices = std::move(dead);
    prep_report_.invalidated_plans += ctx_->invalidate_plans(
        static_cast<int>(ctx_->cluster().alive_devices().size()));
  }
  /// Device of staging lease `i` (for multi-node Scan-MPS, of rank `i`).
  int staging_device(std::size_t i) const {
    return staging_.at(i).buffer().device_id();
  }
  /// In-place batch views of staging leases [first, first + count).
  std::vector<GpuBatch<T>> staged(std::size_t first, std::size_t count) {
    std::vector<GpuBatch<T>> b;
    for (std::size_t i = first; i < first + count; ++i) {
      b.push_back(GpuBatch<T>{staging_[i].buffer(), staging_[i].buffer()});
    }
    return b;
  }

  ScanContext* ctx_;
  PipelineChoice pipe_;
  std::optional<ScanPlan> plan_;
  std::vector<Handle> staging_;  ///< the run's, one per placed device

 private:
  RunResult run_sp(std::span<const T> in, std::span<T> out, ScanKind kind) {
    const auto count = static_cast<std::ptrdiff_t>(n_ * g_);
    const auto buf = staging_[0].host_span();
    std::copy(in.begin(), in.begin() + count, buf.begin());
    RunResult r = scan_sp<T, Op>(ctx_->cluster().device(solo_),
                                 staging_[0].buffer(), staging_[0].buffer(),
                                 n_, g_, *plan_, kind, Op{},
                                 &ctx_->workspace());
    std::copy(buf.begin(), buf.begin() + count, out.begin());
    return r;
  }

  /// Latest instant any staging device has reached on either engine --
  /// the cluster-wide "now" a mid-run failure is diagnosed at.
  double cluster_front() {
    double t = 0.0;
    for (const Handle& h : staging_) {
      const simt::Device& d = ctx_->cluster().device(h.buffer().device_id());
      t = std::max({t, d.clock().now(), d.dma_clock().now()});
    }
    return t;
  }

  /// Run attempts until one completes. A CommError names its failed rank;
  /// a TransferError is blamed on an endpoint. Either way the device is
  /// marked down; then the proposal resumes in place, or the loop notes a
  /// restart and the next attempt re-places on the survivors and leases
  /// their staging; what failed attempts leave goes to `failed`.
  RunResult run_recovering(std::span<const T> in, std::span<T> out,
                           ScanKind kind, sim::FaultReport& failed) {
    sim::FaultInjector* fi = ctx_->cluster().fault_injector();
    bool resumed = false;
    for (int tries = 0;; ++tries) {
      if (!resumed) {
        const std::uint64_t epoch = this->fault_epoch_;
        std::vector<std::string> steps = this->prep_report_.replanned;
        prepare(n_, g_);  // re-places when a restart moved the epoch
        if (this->fault_epoch_ != epoch) {
          this->trace_placement();
          failed.replanned.insert(failed.replanned.end(), steps.begin(),
                                  steps.end());
        }
        staging_.clear();
        solo_ >= 0 ? lease(solo_, n_ * g_) : lease_staging(n_, g_);
        ctx_->cluster().reset_clocks();
      }
      try {
        return solo_ >= 0 ? run_sp(in, out, kind)
                          : run_attempt(in, out, kind, resumed);
      } catch (const msg::CommError& e) {
        if (fi == nullptr || tries >= recovery_limit()) throw;
        const int dead =
            staging_device(static_cast<std::size_t>(e.failed_rank));
        if (!fi->device_is_down(dead)) fi->mark_device_down(dead);
        resumed = recover(dead, e.failed_rank, cluster_front(), in,
                          e.counters, failed);
      } catch (const topo::TransferError& e) {
        if (fi == nullptr || tries >= recovery_limit()) throw;
        const double now = cluster_front();
        const int dead =
            detail::blame_endpoint(*fi, e.src_dev, e.dst_dev, master(), now);
        if (dead < 0) throw;
        resumed = recover(dead, -1, now, in, e.counters, failed);
      }
    }
  }

  /// After `dead` was marked down: the proposal's resume step (its
  /// checkpoint keeps the attempt's counters), else a noted restart that
  /// folds them (`seen`) into `failed`. Returns whether to resume.
  bool recover(int dead, int rank, double now, std::span<const T> in,
               const sim::FaultCounters& seen, sim::FaultReport& failed) {
    const bool resumed = resume(dead, now, in);
    failed.excluded_devices.push_back(dead);
    if (resumed) return true;
    failed.counters.merge(seen);
    std::vector<std::pair<std::string, std::string>> notes{
        {"executor", name()}};
    if (rank >= 0) notes.emplace_back("rank", std::to_string(rank));
    notes.emplace_back("dead", std::to_string(dead));
    obs::note_fault("restart", std::move(notes), now, dead);
    return false;
  }

  detail::ProposalKind kind_;
  int solo_ = -1;  ///< device of a Scan-SP placement; -1 = multi-GPU
};

namespace detail {

// ---------------------------------------------------------------- Scan-SP

template <typename T, typename Op>
class SpExecutorT final : public TypedScanExecutor<T, Op> {
 public:
  using Base = TypedScanExecutor<T, Op>;

  SpExecutorT(ScanContext& ctx, int device_id)
      : Base(ctx, ProposalKind::kSp), requested_(device_id),
        device_(device_id) {
    MGS_REQUIRE(device_id >= 0 && device_id < ctx.cluster().num_devices(),
                "Scan-SP executor: device id out of range");
  }

 private:
  using Base::ctx_;
  using Base::prep_report_;
  using typename Base::Placement;

  /// Placement: the requested device, or the first survivor when it is
  /// down.
  Placement place(std::int64_t, std::int64_t) override {
    device_ = requested_;
    if (is_down(*ctx_, device_)) {
      const auto alive = ctx_->cluster().alive_devices();
      MGS_REQUIRE(!alive.empty(), "Scan-SP executor: no surviving device");
      device_ = alive.front();
      prep_report_.degraded = true;
      prep_report_.degraded_mode =
          "Scan-SP on device " + std::to_string(device_);
      prep_report_.excluded_devices.push_back(requested_);
      prep_report_.replanned.push_back(
          "Scan-SP: device " + std::to_string(requested_) + " -> " +
          std::to_string(device_));
    }
    return {1, device_};
  }

  std::string placement() const override {
    return "Scan-SP on device " + std::to_string(device_);
  }

  int requested_;
  int device_;
};

// --------------------------------------------------- Scan-MPS (+ direct)

template <typename T, typename Op>
class MpsExecutorT final : public TypedScanExecutor<T, Op> {
 public:
  using Base = TypedScanExecutor<T, Op>;

  MpsExecutorT(ScanContext& ctx, int w, bool direct, PipelineChoice pipe)
      : Base(ctx, direct ? ProposalKind::kMpsDirect : ProposalKind::kMps,
             pipe),
        direct_(direct) {
    const auto& cfg = ctx.cluster().config();
    w_req_ = (w > 0) ? w
                     : (direct ? cfg.gpus_per_network : cfg.gpus_per_node());
    gpus_ = node_gpus(ctx.cluster(), 0, w_req_);  // validates w_req_
    w_ = w_req_;
  }

 private:
  using Base::ctx_;
  using Base::g_;
  using Base::n_;
  using Base::plan_;
  using Base::prep_report_;
  using Base::staging_;
  using typename Base::Placement;

  /// Placement: the requested W GPUs of node 0 when all are alive; the
  /// largest surviving prefix whose size divides N otherwise (direct mode
  /// additionally keeps only GPUs sharing the new master's PCIe network,
  /// since peer writes need P2P reach).
  Placement place(std::int64_t n, std::int64_t) override {
    const auto all = node_gpus(ctx_->cluster(), 0, w_req_);
    std::vector<int> alive;
    std::vector<int> dead;
    for (int id : all) (is_down(*ctx_, id) ? dead : alive).push_back(id);
    MGS_REQUIRE(!alive.empty(),
                "Scan-MPS executor: no surviving GPU on node 0");
    if (dead.empty()) {
      gpus_ = all;
      w_ = w_req_;
      MGS_REQUIRE(n % w_ == 0, "Scan-MPS executor: N must be divisible by W");
      return {w_, -1};
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
    const bool solo = (w2 == 1);
    this->degrade(std::move(dead));
    prep_report_.degraded_mode =
        solo ? ("Scan-SP on device " + std::to_string(gpus_.front()))
             : (this->name() + " W=" + std::to_string(w_));
    prep_report_.replanned.push_back(this->name() + ": W=" +
                                     std::to_string(w_req_) + " -> " +
                                     std::to_string(w_));
    return solo ? Placement{1, gpus_.front()} : Placement{w_, -1};
  }

  void lease_staging(std::int64_t n, std::int64_t g) override {
    for (int id : gpus_) this->lease(id, (n / w_) * g);
  }

  std::string placement() const override {
    std::ostringstream os;
    os << this->name() << " over " << w_ << " GPUs of node 0 (master "
       << gpus_.front() << ")";
    return os.str();
  }

  RunResult run_attempt(std::span<const T> in, std::span<T> out,
                        ScanKind kind, bool resumed) override {
    auto batches = this->staged(0, staging_.size());
    if (!resumed) scatter_batch<T>(in, batches, n_, g_);
    RunResult r =
        direct_ ? scan_mps_direct<T, Op>(ctx_->cluster(), gpus_, batches, n_,
                                         g_, *plan_, kind, Op{},
                                         &ctx_->workspace())
                : scan_mps<T, Op>(ctx_->cluster(), gpus_, batches, n_, g_,
                                  *plan_, kind, Op{}, &ctx_->workspace(),
                                  &ck_);
    gather_batch<T>(batches, n_, g_, out);
    return r;
  }

  void end_run() override {
    ck_ = {};
    Base::end_run();
  }

  /// One recovery per device that can still die.
  int recovery_limit() const override {
    return direct_ ? Base::recovery_limit() : w_req_;
  }

  /// Non-direct Scan-MPS recovers stage-granularly: the scan records
  /// per-stage progress in the checkpoint; the dead device's portions
  /// remap onto the least-loaded survivors (logical W and the chunk
  /// layout stay fixed, so Stage 2 still applies the operator in
  /// ascending portion order and results stay bit-identical to the
  /// healthy run), the lost portions' inputs restage from the host, and
  /// exactly the checkpoint flags whose backing buffers died regress. The
  /// next attempt continues from the last completed stage boundary.
  /// Scan-MPS-direct restarts instead: UVA peer writes leave no
  /// checkpointable intermediate on the master mid-kernel.
  bool resume(int dead, double now, std::span<const T> in) override {
    if (direct_) return false;
    topo::Cluster& cluster = ctx_->cluster();
    std::vector<int> portions;
    for (int i = 0; i < w_; ++i) {
      if (gpus_[static_cast<std::size_t>(i)] == dead) portions.push_back(i);
    }
    if (portions.empty()) throw;  // not a participant; cannot route around
    std::vector<int> pool;
    for (int id : node_gpus(cluster, 0, w_req_)) {
      if (!is_down(*ctx_, id)) pool.push_back(id);
    }
    if (pool.empty()) throw;  // no survivor to resume onto
    const bool master_died = (gpus_.front() == dead);

    const std::int64_t n_local = n_ / w_;
    const std::int64_t per_gpu = n_local * g_;
    const BatchLayout lay = make_layout(n_local, g_, plan_->s13);
    MpsCheckpoint<T>& ck = ck_;

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
      staging_[ii] = ctx_->workspace().template acquire<T>(dev, per_gpu);
      // Refill this portion's input from the host (same layout as
      // scatter_batch) and charge the H2D restage to the replacement's
      // clock -- lost time is real time.
      auto dst = staging_[ii].host_span();
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
                    {{"executor", this->name()},
                     {"dead", std::to_string(dead)},
                     {"boundary", boundary},
                     {"portions", std::to_string(portions.size())},
                     {"master", master_died ? "replaced" : "kept"}},
                    now, dead);
    return true;
  }

  bool direct_;
  int w_req_ = 1;
  int w_ = 1;
  std::vector<int> gpus_;
  MpsCheckpoint<T> ck_;  ///< the current run's progress
};

// -------------------------------------------------------------- Scan-MP-PC

template <typename T, typename Op>
class MppcExecutorT final : public TypedScanExecutor<T, Op> {
 public:
  using Base = TypedScanExecutor<T, Op>;

  MppcExecutorT(ScanContext& ctx, int y, int v, int m, PipelineChoice pipe)
      : Base(ctx, ProposalKind::kMppc, pipe) {
    const auto& cfg = ctx.cluster().config();
    y_ = (y > 0) ? y : cfg.networks_per_node;
    v_req_ = (v > 0) ? v : cfg.gpus_per_network;
    v_ = v_req_;
    m_ = (m > 0) ? m : 1;
  }

 private:
  using Base::ctx_;
  using Base::g_;
  using Base::n_;
  using Base::plan_;
  using Base::prep_report_;
  using typename Base::Placement;

  /// Placement: the paper's Y x V partition when every requested GPU is
  /// alive; otherwise the groups are rebuilt from the alive GPUs of each
  /// PCIe network (any slot of a network may substitute for a dead one),
  /// with a uniform V' = min over networks, shrunk until it divides N.
  /// Networks with no survivor are dropped; a single surviving GPU
  /// collapses to Scan-SP.
  Placement place(std::int64_t n, std::int64_t g) override {
    const auto& cfg = ctx_->cluster().config();
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
    if (dead.empty()) {
      MGS_REQUIRE(n % v_req_ == 0,
                  "Scan-MP-PC executor: N must be divisible by V");
      part_ = make_mppc_partition(ctx_->cluster(), y_, v_req_, g, m_);
      v_ = v_req_;
      return {v_, -1};
    }
    MGS_REQUIRE(!nets.empty(), "Scan-MP-PC executor: no surviving GPU");
    std::size_t v_min = nets.front().size();
    for (const auto& ids : nets) v_min = std::min(v_min, ids.size());
    int v2 = std::min(v_req_, static_cast<int>(v_min));
    while (v2 > 1 && n % v2 != 0) --v2;

    this->degrade(std::move(dead));
    Placement at;
    if (nets.size() == 1 && v2 == 1) {
      at.solo = nets.front().front();
      v_ = 1;
      prep_report_.degraded_mode =
          "Scan-SP on device " + std::to_string(at.solo);
    } else {
      v_ = v2;
      at.width = v2;
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
        std::to_string(at.solo >= 0 ? 1
                                    : static_cast<int>(part_.groups.size())));
    return at;
  }

  void lease_staging(std::int64_t n, std::int64_t) override {
    for (std::size_t grp = 0; grp < part_.groups.size(); ++grp) {
      for (int id : part_.groups[grp]) {
        this->lease(id, (n / v_) * part_.g_of_group[grp]);
      }
    }
  }

  std::string placement() const override {
    std::ostringstream os;
    os << "Scan-MP-PC with Y=" << y_ << " networks/node, V=" << v_
       << " GPUs/network, M=" << m_ << " nodes";
    return os.str();
  }

  std::string plan_note() const override {
    return " (" + std::to_string(part_.groups.size()) + " groups)";
  }

  /// No master: groups are independent, so a link death may be blamed on
  /// either endpoint.
  int master() const override { return -1; }

  /// Group-independent sub-scans make a partial result useless once any
  /// group loses a member, so recovery restarts (the default).
  RunResult run_attempt(std::span<const T> in, std::span<T> out,
                        ScanKind kind, bool) override {
    std::vector<std::vector<GpuBatch<T>>> batches;
    std::size_t first = 0;
    for (const auto& grp : part_.groups) {
      batches.push_back(this->staged(first, grp.size()));
      first += grp.size();
    }
    auto rows = [&](std::size_t grp) {
      return std::pair{static_cast<std::size_t>(part_.g_offset[grp] * n_),
                       static_cast<std::size_t>(part_.g_of_group[grp] * n_)};
    };
    for (std::size_t grp = 0; grp < batches.size(); ++grp) {
      const auto [at, len] = rows(grp);
      scatter_batch<T>(in.subspan(at, len), batches[grp], n_,
                       part_.g_of_group[grp]);
    }
    RunResult r = scan_mppc<T, Op>(ctx_->cluster(), part_, batches, n_,
                                   *plan_, kind, Op{}, &ctx_->workspace());
    for (std::size_t grp = 0; grp < batches.size(); ++grp) {
      const auto [at, len] = rows(grp);
      gather_batch<T>(batches[grp], n_, part_.g_of_group[grp],
                      out.subspan(at, len));
    }
    return r;
  }

  int y_ = 1;
  int v_req_ = 1;
  int v_ = 1;
  int m_ = 1;
  MppcPartition part_;
};

// --------------------------------------------------- multi-node Scan-MPS

template <typename T, typename Op>
class MultinodeExecutorT final : public TypedScanExecutor<T, Op> {
 public:
  using Base = TypedScanExecutor<T, Op>;

  MultinodeExecutorT(ScanContext& ctx, int m, int w, PipelineChoice pipe)
      : Base(ctx, ProposalKind::kMultinode, pipe) {
    const auto& cfg = ctx.cluster().config();
    m_ = (m > 0) ? m : cfg.nodes;
    w_ = (w > 0) ? w : cfg.gpus_per_node();
    MGS_REQUIRE(m_ <= cfg.nodes,
                "Scan-MPS-multinode executor: M exceeds the cluster");
    node_gpus(ctx.cluster(), 0, w_);  // validates w_ against the node shape
  }

 private:
  using Base::ctx_;
  using Base::g_;
  using Base::n_;
  using Base::plan_;
  using Base::prep_report_;
  using Base::staging_;
  using typename Base::Placement;

  /// Placement: one rank per requested GPU when all are alive; dead ranks
  /// are dropped otherwise, then surviving ranks are trimmed from the tail
  /// until the count divides N. A single survivor collapses to Scan-SP.
  Placement place(std::int64_t n, std::int64_t) override {
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
      comm_.emplace(ctx_->cluster(), std::move(ids));
      return {comm_->size(), -1};
    }
    const std::size_t survivors = ids.size();
    std::size_t r = survivors;
    while (r > 1 && n % static_cast<std::int64_t>(r) != 0) --r;
    ids.resize(r);
    this->degrade(std::move(dead));
    Placement at;
    if (r == 1) {
      at.solo = ids.front();
      comm_.reset();
      prep_report_.degraded_mode =
          "Scan-SP on device " + std::to_string(at.solo);
    } else {
      comm_.emplace(ctx_->cluster(), std::move(ids));
      at.width = comm_->size();
      prep_report_.degraded_mode =
          "Scan-MPS-multinode on " + std::to_string(r) + " ranks";
    }
    prep_report_.replanned.push_back(
        "Scan-MPS-multinode: ranks " + std::to_string(m_ * w_) + " -> " +
        std::to_string(r) +
        (r < survivors ? " (" + std::to_string(survivors - r) +
                             " surviving ranks idled so ranks divide N)"
                       : ""));
    return at;
  }

  /// One staging buffer per rank, in rank order (so a CommError's failed
  /// rank indexes the staging directly).
  void lease_staging(std::int64_t n, std::int64_t g) override {
    for (int r = 0; r < comm_->size(); ++r) {
      this->lease(comm_->device_of(r), (n / comm_->size()) * g);
    }
  }

  std::string placement() const override {
    std::ostringstream os;
    os << "Scan-MPS-multinode over " << m_ << " nodes x " << w_
       << " GPUs (one MPI rank per GPU)";
    return os.str();
  }

  RunResult run_attempt(std::span<const T> in, std::span<T> out,
                        ScanKind kind, bool) override {
    auto batches = this->staged(0, staging_.size());
    scatter_batch<T>(in, batches, n_, g_);
    RunResult r = scan_mps_multinode<T, Op>(*comm_, batches, n_, g_, *plan_,
                                            kind, Op{}, &ctx_->workspace());
    gather_batch<T>(batches, n_, g_, out);
    return r;
  }

  int m_ = 1;
  int w_ = 1;
  std::optional<msg::Communicator> comm_;
};

/// The one (proposal, T, Op, params) -> constructor mapping: the factory
/// table, the registry and SegmentedScan all build executors here. Each
/// constructor derives its own "0 = whole cluster" defaults.
template <typename T, typename Op>
std::unique_ptr<TypedScanExecutor<T, Op>> construct(ProposalKind kind,
                                                    ScanContext& ctx,
                                                    const ExecutorParams& p) {
  const PipelineChoice pipe{p.pipeline, p.waves};
  switch (kind) {
    case ProposalKind::kSp:
      return std::make_unique<SpExecutorT<T, Op>>(ctx, p.device);
    case ProposalKind::kMps:
    case ProposalKind::kMpsDirect:
      return std::make_unique<MpsExecutorT<T, Op>>(
          ctx, p.w, kind == ProposalKind::kMpsDirect, pipe);
    case ProposalKind::kMppc:
      return std::make_unique<MppcExecutorT<T, Op>>(ctx, p.y, p.v, p.m, pipe);
    case ProposalKind::kMultinode:
      return std::make_unique<MultinodeExecutorT<T, Op>>(ctx, p.m, p.w,
                                                         pipe);
  }
  throw util::Error("construct: unhandled proposal");
}

}  // namespace detail

/// Build one typed proposal executor by registry name. This is the typed
/// twin of make_executor(): wrappers that hold the executor by its
/// TypedScanExecutor interface (SegmentedScan) use it to keep run_typed()
/// callable; everyone else goes through the erased factories.
template <typename T, typename Op = Plus<T>>
std::unique_ptr<TypedScanExecutor<T, Op>> make_typed_executor(
    const std::string& name, ScanContext& ctx, const ExecutorParams& p = {}) {
  return detail::construct<T, Op>(detail::proposal_of(name), ctx, p);
}

namespace detail {

/// The (DType, OpTag) -> erased-constructor dispatch table. The table
/// *variable* is built only in executor.cpp and in the CI instantiation
/// guard -- never as an inline header constant -- so ordinary TUs
/// including this header do not instantiate the full proposal x dtype x
/// op matrix.
using ExecutorFactory = std::unique_ptr<ScanExecutor> (*)(
    ProposalKind, ScanContext&, const ExecutorParams&);

template <typename T, typename Op>
std::unique_ptr<ScanExecutor> construct_erased(ProposalKind kind,
                                               ScanContext& ctx,
                                               const ExecutorParams& p) {
  return construct<T, Op>(kind, ctx, p);
}

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

/// Every cell filled? static_asserted in executor.cpp and the guard TU,
/// so a new DType/OpTag enumerator that misses a row breaks the build
/// rather than null-dispatching at runtime.
constexpr bool table_is_dense(const FactoryTable& t) {
  for (int d = 0; d < kNumDTypes; ++d) {
    for (int o = 0; o < kNumOpTags; ++o) {
      if (!t.set[d][o]) return false;
    }
  }
  return true;
}

/// Fill one dtype row of the table with the three operator columns.
template <typename T>
constexpr void fill_row(FactoryTable& t) {
  const int d = static_cast<int>(*dtype_of_v<T>);
  t.fn[d][static_cast<int>(OpTag::kPlus)] = &construct_erased<T, Plus<T>>;
  t.fn[d][static_cast<int>(OpTag::kMax)] = &construct_erased<T, Max<T>>;
  t.fn[d][static_cast<int>(OpTag::kMin)] = &construct_erased<T, Min<T>>;
  for (const OpTag o : {OpTag::kPlus, OpTag::kMax, OpTag::kMin}) {
    t.set[d][static_cast<int>(o)] = true;
  }
}

/// The full 5 x 3 table. Instantiates every proposal over the whole
/// matrix -- call only from executor.cpp / the guard TU.
constexpr FactoryTable make_table() {
  FactoryTable t;
  fill_row<std::int32_t>(t);
  fill_row<std::int64_t>(t);
  fill_row<std::uint32_t>(t);
  fill_row<float>(t);
  fill_row<double>(t);
  return t;
}

}  // namespace detail

}  // namespace mgs::core
