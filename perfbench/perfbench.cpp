/// \file perfbench.cpp
/// Benchmark program for the multi-GPU batch-scan library.
///
/// One process, one caller, closed loop: every call waits for the previous
/// one, and the benchmark starts no threads of its own (the library's kernel
/// thread pool is the only parallelism). The benchmark goes through the public
/// API only -- ScanContext, the make_*_executor factories, executor_for and
/// ScanExecutor::prepare/run -- and checks every output outside the timed
/// region against a serial reference.
///
/// With --trace 0 it prints the end-to-end metrics; with --trace 1 it makes
/// a separate traced run that attributes host time to the library's layers
/// from outside, by timing its own calls into each layer's public functions
/// (README.md in this directory maps every metric to its layer and to the
/// workload it should move). The last line of stdout is one JSON object.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "mgs/core/api.hpp"
#include "mgs/core/kernels.hpp"
#include "mgs/msg/comm.hpp"
#include "mgs/obs/critical_path.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/simt/launch.hpp"
#include "mgs/simt/thread_pool.hpp"
#include "mgs/topo/transfer.hpp"
#include "mgs/util/random.hpp"

namespace {

using namespace mgs;
using Clock = std::chrono::steady_clock;
using core::DType;
using core::OpTag;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ CPU steal

/// Ticks (USER_HZ) of CPU time the hypervisor has taken from all vCPUs
/// since boot: the steal column of /proc/stat. 0 where it cannot be read,
/// so that every sample then counts as quiet.
long long steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  long long v[8] = {};
  const int got =
      std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

/// Fewest calls the gated host times are taken over.
constexpr std::size_t kMinQuietCalls = 5;

/// The samples the hypervisor left alone: those with no steal tick inside
/// them or, if fewer than `keep` were, the `keep` least-stolen ones. A
/// sample is anything with a `steal` member.
template <typename S>
std::vector<S> quiet(std::vector<S> v, std::size_t keep) {
  std::stable_sort(v.begin(), v.end(), [](const S& a, const S& b) {
    return a.steal < b.steal;
  });
  const auto zero = static_cast<std::size_t>(std::count_if(
      v.begin(), v.end(), [](const S& x) { return x.steal == 0; }));
  v.resize(std::min(v.size(), std::max(zero, keep)));
  return v;
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return (v.size() % 2 == 1) ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile: the smallest sample with at least a share q of
/// all samples at or below it.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ------------------------------------------------------- host-time spans

/// The benchmark's own host-time spans, recorded around its calls into the
/// library (never inside it). Kept in memory and written once at exit.
/// Disabled (one branch per span) outside the traced run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };
  struct SelfTime {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };

  void enable() { enabled_ = true; }

  int open(const char* name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_us(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  /// Per span name: count, total duration, and self time -- each span's
  /// duration minus the time its direct children cover (one caller, so
  /// children never overlap).
  std::map<std::string, SelfTime> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = spans_[i].end_us - spans_[i].start_us;
      SelfTime& t = out[spans_[i].name];
      ++t.count;
      t.total_us += d;
      t.self_us += d - child[i];
    }
    return out;
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                   "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                   i, s.parent, s.name.c_str(), s.start_us, s.end_us,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog& span_log() {
  static SpanLog log;
  return log;
}

class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(span_log().open(name)) {}
  ~SpanScope() { span_log().close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

/// Host milliseconds of f(), inside a span of the given name (the span
/// opens before and closes after the timed region).
template <typename F>
double timed_ms(const char* span, F&& f) {
  SpanScope s(span);
  const auto t0 = Clock::now();
  f();
  return ms_between(t0, Clock::now());
}

// ------------------------------------------------------ cells and inputs

/// The three committed (dtype, op) cells; the element type fixes the
/// operator.
template <typename T>
struct Cell;
template <>
struct Cell<std::int32_t> {
  using Op = core::Plus<std::int32_t>;
  static constexpr DType dtype = DType::kI32;
  static constexpr OpTag op = OpTag::kPlus;
};
template <>
struct Cell<double> {
  using Op = core::Max<double>;
  static constexpr DType dtype = DType::kF64;
  static constexpr OpTag op = OpTag::kMax;
};
template <>
struct Cell<std::int64_t> {
  using Op = core::Min<std::int64_t>;
  static constexpr DType dtype = DType::kI64;
  static constexpr OpTag op = OpTag::kMin;
};

/// Seeded inputs. i32 values lie in [-100, 100], so no prefix of up to
/// 2^24 elements overflows.
template <typename T>
std::vector<T> make_input(std::size_t count, std::uint64_t seed) {
  if constexpr (std::is_same_v<T, std::int32_t>) {
    return util::random_i32(count, seed);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return util::random_i64(count, seed, -1'000'000'000, 1'000'000'000);
  } else {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1e6, 1e6);
    std::vector<T> v(count);
    for (T& x : v) x = dist(rng);
    return v;
  }
}

/// Serial reference: std::inclusive_scan of each problem with the cell's
/// operator.
template <typename T>
void reference_scan(const std::vector<T>& in, std::int64_t n, std::int64_t g,
                    std::vector<T>& out) {
  const typename Cell<T>::Op op;
  for (std::int64_t r = 0; r < g; ++r) {
    std::inclusive_scan(in.begin() + r * n, in.begin() + (r + 1) * n,
                        out.begin() + r * n, op);
  }
}

template <typename T>
bool bit_equal(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// Overwrite an output before a call so a call that writes nothing cannot
/// pass verification on an earlier call's result.
template <typename T>
void poison(std::span<T> v) {
  std::memset(static_cast<void*>(v.data()), 0xA5, v.size_bytes());
}

// ------------------------------------------------------------ workloads

/// One closed-loop call: the timed region is the library call only.
struct Call {
  double host_ms = 0.0;
  long long steal = 0;  ///< steal ticks inside the timed region
  std::int64_t elems = 0;
  core::RunResult run;
  bool ok = false;
};

/// One replay of the layer functions a call uses, from outside. Times are
/// host milliseconds summed over the devices of one round; `calls` is the
/// number of workload calls the round stands for.
struct Replay {
  double chunk_reduce_ms = 0.0;
  double intermediate_scan_ms = 0.0;
  double scan_add_ms = 0.0;
  double copy_2d_ms = 0.0;
  double gather_ms = 0.0;
  double scatter_ms = 0.0;
  double barrier_ms = 0.0;  ///< all barriers of one call
  int barriers = 0;
  double stage_in_ms = 0.0;
  double stage_out_ms = 0.0;
  std::int64_t elems = 0;
  int calls = 1;
  bool ok = true;

  double total_ms() const {
    return chunk_reduce_ms + intermediate_scan_ms + scan_add_ms + copy_2d_ms +
           gather_ms + scatter_ms + barrier_ms + stage_in_ms + stage_out_ms;
  }
};

/// The Scan-SP kernel sequence on one device -- scan_sp's three stages, or
/// its single direct scan when a problem fits one chunk -- with every
/// launch timed into `rp`.
template <typename T>
void replay_sp_kernels(simt::Device& dev, const simt::DeviceBuffer<T>& in,
                       simt::DeviceBuffer<T>& out, simt::DeviceBuffer<T>& aux,
                       const core::BatchLayout& lay, const core::ScanPlan& p,
                       Replay& rp) {
  using Op = typename Cell<T>::Op;
  if (lay.bx == 1) {
    rp.scan_add_ms += timed_ms("simt.scan_add", [&] {
      core::launch_direct_scan(dev, in, out, lay, p.s13,
                               core::ScanKind::kInclusive, Op{});
    });
    return;
  }
  rp.chunk_reduce_ms += timed_ms("simt.chunk_reduce", [&] {
    core::launch_chunk_reduce(dev, in, aux, lay, p.s13, Op{});
  });
  rp.intermediate_scan_ms += timed_ms("simt.intermediate_scan", [&] {
    core::launch_intermediate_scan(dev, aux, lay.bx, lay.g, p.s2, Op{});
  });
  rp.scan_add_ms += timed_ms("simt.scan_add", [&] {
    core::launch_scan_add(dev, in, out, aux, lay, p.s13,
                          core::ScanKind::kInclusive, Op{});
  });
}

/// Planning costs measured from outside at the workload's shapes.
struct PlanTiming {
  double miss_ms = 0.0;     ///< plan_for on a fresh context (mean over shapes)
  double hit_us = 0.0;      ///< plan_for on a warm context
  double choose_us = 0.0;   ///< choose_proposal
  double candidates = 0.0;  ///< Autotuner::last_report().size() after a miss
};

/// Context counters, cumulative over the workload's live contexts.
struct Counters {
  double plan_hits = 0.0;
  double plan_misses = 0.0;
  double device_allocs = 0.0;
  double workspace_reuses = 0.0;

  void add(core::ScanContext& ctx) {
    plan_hits += static_cast<double>(ctx.plan_cache_hits());
    plan_misses += static_cast<double>(ctx.plan_cache_misses());
    device_allocs += static_cast<double>(ctx.workspace().device_allocations());
    workspace_reuses += static_cast<double>(ctx.workspace().reuses());
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Tear down, then build cluster, context and executor fresh, prepare and
  /// make the first call. Returns the host seconds of all of it; `ok`
  /// reports the first call's verification.
  virtual double setup(bool& ok) = 0;
  /// One closed-loop call, verified outside its timed region.
  virtual Call call() = 0;
  /// Calls that visit every input once (1, or one sweep pass).
  virtual int cycle() const { return 1; }
  virtual Replay replay() = 0;
  virtual PlanTiming plan_timing() = 0;
  virtual Counters counters() const = 0;
  /// Host ms of one serial std::inclusive_scan over all inputs.
  virtual double reference_ms() = 0;
  /// Elements of all inputs together (what reference_ms scans).
  virtual std::int64_t input_elems() const = 0;
  virtual std::int64_t bytes_per_array() const = 0;
  virtual std::string describe() const = 0;
  virtual simt::Device& device0() = 0;
};

/// First modeled seconds per shape: a later call of the same shape must
/// report the identical simulated time.
class ModeledCheck {
 public:
  bool same(std::size_t shape, double seconds) {
    const auto [it, fresh] = first_.emplace(shape, seconds);
    return fresh || it->second == seconds;
  }

 private:
  std::map<std::size_t, double> first_;
};

// ---------------------------------------------------- warm workloads

enum class Path { kSp, kMps, kMultinode };

struct WarmSpec {
  Path path = Path::kSp;
  int m = 1;  ///< nodes of the cluster, all used by the executor
  int w = 1;  ///< GPUs per node the executor uses
  std::int64_t n = 0;
  std::int64_t g = 1;
  core::PipelineChoice pipe;
};

/// A prepared executor called over and over on one shape.
template <typename T>
class WarmWorkload final : public Workload {
  using Op = typename Cell<T>::Op;

 public:
  WarmWorkload(WarmSpec spec, std::uint64_t seed)
      : spec_(spec),
        in_(make_input<T>(static_cast<std::size_t>(spec.n * spec.g), seed)),
        ref_(in_.size()),
        out_(in_.size()) {
    reference_scan(in_, spec_.n, spec_.g, ref_);
  }

  double setup(bool& ok) override {
    replay_.clear();
    exec_.reset();
    ctx_.reset();
    cluster_.reset();
    poison(std::span<T>(out_));
    const auto t0 = Clock::now();
    cluster_ = std::make_unique<topo::Cluster>(
        topo::tsubame_kfc_cluster(spec_.m));
    ctx_ = std::make_unique<core::ScanContext>(*cluster_);
    exec_ = make_executor();
    exec_->prepare(spec_.n, spec_.g);
    const core::RunResult r = exec_->run(std::span<const T>(in_),
                                         std::span<T>(out_),
                                         core::ScanKind::kInclusive);
    const double s = seconds_since(t0);
    ok = verify(r);
    return s;
  }

  Call call() override {
    Call c;
    c.elems = spec_.n * spec_.g;
    poison(std::span<T>(out_));
    {
      SpanScope span("executor.run");
      const long long s0 = steal_ticks();
      const auto t0 = Clock::now();
      c.run = exec_->run(std::span<const T>(in_), std::span<T>(out_),
                         core::ScanKind::kInclusive);
      c.host_ms = ms_between(t0, Clock::now());
      c.steal = steal_ticks() - s0;
    }
    c.ok = verify(c.run);
    return c;
  }

  Replay replay() override {
    SpanScope span("replay");
    switch (spec_.path) {
      case Path::kSp: return replay_sp();
      case Path::kMps: return replay_mps();
      case Path::kMultinode: return replay_multinode();
    }
    return {};
  }

  PlanTiming plan_timing() override {
    SpanScope span("plan");
    PlanTiming pt;
    core::ScanContext fresh(*cluster_);
    pt.miss_ms = timed_ms("core.plan_for.miss", [&] {
      fresh.plan_for(spec_.n, spec_.g, Cell<T>::dtype, Cell<T>::op,
                     gpus_per_problem());
    });
    pt.candidates = static_cast<double>(fresh.tuner().last_report().size());
    constexpr int kHits = 1000;
    pt.hit_us = timed_ms("core.plan_for.hit", [&] {
                  for (int i = 0; i < kHits; ++i) {
                    fresh.plan_for(spec_.n, spec_.g, Cell<T>::dtype,
                                   Cell<T>::op, gpus_per_problem());
                  }
                }) *
                1e3 / kHits;
    constexpr int kChoices = 100;
    pt.choose_us = timed_ms("core.choose_proposal", [&] {
                     for (int i = 0; i < kChoices; ++i) {
                       core::choose_proposal(
                           *cluster_, {spec_.n, spec_.g, Cell<T>::dtype,
                                       Cell<T>::op});
                     }
                   }) *
                   1e3 / kChoices;
    return pt;
  }

  Counters counters() const override {
    Counters c;
    c.add(*ctx_);
    return c;
  }

  double reference_ms() override {
    return timed_ms("ref.std_inclusive_scan",
                    [&] { reference_scan(in_, spec_.n, spec_.g, out_); });
  }

  std::int64_t input_elems() const override { return spec_.n * spec_.g; }
  std::int64_t bytes_per_array() const override {
    return spec_.n * spec_.g * static_cast<std::int64_t>(sizeof(T));
  }
  std::string describe() const override { return exec_->describe(); }
  simt::Device& device0() override { return cluster_->device(0); }

 private:
  std::unique_ptr<core::ScanExecutor> make_executor() {
    switch (spec_.path) {
      case Path::kSp:
        return core::make_sp_executor(*ctx_, 0, Cell<T>::dtype, Cell<T>::op);
      case Path::kMps:
        return core::make_mps_executor(*ctx_, spec_.w, false, spec_.pipe,
                                       Cell<T>::dtype, Cell<T>::op);
      case Path::kMultinode:
        return core::make_multinode_executor(*ctx_, spec_.m, spec_.w,
                                             spec_.pipe, Cell<T>::dtype,
                                             Cell<T>::op);
    }
    return nullptr;
  }

  int gpus_per_problem() const { return spec_.m * spec_.w; }

  /// Devices of the executor's placement in rank order: the first w GPUs
  /// of each node, network-major (the executors' order).
  std::vector<int> placement() const {
    const auto& cfg = cluster_->config();
    std::vector<int> ids;
    for (int node = 0; node < spec_.m; ++node) {
      for (int i = 0; i < spec_.w; ++i) {
        ids.push_back(cluster_->global_id(node, i / cfg.gpus_per_network,
                                          i % cfg.gpus_per_network));
      }
    }
    return ids;
  }

  bool verify(const core::RunResult& r) {
    const bool same = modeled_.same(0, r.seconds);
    return bit_equal(std::span<const T>(out_), std::span<const T>(ref_)) &&
           same;
  }

  /// The plan the executor runs (a cache hit on the executor's context).
  const core::ScanPlan& plan() {
    return ctx_->plan_for(spec_.n, spec_.g, Cell<T>::dtype, Cell<T>::op,
                          gpus_per_problem());
  }

  /// Replay buffers, allocated on first use and kept for the run.
  struct ReplayState {
    std::vector<core::GpuBatch<T>> batches;
    std::vector<simt::DeviceBuffer<T>> aux;     ///< per-device chunk totals
    std::vector<simt::DeviceBuffer<T>> prefix;  ///< per-device prefixes
    simt::DeviceBuffer<T> aux_all;              ///< master's combined array
    std::optional<msg::Communicator> comm;

    void clear() {
      comm.reset();
      batches.clear();
      aux.clear();
      prefix.clear();
      aux_all = {};
    }
  };

  void ensure_replay(const std::vector<int>& ids, std::int64_t per_dev,
                     std::int64_t aux_elems, std::int64_t all_elems) {
    if (!replay_.batches.empty()) return;
    for (int id : ids) {
      simt::Device& dev = cluster_->device(id);
      replay_.batches.push_back(
          {dev.template alloc<T>(per_dev), dev.template alloc<T>(per_dev)});
      replay_.aux.push_back(dev.template alloc<T>(aux_elems));
      replay_.prefix.push_back(dev.template alloc<T>(aux_elems));
    }
    simt::Device& master = cluster_->device(ids.front());
    replay_.aux_all = master.template alloc<T>(all_elems);
  }

  Replay replay_sp() {
    const core::ScanPlan& p = plan();
    const core::BatchLayout lay = core::make_layout(spec_.n, spec_.g, p.s13);
    ensure_replay(placement(), spec_.n * spec_.g, lay.aux_elems(), 1);
    simt::Device& dev = cluster_->device(0);
    auto& b = replay_.batches.front();
    auto& aux = replay_.aux.front();
    cluster_->reset_clocks();
    Replay rp;
    rp.elems = spec_.n * spec_.g;
    rp.stage_in_ms = timed_ms("core.stage_in", [&] {
      std::copy(in_.begin(), in_.end(), b.in.host_span().begin());
    });
    replay_sp_kernels(dev, b.in, b.out, aux, lay, p, rp);
    poison(std::span<T>(out_));
    rp.stage_out_ms = timed_ms("core.stage_out", [&] {
      const auto src = b.out.host_span();
      std::copy(src.begin(), src.begin() + rp.elems, out_.begin());
    });
    rp.ok = bit_equal(std::span<const T>(out_), std::span<const T>(ref_));
    return rp;
  }

  /// The synchronous Scan-MPS stage sequence: Stage 1 per GPU, strided aux
  /// gather to the master, Stage 2 on the master, strided scatter back,
  /// Stage 3 per GPU. The overlapped pipeline runs the same kernels and
  /// copies, split into waves.
  Replay replay_mps() {
    const core::ScanPlan& p = plan();
    const std::vector<int> ids = placement();
    const auto w = static_cast<std::int64_t>(ids.size());
    const core::BatchLayout lay =
        core::make_layout(spec_.n / w, spec_.g, p.s13);
    ensure_replay(ids, lay.elems_per_gpu(), lay.aux_elems(),
                  w * lay.aux_elems());
    cluster_->reset_clocks();
    topo::TransferEngine xfer(*cluster_);
    Replay rp;
    rp.elems = spec_.n * spec_.g;
    rp.stage_in_ms = timed_ms("core.stage_in", [&] {
      core::scatter_batch<T>(in_, replay_.batches, spec_.n, spec_.g);
    });
    for (std::size_t d = 0; d < ids.size(); ++d) {
      rp.chunk_reduce_ms += timed_ms("simt.chunk_reduce", [&] {
        core::launch_chunk_reduce(cluster_->device(ids[d]),
                                  replay_.batches[d].in, replay_.aux[d], lay,
                                  p.s13, Op{});
      });
    }
    const std::int64_t row_len = w * lay.bx;
    for (std::size_t d = 0; d < ids.size(); ++d) {
      rp.copy_2d_ms += timed_ms("topo.copy_2d", [&] {
        xfer.copy_2d(replay_.aux_all, static_cast<std::int64_t>(d) * lay.bx,
                     row_len, replay_.aux[d], 0, lay.bx, spec_.g, lay.bx);
      });
    }
    rp.intermediate_scan_ms = timed_ms("simt.intermediate_scan", [&] {
      core::launch_intermediate_scan(cluster_->device(ids.front()),
                                     replay_.aux_all, row_len, spec_.g, p.s2,
                                     Op{});
    });
    for (std::size_t d = 0; d < ids.size(); ++d) {
      rp.copy_2d_ms += timed_ms("topo.copy_2d", [&] {
        xfer.copy_2d(replay_.prefix[d], 0, lay.bx, replay_.aux_all,
                     static_cast<std::int64_t>(d) * lay.bx, row_len, spec_.g,
                     lay.bx);
      });
    }
    for (std::size_t d = 0; d < ids.size(); ++d) {
      rp.scan_add_ms += timed_ms("simt.scan_add", [&] {
        core::launch_scan_add(cluster_->device(ids[d]), replay_.batches[d].in,
                              replay_.batches[d].out, replay_.prefix[d], lay,
                              p.s13, core::ScanKind::kInclusive, Op{});
      });
    }
    poison(std::span<T>(out_));
    rp.stage_out_ms = timed_ms("core.stage_out", [&] {
      core::gather_batch<T>(replay_.batches, spec_.n, spec_.g, out_);
    });
    rp.ok = bit_equal(std::span<const T>(out_), std::span<const T>(ref_));
    return rp;
  }

  /// The synchronous multi-node sequence: entry barrier, Stage 1 per rank,
  /// MPI gather of the chunk totals (rank-major), Stage 2 on the master over
  /// the ranked layout, MPI scatter, Stage 3 per rank, exit barrier.
  Replay replay_multinode() {
    const core::ScanPlan& p = plan();
    const std::vector<int> ids = placement();
    const auto ranks = static_cast<std::int64_t>(ids.size());
    const core::BatchLayout lay =
        core::make_layout(spec_.n / ranks, spec_.g, p.s13);
    ensure_replay(ids, lay.elems_per_gpu(), lay.aux_elems(),
                  ranks * lay.aux_elems());
    if (!replay_.comm) replay_.comm.emplace(*cluster_, ids);
    msg::Communicator& comm = *replay_.comm;
    cluster_->reset_clocks();
    Replay rp;
    rp.elems = spec_.n * spec_.g;
    rp.stage_in_ms = timed_ms("core.stage_in", [&] {
      core::scatter_batch<T>(in_, replay_.batches, spec_.n, spec_.g);
    });
    rp.barrier_ms += timed_ms("msg.barrier", [&] { comm.barrier(); });
    ++rp.barriers;
    for (std::size_t r = 0; r < ids.size(); ++r) {
      rp.chunk_reduce_ms += timed_ms("simt.chunk_reduce", [&] {
        core::launch_chunk_reduce(cluster_->device(ids[r]),
                                  replay_.batches[r].in, replay_.aux[r], lay,
                                  p.s13, Op{});
      });
    }
    std::vector<msg::Slice<T>> slices;
    for (auto& a : replay_.aux) slices.push_back({&a, 0, lay.aux_elems()});
    rp.gather_ms = timed_ms("msg.gather", [&] {
      comm.gather(0, slices, replay_.aux_all, 0);
    });
    rp.intermediate_scan_ms = timed_ms("simt.intermediate_scan", [&] {
      core::launch_intermediate_scan_ranked(cluster_->device(ids.front()),
                                            replay_.aux_all, lay.bx, ranks,
                                            spec_.g, p.s2, Op{});
    });
    rp.scatter_ms = timed_ms("msg.scatter", [&] {
      comm.scatter(0, replay_.aux_all, 0, slices);
    });
    for (std::size_t r = 0; r < ids.size(); ++r) {
      rp.scan_add_ms += timed_ms("simt.scan_add", [&] {
        core::launch_scan_add(cluster_->device(ids[r]), replay_.batches[r].in,
                              replay_.batches[r].out, replay_.aux[r], lay,
                              p.s13, core::ScanKind::kInclusive, Op{});
      });
    }
    rp.barrier_ms += timed_ms("msg.barrier", [&] { comm.barrier(); });
    ++rp.barriers;
    poison(std::span<T>(out_));
    rp.stage_out_ms = timed_ms("core.stage_out", [&] {
      core::gather_batch<T>(replay_.batches, spec_.n, spec_.g, out_);
    });
    rp.ok = bit_equal(std::span<const T>(out_), std::span<const T>(ref_));
    return rp;
  }

  WarmSpec spec_;
  std::vector<T> in_;
  std::vector<T> ref_;
  std::vector<T> out_;
  ModeledCheck modeled_;
  std::unique_ptr<topo::Cluster> cluster_;
  std::unique_ptr<core::ScanContext> ctx_;
  std::unique_ptr<core::ScanExecutor> exec_;
  ReplayState replay_;  ///< declared last: its buffers die before cluster_
};

// --------------------------------------------------------- plan sweep

/// Cold-path workload: a fresh ScanContext per pass over a fixed list of 23
/// shapes in the three cells; every shape goes executor_for -> prepare ->
/// run as a plan-cache miss and then again as a hit. Shapes and order are
/// fixed so that every seed measures the same work -- which calls pay for
/// fresh workspace allocations depends on the order -- and the seed draws
/// the values.
class PlanSweep final : public Workload {
  template <typename T>
  struct Arrays {
    std::vector<T> in, ref, out;
  };
  using AnyArrays = std::variant<Arrays<std::int32_t>, Arrays<double>,
                                 Arrays<std::int64_t>>;
  struct Shape {
    int log2_n = 0;
    int log2_g = 0;
    AnyArrays data;
    std::int64_t n() const { return std::int64_t{1} << log2_n; }
    std::int64_t g() const { return std::int64_t{1} << log2_g; }
    std::int64_t elems() const { return n() * g(); }
  };

 public:
  explicit PlanSweep(std::uint64_t seed) {
    // One pass in visit order, the three cells interleaved: N in [2^10,
    // 2^20], G in [1, 2^10], at most 2^20 elements per call. (N, G) differ
    // between the two 8-byte cells, so every first visit is an autotuner
    // miss.
    enum { kI32, kF64, kI64 };
    const int table[23][3] = {
        {kI32, 20, 0}, {kF64, 10, 10}, {kI64, 10, 4},  //
        {kI32, 10, 0}, {kF64, 11, 2},  {kI64, 12, 8},  //
        {kI32, 11, 6}, {kF64, 12, 0},  {kI64, 15, 3},  //
        {kI32, 12, 3}, {kF64, 14, 5},  {kI64, 16, 0},  //
        {kI32, 13, 7}, {kF64, 15, 1},  {kI64, 17, 2},  //
        {kI32, 14, 0}, {kF64, 17, 0},  {kI64, 19, 1},  //
        {kI32, 16, 4}, {kF64, 18, 2},  {kI64, 20, 0},  //
        {kI32, 18, 0}, {kF64, 19, 0}};
    for (const auto& [cell, log2_n, log2_g] : table) {
      ++seed;
      if (cell == kI32) add_shape<std::int32_t>(log2_n, log2_g, seed);
      if (cell == kF64) add_shape<double>(log2_n, log2_g, seed);
      if (cell == kI64) add_shape<std::int64_t>(log2_n, log2_g, seed);
    }
  }

  /// Setup is seed-independent: the first table shape (i32, 2^20 x 1).
  double setup(bool& ok) override {
    exec_.reset();
    ctx_.reset();
    replay_plans_.reset();
    cluster_.reset();
    Shape& sh = shapes_.front();
    poison_out(sh);
    const auto t0 = Clock::now();
    cluster_ =
        std::make_unique<topo::Cluster>(topo::tsubame_kfc_cluster(2));
    ctx_ = std::make_unique<core::ScanContext>(*cluster_);
    core::RunResult r;
    run_shape(sh, r);
    const double s = seconds_since(t0);
    exec_.reset();
    ok = verify(0, r);
    cursor_ = cycle();  // the first call starts a pass on a fresh context
    return s;
  }

  Call call() override {
    if (cursor_ == cycle()) {
      done_.add(*ctx_);
      ctx_ = std::make_unique<core::ScanContext>(*cluster_);
      cursor_ = 0;
    }
    const std::size_t idx = static_cast<std::size_t>(cursor_) % shapes_.size();
    ++cursor_;
    Shape& sh = shapes_[idx];
    Call c;
    c.elems = sh.elems();
    poison_out(sh);
    {
      SpanScope span("executor_for+prepare+run");
      const long long s0 = steal_ticks();
      const auto t0 = Clock::now();
      run_shape(sh, c.run);
      c.host_ms = ms_between(t0, Clock::now());
      c.steal = steal_ticks() - s0;
    }
    exec_.reset();
    c.ok = verify(idx, c.run);
    return c;
  }

  /// One pass: every shape once as a plan-cache miss, then all but the
  /// last once more as a hit -- 45 calls. Each (shape, visit) is a group of
  /// similar call times, and neighbouring groups differ by up to a third.
  /// With an odd count and 0.9 * 45 = 40.5, p50 and p90 fall in the middle
  /// of one group instead of on the edge between two.
  int cycle() const override {
    return 2 * static_cast<int>(shapes_.size()) - 1;
  }

  /// Per shape: the Scan-SP kernel sequence at the shape's single-GPU plan
  /// on device 0, and the SP staging copies. The planner places batched
  /// shapes on Scan-MP-PC, which splits the same kernel work over GPUs.
  Replay replay() override {
    SpanScope span("replay");
    Replay rp;
    rp.calls = static_cast<int>(shapes_.size());
    if (!replay_plans_) {
      replay_plans_ = std::make_unique<core::ScanContext>(*cluster_);
    }
    core::ScanContext& plans = *replay_plans_;
    cluster_->reset_clocks();
    for (Shape& sh : shapes_) {
      std::visit(
          [&](auto& a) {
            using T = typename std::decay_t<decltype(a.in)>::value_type;
            replay_shape<T>(plans, sh, a, rp);
          },
          sh.data);
      rp.elems += sh.elems();
    }
    return rp;
  }

  PlanTiming plan_timing() override {
    SpanScope span("plan");
    PlanTiming pt;
    core::ScanContext fresh(*cluster_);
    constexpr int kHits = 100;
    constexpr int kChoices = 10;
    for (const Shape& sh : shapes_) {
      const auto cell = cell_of(sh);
      const core::PlannerInput in{sh.n(), sh.g(), cell.first, cell.second};
      const int gpp = gpus_per_problem(core::choose_proposal(*cluster_, in));
      pt.miss_ms += timed_ms("core.plan_for.miss", [&] {
        fresh.plan_for(sh.n(), sh.g(), in.dtype, in.op, gpp);
      });
      pt.candidates += static_cast<double>(fresh.tuner().last_report().size());
      pt.hit_us += timed_ms("core.plan_for.hit", [&] {
                     for (int i = 0; i < kHits; ++i) {
                       fresh.plan_for(sh.n(), sh.g(), in.dtype, in.op, gpp);
                     }
                   }) *
                   1e3 / kHits;
      pt.choose_us += timed_ms("core.choose_proposal", [&] {
                        for (int i = 0; i < kChoices; ++i) {
                          core::choose_proposal(*cluster_, in);
                        }
                      }) *
                      1e3 / kChoices;
    }
    const auto k = static_cast<double>(shapes_.size());
    pt.miss_ms /= k;
    pt.hit_us /= k;
    pt.choose_us /= k;
    pt.candidates /= k;
    return pt;
  }

  Counters counters() const override {
    Counters c = done_;
    if (ctx_) c.add(*ctx_);
    return c;
  }

  double reference_ms() override {
    return timed_ms("ref.std_inclusive_scan", [&] {
      for (Shape& sh : shapes_) {
        std::visit(
            [&](auto& a) { reference_scan(a.in, sh.n(), sh.g(), a.out); },
            sh.data);
      }
    });
  }

  std::int64_t input_elems() const override {
    std::int64_t e = 0;
    for (const Shape& sh : shapes_) e += sh.elems();
    return e;
  }

  std::int64_t bytes_per_array() const override {
    std::int64_t b = 0;
    for (const Shape& sh : shapes_) {
      std::visit(
          [&](const auto& a) {
            b = std::max<std::int64_t>(
                b, static_cast<std::int64_t>(a.in.size() *
                                             sizeof(a.in.front())));
          },
          sh.data);
    }
    return b;
  }

  std::string describe() const override {
    return "executor_for on a 2-node cluster: 23 shapes per pass, 45 calls "
           "(each shape a plan-cache miss, then all but the last a hit)";
  }

  simt::Device& device0() override { return cluster_->device(0); }

 private:
  template <typename T>
  void add_shape(int log2_n, int log2_g, std::uint64_t seed) {
    Shape sh;
    sh.log2_n = log2_n;
    sh.log2_g = log2_g;
    Arrays<T> a;
    a.in = make_input<T>(static_cast<std::size_t>(sh.elems()), seed);
    a.ref.resize(a.in.size());
    a.out.resize(a.in.size());
    reference_scan(a.in, sh.n(), sh.g(), a.ref);
    sh.data = std::move(a);
    shapes_.push_back(std::move(sh));
  }

  static std::pair<DType, OpTag> cell_of(const Shape& sh) {
    return std::visit(
        [](const auto& a) {
          using T = typename std::decay_t<decltype(a.in)>::value_type;
          return std::pair{Cell<T>::dtype, Cell<T>::op};
        },
        sh.data);
  }

  /// GPUs cooperating on one problem under a planner choice (the plan-cache
  /// key the chosen executor looks up).
  static int gpus_per_problem(const core::PlannerChoice& c) {
    switch (c.proposal) {
      case core::Proposal::kSingleGpu: return 1;
      case core::Proposal::kMps: return c.w;
      case core::Proposal::kMppc: return c.v;
      case core::Proposal::kMultiNode: return c.m * c.w;
    }
    return 1;
  }

  void run_shape(Shape& sh, core::RunResult& r) {
    const auto [dtype, op] = cell_of(sh);
    exec_ = ctx_->executor_for({sh.n(), sh.g(), dtype, op});
    exec_->prepare(sh.n(), sh.g());
    std::visit(
        [&](auto& a) {
          using T = typename std::decay_t<decltype(a.in)>::value_type;
          r = exec_->run(std::span<const T>(a.in), std::span<T>(a.out),
                         core::ScanKind::kInclusive);
        },
        sh.data);
  }

  static void poison_out(Shape& sh) {
    std::visit([](auto& a) { poison(std::span(a.out)); }, sh.data);
  }

  bool verify(std::size_t idx, const core::RunResult& r) {
    const bool same = modeled_.same(idx, r.seconds);
    return std::visit(
               [](const auto& a) {
                 using T = typename std::decay_t<decltype(a.in)>::value_type;
                 return bit_equal(std::span<const T>(a.out),
                                  std::span<const T>(a.ref));
               },
               shapes_[idx].data) &&
           same;
  }

  template <typename T>
  void replay_shape(core::ScanContext& plans, Shape& sh, Arrays<T>& a,
                    Replay& rp) {
    const core::ScanPlan& p =
        plans.plan_for(sh.n(), sh.g(), Cell<T>::dtype, Cell<T>::op, 1);
    const core::BatchLayout lay = core::make_layout(sh.n(), sh.g(), p.s13);
    simt::Device& dev = cluster_->device(0);
    auto in = dev.template alloc<T>(sh.elems());
    auto out = dev.template alloc<T>(sh.elems());
    auto aux =
        dev.template alloc<T>(std::max<std::int64_t>(lay.aux_elems(), 1));
    rp.stage_in_ms += timed_ms("core.stage_in", [&] {
      std::copy(a.in.begin(), a.in.end(), in.host_span().begin());
    });
    replay_sp_kernels(dev, in, out, aux, lay, p, rp);
    poison(std::span<T>(a.out));
    rp.stage_out_ms += timed_ms("core.stage_out", [&] {
      const auto src = out.host_span();
      std::copy(src.begin(), src.end(), a.out.begin());
    });
    rp.ok = rp.ok && bit_equal(std::span<const T>(a.out),
                               std::span<const T>(a.ref));
  }

  std::vector<Shape> shapes_;  ///< in visit order
  ModeledCheck modeled_;
  Counters done_;  ///< counters of contexts already retired
  int cursor_ = 0;
  std::unique_ptr<topo::Cluster> cluster_;
  std::unique_ptr<core::ScanContext> ctx_;
  std::unique_ptr<core::ScanExecutor> exec_;
  std::unique_ptr<core::ScanContext> replay_plans_;  ///< SP plans for replay
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  constexpr std::int64_t k1M = std::int64_t{1} << 20;
  if (name == "sp_bulk") {
    return std::make_unique<WarmWorkload<std::int32_t>>(
        WarmSpec{Path::kSp, 1, 1, 16 * k1M, 1, {}}, seed);
  }
  if (name == "mps_overlap") {
    return std::make_unique<WarmWorkload<std::int32_t>>(
        WarmSpec{Path::kMps, 1, 8, k1M, 16, {}}, seed);
  }
  if (name == "mn_sync") {
    return std::make_unique<WarmWorkload<double>>(
        WarmSpec{Path::kMultinode, 2, 4, k1M, 8,
                 {core::PipelineMode::kSync, 0}},
        seed);
  }
  if (name == "plan_sweep") return std::make_unique<PlanSweep>(seed);
  return nullptr;
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Counts collected from the obs::TraceSession of each traced call.
struct TraceTotals {
  int calls = 0;
  double launches = 0.0;
  double kernel_bytes = 0.0;
  double transfers = 0.0;
  double p2p_bytes = 0.0;
  double host_staged_bytes = 0.0;
  double mpi_ops = 0.0;
  double mpi_seconds = 0.0;
  double spans = 0.0;
  double stage1_s = 0.0;
  double stage2_s = 0.0;
  double stage3_s = 0.0;
  double recovery_s = 0.0;
  obs::CategorySeconds path;

  static double sum(const obs::MetricsSnapshot& snap, const std::string& name,
                    const std::string& kind = {}) {
    double s = 0.0;
    for (const obs::MetricValue& m : snap) {
      if (m.name != name) continue;
      if (!kind.empty()) {
        const auto it = std::find_if(
            m.labels.begin(), m.labels.end(),
            [&](const auto& l) {
              return l.first == "kind" && l.second == kind;
            });
        if (it == m.labels.end()) continue;
      }
      s += m.value;
    }
    return s;
  }

  void add(const obs::TraceSession& ts, const core::RunResult& r) {
    ++calls;
    const obs::MetricsSnapshot snap = ts.metrics().snapshot();
    launches += sum(snap, "kernel_launches_total");
    kernel_bytes += sum(snap, "kernel_bytes");
    transfers += sum(snap, "transfers_total");
    p2p_bytes += sum(snap, "transfer_bytes", "p2p");
    host_staged_bytes += sum(snap, "transfer_bytes", "host-staged");
    mpi_ops += sum(snap, "mpi_ops_total");
    mpi_seconds += sum(snap, "mpi_seconds");
    spans += static_cast<double>(ts.size());
    for (const auto& [phase, s] : r.breakdown.entries()) {
      if (phase == "Stage1") stage1_s += s;
      if (phase.rfind("Stage2", 0) == 0) stage2_s += s;
      if (phase == "Stage3") stage3_s += s;
      if (phase == "Recovery") recovery_s += s;
    }
    path.add(obs::analyze_last_run(ts.spans()).by_category);
  }

  double per_call(double v) const { return ratio(v, calls); }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_out;
  std::string git_sha = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
      } else if (k == "--spans-out") {
        a.spans_out = v;
      } else if (k == "--git-sha") {
        a.git_sha = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0 && std::isfinite(a.seconds);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Tally of verified operations.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Make one call, counting a thrown error as a failed call.
std::optional<Call> checked_call(Workload& w, Tally& t) {
  try {
    Call c = w.call();
    t.record(c.ok);
    return c;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "call failed: %s\n", e.what());
    t.record(false);
    return std::nullopt;
  }
}

/// Whether a loop that started at t0 should make another call: until
/// `seconds` have passed and a whole number of cycles is done, or at most
/// twice as long when every call keeps failing.
bool keep_going(Clock::time_point t0, double seconds, std::size_t calls,
                const Workload& w) {
  const double el = seconds_since(t0);
  if (el >= 2.0 * seconds + 5.0) return false;
  return el < seconds || calls % static_cast<std::size_t>(w.cycle()) != 0;
}

void warm_up(Workload& w, double seconds, Tally& t) {
  const auto t0 = Clock::now();
  std::size_t calls = 0;
  do {
    checked_call(w, t);
    ++calls;
  } while (keep_going(t0, seconds, calls, w));
}

void print_json(bool correct, const Tally& t,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(t.attempted),
              static_cast<long long>(t.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// A fresh set-up's host seconds and the steal ticks inside it.
struct Setup {
  double seconds = 0.0;
  long long steal = 0;
};

/// End-to-end run (tracing off).
int run_end_to_end(Workload& w, const Args& a, Tally& t) {
  // Fresh set-ups: one now and the rest spread evenly over the timed
  // phase, so that a slow phase of the machine hits few of them. Each
  // leaves a prepared executor that the calls after it go on using.
  std::vector<Setup> setups;
  const auto fresh_setup = [&] {
    bool ok = false;
    const long long s0 = steal_ticks();
    const double s = w.setup(ok);
    setups.push_back({s, steal_ticks() - s0});
    t.record(ok);
  };
  const std::size_t n_setups = a.smoke ? 2 : 15;
  fresh_setup();
  std::printf("executor: %s\n", w.describe().c_str());
  warm_up(w, std::max(0.5, 0.1 * a.seconds), t);

  // Timed phase: whole cycles until --seconds have passed. Only the library
  // call is timed; poisoning and verification lie outside it.
  std::vector<Call> samples;
  const auto t0 = Clock::now();
  const double setup_every = a.seconds / static_cast<double>(n_setups);
  std::size_t calls = 0;
  do {
    if (setups.size() < n_setups &&
        calls % static_cast<std::size_t>(w.cycle()) == 0 &&
        seconds_since(t0) >=
            setup_every * static_cast<double>(setups.size())) {
      fresh_setup();
    }
    std::optional<Call> c = checked_call(w, t);
    ++calls;
    if (c) samples.push_back(std::move(*c));
  } while (keep_going(t0, a.seconds, calls, w));
  const double wall_s = seconds_since(t0);

  // Host time over a set of calls: per-call milliseconds and throughput.
  struct Host {
    std::vector<double> ms;
    double melem_s = 0.0;
  };
  const auto host = [](const std::vector<Call>& cs) {
    Host h;
    double elems = 0.0;
    for (const Call& c : cs) {
      h.ms.push_back(c.host_ms);
      elems += static_cast<double>(c.elems);
    }
    h.melem_s = ratio(elems / 1e6,
                      std::accumulate(h.ms.begin(), h.ms.end(), 0.0) / 1e3);
    return h;
  };
  const Host all = host(samples);
  // The gated host times use only the calls during which the hypervisor
  // took no CPU from the VM: steal on a shared host moves whole runs by
  // tens of percent (README, "Bounds").
  const std::vector<Call> quiet_calls = quiet(samples, kMinQuietCalls);
  const Host q = host(quiet_calls);
  std::vector<double> setup_s;
  for (const Setup& s : quiet(setups, (setups.size() + 2) / 3)) {
    setup_s.push_back(s.seconds);
  }
  double payload = 0.0;
  double modeled_s = 0.0;
  for (const Call& c : samples) {
    payload += static_cast<double>(c.run.payload_bytes);
    modeled_s += c.run.seconds;
  }

  std::printf("timed phase: %zu calls in %.3f s wall, %.3f s inside calls\n",
              samples.size(), wall_s,
              std::accumulate(all.ms.begin(), all.ms.end(), 0.0) / 1e3);
  std::printf("quiet: %zu of %zu calls and %zu of %zu set-ups used (%zu "
              "calls and %zu set-ups without steal)\n",
              quiet_calls.size(), samples.size(), setup_s.size(),
              setups.size(), quiet(samples, 0).size(),
              quiet(setups, 0).size());
  // Reported, not gated: all calls, whatever the steal (README, "Bounds").
  std::printf("scan_ms_p50: %.6f ms over all calls (not gated)\n",
              median(all.ms));
  std::printf("scan_ms_p90: %.6f ms over all calls (%zu samples beyond it; "
              "not gated)\n",
              percentile(all.ms, 0.9),
              all.ms.size() - static_cast<std::size_t>(std::ceil(
                                  0.9 * static_cast<double>(all.ms.size()))));
  std::printf("host_Melem_s: %.6f Melem/s over all calls (not gated)\n",
              all.melem_s);
  std::printf("failed_frac: %.6f (%lld of %lld verified calls)\n",
              ratio(static_cast<double>(t.failed),
                    static_cast<double>(t.attempted)),
              static_cast<long long>(t.failed),
              static_cast<long long>(t.attempted));

  const std::vector<Metric> metrics = {
      {"quiet_scan_ms_p50", median(q.ms), "ms"},
      {"quiet_host_Melem_s", q.melem_s, "Melem/s"},
      {"modeled_GBps", ratio(payload / 1e9, modeled_s), "GB/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_MiB", peak_rss_mib(), "MiB"},
  };
  print_metrics(metrics);
  print_json(t.failed == 0 && !samples.empty(), t, metrics);
  return 0;
}

/// Traced run: per-layer attribution from outside.
int run_traced(Workload& w, const Args& a, Tally& t, double ref_ms) {
  span_log().enable();
  {
    bool ok = false;
    w.setup(ok);
    t.record(ok);
  }
  std::printf("executor: %s\n", w.describe().c_str());
  warm_up(w, std::max(0.5, 0.1 * a.seconds), t);

  // Phase A: untraced and traced cycles alternate, so drift hits both.
  const Counters before = w.counters();
  std::vector<double> plain;
  std::vector<double> traced;
  TraceTotals tt;
  const auto t0 = Clock::now();
  do {
    for (int i = 0; i < w.cycle(); ++i) {
      if (auto c = checked_call(w, t)) plain.push_back(c->host_ms);
    }
    for (int i = 0; i < w.cycle(); ++i) {
      obs::TraceSession session;
      if (auto c = checked_call(w, t)) {
        traced.push_back(c->host_ms);
        tt.add(session, c->run);
      }
    }
  } while (seconds_since(t0) < 0.5 * a.seconds);
  const Counters after = w.counters();
  const auto calls_a = static_cast<double>(plain.size() + traced.size());

  // Phase B: replay each layer's functions until the run time is used up.
  std::vector<Replay> replays;
  std::vector<double> launch_us;
  std::vector<PlanTiming> plans;
  simt::DeviceBuffer<int> sink = w.device0().alloc<int>(32);
  const auto t1 = Clock::now();
  do {
    Replay rp = w.replay();
    t.record(rp.ok);
    replays.push_back(rp);
    for (int i = 0; i < 20; ++i) {
      simt::LaunchConfig cfg;
      cfg.name = "perfbench_minimal";
      cfg.grid = {32, 1, 1};
      cfg.block = {128, 1, 1};
      const auto view = sink.view();
      launch_us.push_back(1e3 * timed_ms("simt.launch", [&] {
                            simt::launch(w.device0(), cfg,
                                         [=](simt::BlockCtx& ctx) {
                                           view.store(ctx.block_idx().x, 1,
                                                      ctx.stats());
                                         });
                          }));
    }
    plans.push_back(w.plan_timing());
  } while (seconds_since(t1) < 0.5 * a.seconds || replays.size() < 3);

  const auto per_call = [&](auto field) {
    std::vector<double> v;
    for (const Replay& r : replays) v.push_back(field(r) / r.calls);
    return median(v);
  };
  const auto plan_med = [&](auto field) {
    std::vector<double> v;
    for (const PlanTiming& p : plans) v.push_back(field(p));
    return median(v);
  };
  const double cr = per_call([](const Replay& r) { return r.chunk_reduce_ms; });
  const double is =
      per_call([](const Replay& r) { return r.intermediate_scan_ms; });
  const double sa = per_call([](const Replay& r) { return r.scan_add_ms; });
  const double replay_ms =
      per_call([](const Replay& r) { return r.total_ms(); });
  const double replay_elems =
      per_call([](const Replay& r) { return static_cast<double>(r.elems); });
  const int barriers = replays.front().barriers;
  const double barrier_ms =
      per_call([](const Replay& r) { return r.barrier_ms; });
  const double miss_ms =
      plan_med([](const PlanTiming& p) { return p.miss_ms; });
  const double hit_us = plan_med([](const PlanTiming& p) { return p.hit_us; });
  const double choose_us =
      plan_med([](const PlanTiming& p) { return p.choose_us; });

  const double hits = after.plan_hits - before.plan_hits;
  const double misses = after.plan_misses - before.plan_misses;
  const double lookups = hits + misses;
  const double acquires = (after.device_allocs - before.device_allocs) +
                          (after.workspace_reuses - before.workspace_reuses);

  // Self time of the executor: call time minus the replayed layer times and
  // the plan lookups the calls made. Warm workloads: p50 of a single-shape
  // call. The sweep mixes shapes inside every pass, so it uses means, and
  // each of its calls also runs choose_proposal once (executor_for).
  double self_ms = median(plain) - replay_ms;
  if (w.cycle() > 1) {
    self_ms = mean(plain) - replay_ms - choose_us / 1e3;
  }
  self_ms -= ratio(misses * miss_ms + hits * hit_us / 1e3, calls_a);

  std::printf("phase A: %zu untraced + %zu traced calls; phase B: %zu replay "
              "rounds\n",
              plain.size(), traced.size(), replays.size());
  std::printf("bases: plan_cache_hit_ratio over %.3f plan_for lookups per "
              "call; workspace_reuse_ratio over %.3f workspace acquires per "
              "call; barriers per call replayed: %d\n",
              ratio(lookups, calls_a), ratio(acquires, calls_a), barriers);
  for (const auto& [name, st] : span_log().self_times()) {
    std::printf("span %-28s n=%-6zu total_ms=%12.3f self_ms=%12.3f\n",
                name.c_str(), st.count, st.total_us / 1e3, st.self_us / 1e3);
  }

  const std::vector<Metric> metrics = {
      {"simt.chunk_reduce_ms", cr, "ms"},
      {"simt.intermediate_scan_ms", is, "ms"},
      {"simt.scan_add_ms", sa, "ms"},
      {"simt.ns_per_elem", ratio((cr + is + sa) * 1e6, replay_elems), "ns"},
      {"simt.launch_us", median(launch_us), "us"},
      {"simt.launches_per_call", tt.per_call(tt.launches), "count"},
      {"simt.kernel_bytes_per_call", tt.per_call(tt.kernel_bytes), "B"},
      {"simt.pool_workers",
       static_cast<double>(simt::ThreadPool::instance().workers()), "count"},
      {"sim.stage1_s", tt.per_call(tt.stage1_s), "s"},
      {"sim.stage2_s", tt.per_call(tt.stage2_s), "s"},
      {"sim.stage3_s", tt.per_call(tt.stage3_s), "s"},
      {"sim.recovery_s", tt.per_call(tt.recovery_s), "s"},
      {"sim.compute_s", tt.per_call(tt.path[obs::Category::kCompute]), "s"},
      {"sim.p2p_s", tt.per_call(tt.path[obs::Category::kP2P]), "s"},
      {"sim.host_staged_s", tt.per_call(tt.path[obs::Category::kHostStaged]),
       "s"},
      {"sim.mpi_s", tt.per_call(tt.path[obs::Category::kMpi]), "s"},
      {"sim.idle_s", tt.per_call(tt.path[obs::Category::kIdle]), "s"},
      {"topo.copy_2d_ms",
       per_call([](const Replay& r) { return r.copy_2d_ms; }), "ms"},
      {"topo.transfers_per_call", tt.per_call(tt.transfers), "count"},
      {"topo.p2p_bytes_per_call", tt.per_call(tt.p2p_bytes), "B"},
      {"topo.host_staged_bytes_per_call", tt.per_call(tt.host_staged_bytes),
       "B"},
      {"msg.gather_ms", per_call([](const Replay& r) { return r.gather_ms; }),
       "ms"},
      {"msg.scatter_ms", per_call([](const Replay& r) { return r.scatter_ms; }),
       "ms"},
      {"msg.barrier_us", barriers > 0 ? 1e3 * barrier_ms / barriers : 0.0,
       "us"},
      {"msg.mpi_ops_per_call", tt.per_call(tt.mpi_ops), "count"},
      {"msg.mpi_seconds_per_call", tt.per_call(tt.mpi_seconds), "s"},
      {"core.stage_in_ms",
       per_call([](const Replay& r) { return r.stage_in_ms; }), "ms"},
      {"core.stage_out_ms",
       per_call([](const Replay& r) { return r.stage_out_ms; }), "ms"},
      {"core.executor_self_ms", self_ms, "ms"},
      {"core.plan_miss_ms", miss_ms, "ms"},
      {"core.plan_hit_us", hit_us, "us"},
      {"core.choose_proposal_us", choose_us, "us"},
      {"core.autotune_candidates",
       plan_med([](const PlanTiming& p) { return p.candidates; }), "count"},
      {"core.plan_lookups_per_call", ratio(lookups, calls_a), "count"},
      {"core.plan_cache_hit_ratio",
       ratio(hits, lookups), "ratio"},
      {"core.workspace_acquires_per_call", ratio(acquires, calls_a), "count"},
      {"core.workspace_reuse_ratio",
       ratio(after.workspace_reuses - before.workspace_reuses, acquires),
       "ratio"},
      {"core.device_allocs_per_call",
       ratio(after.device_allocs - before.device_allocs, calls_a), "count"},
      {"obs.trace_overhead_ratio", ratio(median(traced), median(plain)),
       "ratio"},
      {"obs.spans_per_call", tt.per_call(tt.spans), "count"},
      {"ref.std_scan_Melem_s",
       ratio(static_cast<double>(w.input_elems()) / 1e6, ref_ms / 1e3),
       "Melem/s"},
  };
  print_metrics(metrics);
  if (!a.spans_out.empty() && !span_log().write_json(a.spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", a.spans_out.c_str());
  }
  print_json(t.failed == 0 && !plain.empty() && !traced.empty(), t, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "sp_bulk|mps_overlap|mn_sync|plan_sweep --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE] [--git-sha SHA] [--smoke]\n");
    return 2;
  }
  std::unique_ptr<Workload> w;
  try {
    w = make_workload(a.workload, a.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "input generation failed: %s\n", e.what());
    return 1;
  }
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  // Run record: context for the host numbers, never gated.
  std::vector<double> ref;
  for (int i = 0; i < 3; ++i) ref.push_back(w->reference_ms());
  const double ref_ms = median(ref);
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d git=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, a.git_sha.c_str());
  std::printf("record: nproc=%u pool_workers=%d (the caller also drains the "
              "pool) bytes_per_array=%lld llc_bytes=%ld "
              "ref.std_scan_Melem_s=%.3f\n",
              std::thread::hardware_concurrency(),
              simt::ThreadPool::instance().workers(),
              static_cast<long long>(w->bytes_per_array()), llc,
              ratio(static_cast<double>(w->input_elems()) / 1e6,
                    ref_ms / 1e3));
  std::fflush(stdout);

  Tally t;
  try {
    return a.trace ? run_traced(*w, a, t, ref_ms) : run_end_to_end(*w, a, t);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
