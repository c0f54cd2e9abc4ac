#pragma once
/// \file transfer.hpp
/// Device-to-device copies over the cluster's links, with simulated-time
/// accounting. This is the CUDA side of the paper's communication story:
/// cudaMemcpyPeer over a shared PCIe network, or a D2H+H2D staging pair
/// when the GPUs sit on different PCIe networks of the same node.
/// Inter-node traffic normally goes through mgs::msg (MPI), but a raw
/// GPUDirect-RDMA copy is also provided.
///
/// Resilience: when the cluster has a sim::FaultInjector attached, every
/// copy runs an attempt loop -- transient failures retry with exponential
/// backoff (retries cost modeled time), attempts beyond the plan's
/// per-message timeout are abandoned and retried, a down P2P link is
/// rerouted through host staging, and corrupted payloads are caught by a
/// checksum comparison and re-transferred. Exhausting the retry budget or
/// touching a down device raises TransferError; nothing is ever silently
/// wrong. Without an injector the legacy single-attempt path runs
/// unchanged (bit-identical modeled times).

#include <algorithm>
#include <cstdint>

#include "mgs/sim/fault.hpp"
#include "mgs/sim/timeline.hpp"
#include "mgs/simt/stream.hpp"
#include "mgs/topo/topology.hpp"

namespace mgs::topo {

/// Typed error for a copy that could not be completed: a down endpoint, a
/// down link with no alternate route, or a retry budget exhausted by
/// transient failures / timeouts. `counters` are the throwing engine's
/// fault counters, this failure included, so a caller that restarts can
/// still report what the aborted attempt saw.
class TransferError : public util::Error {
 public:
  TransferError(const std::string& what, int src_dev, int dst_dev,
                const sim::FaultCounters& counters = {})
      : util::Error(what), src_dev(src_dev), dst_dev(dst_dev),
        counters(counters) {}
  int src_dev;
  int dst_dev;
  sim::FaultCounters counters;
};

/// Outcome of one copy.
struct TransferResult {
  double seconds = 0.0;
  LinkType link = LinkType::kSelf;
  std::uint64_t bytes = 0;
};

/// Outcome of an asynchronous copy: the usual accounting plus a completion
/// event consumers can wait on (simt::Stream::wait).
struct AsyncResult {
  TransferResult result;
  simt::Event done;
};

/// Executes copies between device buffers (data moves immediately; clocks
/// advance by the modeled link time). Accumulates a per-link breakdown.
class TransferEngine {
 public:
  explicit TransferEngine(Cluster& cluster) : cluster_(&cluster) {}

  /// Copy `count` elements from src[src_off...] to dst[dst_off...].
  /// Start time is the later of the two device clocks (the copy engine
  /// needs both endpoints); both clocks advance to completion.
  template <typename T>
  TransferResult copy(simt::DeviceBuffer<T>& dst, std::int64_t dst_off,
                      const simt::DeviceBuffer<T>& src, std::int64_t src_off,
                      std::int64_t count) {
    MGS_CHECK(count >= 0, "TransferEngine::copy: negative count");
    MGS_CHECK(src_off >= 0 && src_off + count <= src.size(),
              "TransferEngine::copy: source range out of bounds");
    MGS_CHECK(dst_off >= 0 && dst_off + count <= dst.size(),
              "TransferEngine::copy: destination range out of bounds");

    const std::uint64_t bytes =
        static_cast<std::uint64_t>(count) * sizeof(T);
    bool corrupt_once = false;
    const TransferResult r = account(src.device_id(), dst.device_id(), bytes,
                                     0, false, corrupt_once);

    const auto s = src.host_span();
    auto d = dst.host_span();
    for (std::int64_t i = 0; i < count; ++i) {
      d[static_cast<std::size_t>(dst_off + i)] =
          s[static_cast<std::size_t>(src_off + i)];
    }
    if (corrupt_once && count > 0) {
      verify_and_repair(d, dst_off, s, src_off, count);
    }
    return r;
  }

  /// Strided 2-D copy (cudaMemcpy2D): `rows` rows of `row_len` elements;
  /// row r reads src[src_off + r*src_stride ...] and writes
  /// dst[dst_off + r*dst_stride ...]. One link latency for the whole call
  /// plus a per-row DMA descriptor overhead -- with many small per-problem
  /// auxiliary rows (large G), the row overhead dominates, which is the
  /// paper's explanation for the W=8 drop in Figure 9.
  template <typename T>
  TransferResult copy_2d(simt::DeviceBuffer<T>& dst, std::int64_t dst_off,
                         std::int64_t dst_stride,
                         const simt::DeviceBuffer<T>& src,
                         std::int64_t src_off, std::int64_t src_stride,
                         std::int64_t rows, std::int64_t row_len) {
    MGS_CHECK(rows >= 0 && row_len >= 0, "copy_2d: negative shape");
    if (rows == 0 || row_len == 0) return {};
    MGS_CHECK(src_off >= 0 &&
                  src_off + (rows - 1) * src_stride + row_len <= src.size(),
              "copy_2d: source range out of bounds");
    MGS_CHECK(dst_off >= 0 &&
                  dst_off + (rows - 1) * dst_stride + row_len <= dst.size(),
              "copy_2d: destination range out of bounds");

    const std::uint64_t bytes =
        static_cast<std::uint64_t>(rows) * row_len * sizeof(T);
    bool corrupt_once = false;
    const TransferResult r =
        account(src.device_id(), dst.device_id(), bytes,
                static_cast<std::uint64_t>(rows), true, corrupt_once);

    const auto s = src.host_span();
    auto d = dst.host_span();
    for (std::int64_t row = 0; row < rows; ++row) {
      for (std::int64_t i = 0; i < row_len; ++i) {
        d[static_cast<std::size_t>(dst_off + row * dst_stride + i)] =
            s[static_cast<std::size_t>(src_off + row * src_stride + i)];
      }
    }
    if (corrupt_once) {
      // Verify/repair row by row (the checksum covers the strided ranges).
      for (std::int64_t row = 0; row < rows; ++row) {
        verify_and_repair(d, dst_off + row * dst_stride, s,
                          src_off + row * src_stride, row_len);
      }
    }
    return r;
  }

  /// Asynchronous copy (cudaMemcpyPeerAsync): serializes on the two
  /// endpoints' DMA engines instead of their compute clocks, so a copy can
  /// overlap with kernels running on either device. `ready` is an upstream
  /// dependency (typically the producer kernel's completion event): the
  /// copy cannot start before it. Data still moves immediately (functional
  /// substrate); only the modeled start/finish times differ from copy().
  /// The fault-retry loop is identical to the synchronous path.
  template <typename T>
  AsyncResult copy_async(simt::DeviceBuffer<T>& dst, std::int64_t dst_off,
                         const simt::DeviceBuffer<T>& src,
                         std::int64_t src_off, std::int64_t count,
                         simt::Event ready = {}) {
    MGS_CHECK(count >= 0, "TransferEngine::copy_async: negative count");
    MGS_CHECK(src_off >= 0 && src_off + count <= src.size(),
              "TransferEngine::copy_async: source range out of bounds");
    MGS_CHECK(dst_off >= 0 && dst_off + count <= dst.size(),
              "TransferEngine::copy_async: destination range out of bounds");

    const std::uint64_t bytes =
        static_cast<std::uint64_t>(count) * sizeof(T);
    bool corrupt_once = false;
    double done = 0.0;
    const TransferResult r =
        account_on(src.device_id(), dst.device_id(), bytes, 0, false,
                   corrupt_once, sim::Engine::kDma, ready.seconds, &done);

    const auto s = src.host_span();
    auto d = dst.host_span();
    if (count > 0) {
      std::copy(s.begin() + src_off, s.begin() + (src_off + count),
                d.begin() + dst_off);
    }
    if (corrupt_once && count > 0) {
      verify_and_repair(d, dst_off, s, src_off, count);
    }
    return AsyncResult{r, simt::Event{done}};
  }

  /// Asynchronous strided 2-D copy; see copy_2d and copy_async.
  template <typename T>
  AsyncResult copy_2d_async(simt::DeviceBuffer<T>& dst, std::int64_t dst_off,
                            std::int64_t dst_stride,
                            const simt::DeviceBuffer<T>& src,
                            std::int64_t src_off, std::int64_t src_stride,
                            std::int64_t rows, std::int64_t row_len,
                            simt::Event ready = {}) {
    MGS_CHECK(rows >= 0 && row_len >= 0, "copy_2d_async: negative shape");
    if (rows == 0 || row_len == 0) return AsyncResult{{}, ready};
    MGS_CHECK(src_off >= 0 &&
                  src_off + (rows - 1) * src_stride + row_len <= src.size(),
              "copy_2d_async: source range out of bounds");
    MGS_CHECK(dst_off >= 0 &&
                  dst_off + (rows - 1) * dst_stride + row_len <= dst.size(),
              "copy_2d_async: destination range out of bounds");

    const std::uint64_t bytes =
        static_cast<std::uint64_t>(rows) * row_len * sizeof(T);
    bool corrupt_once = false;
    double done = 0.0;
    const TransferResult r =
        account_on(src.device_id(), dst.device_id(), bytes,
                   static_cast<std::uint64_t>(rows), true, corrupt_once,
                   sim::Engine::kDma, ready.seconds, &done);

    const auto s = src.host_span();
    auto d = dst.host_span();
    for (std::int64_t row = 0; row < rows; ++row) {
      const auto sb = s.begin() + (src_off + row * src_stride);
      std::copy(sb, sb + row_len, d.begin() + (dst_off + row * dst_stride));
    }
    if (corrupt_once) {
      for (std::int64_t row = 0; row < rows; ++row) {
        verify_and_repair(d, dst_off + row * dst_stride, s,
                          src_off + row * src_stride, row_len);
      }
    }
    return AsyncResult{r, simt::Event{done}};
  }

  /// Per-link-type accumulated seconds ("p2p", "host-staged", ...).
  const sim::Breakdown& breakdown() const { return breakdown_; }
  void reset_breakdown() { breakdown_ = sim::Breakdown{}; }

  /// Resilience-cost counters (retries, reroutes, ...). All zero when no
  /// injector is attached to the cluster.
  const sim::FaultCounters& fault_counters() const { return faults_seen_; }
  void reset_fault_counters() { faults_seen_ = sim::FaultCounters{}; }

  /// Modeled duration of moving `bytes` over the link between the two
  /// GPUs, without moving data (used for planning / what-if queries).
  /// Fault-oblivious: reroutes, retries and stragglers are runtime costs.
  double link_time(int src_dev, int dst_dev, std::uint64_t bytes) const;
  /// Same for a 2-D copy of `rows` rows totaling `bytes`.
  double link_time_2d(int src_dev, int dst_dev, std::uint64_t bytes,
                      std::uint64_t rows) const;
  /// Fixed (payload-independent) latency of the link between the two
  /// GPUs: the portion of a transfer's duration that pipelines away when
  /// copies queue back-to-back on a DMA engine.
  double link_latency(int src_dev, int dst_dev) const;

 private:
  /// Single timed-and-clocked accounting path behind copy/copy_2d: picks
  /// the (possibly rerouted) link, runs the retry loop when an injector is
  /// attached, advances both device clocks, and reports whether the final
  /// payload must be corrupted-then-repaired by the caller.
  TransferResult account(int src_dev, int dst_dev, std::uint64_t bytes,
                         std::uint64_t rows, bool is_2d, bool& corrupt_once);

  /// Engine-parameterized core behind account() and the *_async entry
  /// points. `engine` selects which per-device clocks the copy serializes
  /// on (compute = legacy synchronous semantics, DMA = overlapped);
  /// `earliest_start` is an additional lower bound on the start time
  /// (an upstream completion event). `completed_at`, when non-null,
  /// receives the absolute completion time.
  TransferResult account_on(int src_dev, int dst_dev, std::uint64_t bytes,
                            std::uint64_t rows, bool is_2d,
                            bool& corrupt_once, sim::Engine engine,
                            double earliest_start, double* completed_at);

  /// Time of `bytes` over a specific link class (reroutes pick their
  /// class explicitly; link_time resolves the class from the topology).
  double time_on_link(LinkType link, std::uint64_t bytes) const;
  double time_on_link_2d(LinkType link, std::uint64_t bytes,
                         std::uint64_t rows) const;
  /// Fixed latency term of time_on_link for one link class.
  double latency_of(LinkType link) const;

  /// Inject one corrupted element into the delivered range, detect it by
  /// checksum comparison against the source, and re-copy (the modeled
  /// re-transfer time was already charged by account()).
  template <typename T>
  void verify_and_repair(std::span<T> d, std::int64_t dst_off,
                         std::span<const T> s, std::int64_t src_off,
                         std::int64_t count) {
    if (count <= 0) return;
    // Simulated in-flight corruption: flip a bit in the middle element.
    auto& victim = d[static_cast<std::size_t>(dst_off + count / 2)];
    victim = corrupt_element(victim);
    std::uint64_t src_sum = 0, dst_sum = 0;
    for (std::int64_t i = 0; i < count; ++i) {
      src_sum = mix_checksum(src_sum, s[static_cast<std::size_t>(src_off + i)]);
      dst_sum = mix_checksum(dst_sum, d[static_cast<std::size_t>(dst_off + i)]);
    }
    if (src_sum != dst_sum) {
      for (std::int64_t i = 0; i < count; ++i) {
        d[static_cast<std::size_t>(dst_off + i)] =
            s[static_cast<std::size_t>(src_off + i)];
      }
    }
  }

  template <typename T>
  static T corrupt_element(T v) {
    unsigned char* bytes = reinterpret_cast<unsigned char*>(&v);
    bytes[0] = static_cast<unsigned char>(bytes[0] ^ 0x40u);
    return v;
  }

  template <typename T>
  static std::uint64_t mix_checksum(std::uint64_t acc, const T& v) {
    const unsigned char* b = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      acc = acc * 1099511628211ull + b[i];  // FNV-style rolling sum
    }
    return acc;
  }

  Cluster* cluster_;
  sim::Breakdown breakdown_;
  sim::FaultCounters faults_seen_;
};

}  // namespace mgs::topo
