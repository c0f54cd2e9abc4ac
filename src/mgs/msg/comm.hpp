#pragma once
/// \file comm.hpp
/// In-process MPI-like runtime over the simulated cluster. One rank per
/// GPU (the paper's multi-node proposal runs an MPI process per GPU and
/// moves the stage-2 auxiliary array with MPI_Gather / MPI_Scatter).
///
/// Semantics: data moves immediately between host-backed device buffers;
/// *time* is modeled per message from the link between the two GPUs
/// (CUDA-aware MPI: P2P when the ranks share a PCIe network, host staging
/// across networks, InfiniBand RDMA across nodes) plus a per-message MPI
/// software overhead. Collectives are blocking: every participant's clock
/// advances to the collective's completion, so -- as the paper observes for
/// its Figure 14 -- the time a rank spends in a collective includes how
/// long it waited for the others.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mgs/sim/fault.hpp"
#include "mgs/sim/timeline.hpp"
#include "mgs/topo/topology.hpp"
#include "mgs/topo/transfer.hpp"

namespace mgs::msg {

/// Typed error for a collective or point-to-point operation that could not
/// complete: a participating rank's device is down, a message exhausted
/// its retry budget, or a barrier timed out waiting for a straggler.
/// `failed_rank` identifies the culprit so callers can drop it and
/// re-plan instead of aborting. `counters` are the communicator's fault
/// counters, this failure included.
class CommError : public util::Error {
 public:
  CommError(const std::string& what, int failed_rank,
            const sim::FaultCounters& counters = {})
      : util::Error(what), failed_rank(failed_rank), counters(counters) {}
  int failed_rank;
  sim::FaultCounters counters;
};

/// One rank's slice of a collective buffer.
template <typename T>
struct Slice {
  simt::DeviceBuffer<T>* buffer = nullptr;
  std::int64_t offset = 0;
  std::int64_t count = 0;
};

class Communicator {
 public:
  /// rank r lives on cluster device device_ids[r]; device_ids must be
  /// distinct. Rank 0 is the master (the paper's "GPU 0").
  Communicator(topo::Cluster& cluster, std::vector<int> device_ids);

  int size() const { return static_cast<int>(device_ids_.size()); }
  int device_of(int rank) const;
  topo::Cluster& cluster() { return *cluster_; }

  /// MPI_Barrier: all ranks advance to max(clock) + software overhead.
  /// Returns the completion time.
  double barrier();

  /// MPI_Gather of equal-size contributions: rank r's slice lands at
  /// recv_offset + r*count in the root's buffer. Root's own contribution
  /// is taken from slices[root]. Returns the completion time.
  template <typename T>
  double gather(int root, const std::vector<Slice<T>>& slices,
                simt::DeviceBuffer<T>& recv, std::int64_t recv_offset);

  /// MPI_Scatter: the inverse of gather (rank r receives
  /// send_offset + r*count .. + count from the root buffer).
  template <typename T>
  double scatter(int root, const simt::DeviceBuffer<T>& send,
                 std::int64_t send_offset, const std::vector<Slice<T>>& slices);

  /// MPI_Bcast: the root's range lands in every rank's slice. Binomial
  /// tree: ceil(log2 R) rounds, each paying the slowest link in use.
  template <typename T>
  double bcast(int root, const simt::DeviceBuffer<T>& send,
               std::int64_t send_offset, const std::vector<Slice<T>>& slices);

  /// MPI_Allgather: every rank ends up with the concatenation of all
  /// ranks' slices (recv buffers must hold count*size() elements).
  /// Modeled as gather-to-0 + bcast, the common small-cluster strategy.
  template <typename T>
  double allgather(const std::vector<Slice<T>>& send,
                   std::vector<simt::DeviceBuffer<T>*> recv);

  /// Point-to-point MPI_Send/MPI_Recv pair (rendezvous: both clocks meet).
  template <typename T>
  double send_recv(int src_rank, int dst_rank,
                   const simt::DeviceBuffer<T>& send, std::int64_t send_offset,
                   simt::DeviceBuffer<T>& recv, std::int64_t recv_offset,
                   std::int64_t count);

  /// Non-blocking MPI_Isend / matching Irecv pair: the message serializes
  /// on the two endpoints' DMA engines (not their compute clocks), so it
  /// overlaps with kernels running on either rank -- this is what the
  /// wave-pipelined multinode Stage 2 is built on. `ready` is an upstream
  /// dependency (the producing kernel's event); the returned Event is the
  /// message's completion, to be waited on by the consumer. Fault
  /// retry/timeout/corruption semantics match send_recv exactly.
  template <typename T>
  simt::Event isend(int src_rank, int dst_rank,
                    const simt::DeviceBuffer<T>& send,
                    std::int64_t send_offset, simt::DeviceBuffer<T>& recv,
                    std::int64_t recv_offset, std::int64_t count,
                    simt::Event ready = {});

  /// Per-operation accumulated time from the root/receiver perspective
  /// ("MPI_Gather", "MPI_Scatter", "MPI_Barrier", "MPI_SendRecv").
  const sim::Breakdown& breakdown() const { return breakdown_; }
  void reset_breakdown() { breakdown_ = sim::Breakdown{}; }

  /// Resilience-cost counters (message retries, corruption re-sends, ...).
  /// All zero when the cluster has no fault injector.
  const sim::FaultCounters& fault_counters() const { return faults_seen_; }
  void reset_fault_counters() { faults_seen_ = sim::FaultCounters{}; }

 private:
  double message_time(int src_rank, int dst_rank, std::uint64_t bytes) const;
  /// Fault-aware message cost: message_time plus straggler slowdown and
  /// the retry/backoff/re-send loop for transient faults, timeouts and
  /// corruption. Throws CommError blaming `blame_rank` when the retry
  /// budget is exhausted. Equals message_time with no injector attached.
  double timed_message(int src_rank, int dst_rank, std::uint64_t bytes,
                       int blame_rank);
  /// timed_message with an explicit start instant (async messages start at
  /// their dependency-resolved time, not the source compute clock).
  double timed_message_at(int src_rank, int dst_rank, std::uint64_t bytes,
                          int blame_rank, double now);
  sim::Clock& dma_clock_of(int rank);
  /// Fixed latency of a message between the two ranks (MPI software
  /// overhead + wire latency): the part that pipelines on the DMA queue.
  double message_latency(int src_rank, int dst_rank) const;
  /// Span + metrics for one async message on the DMA engines. The span
  /// covers [start, engine_release) -- the engine-occupancy window --
  /// with the pipelined latency tail up to `completion` kept as a note.
  void trace_isend(int src_rank, int dst_rank, double start,
                   double engine_release, double completion,
                   std::uint64_t bytes);
  /// Throws CommError for the first participating rank whose device the
  /// attached injector reports down (no-op without an injector).
  void check_ranks_alive(const char* op);
  sim::Clock& clock_of(int rank);
  double collective_alpha() const;  ///< software overhead per collective step
  /// When a TraceSession is installed, record a kCollective span plus the
  /// mpi metrics for one collective.
  void trace_collective(const char* name, double start, double completion,
                        std::uint64_t bytes);

  topo::Cluster* cluster_;
  std::vector<int> device_ids_;
  sim::Breakdown breakdown_;
  sim::FaultCounters faults_seen_;
};

// ---- template implementations ----

template <typename T>
double Communicator::gather(int root, const std::vector<Slice<T>>& slices,
                            simt::DeviceBuffer<T>& recv,
                            std::int64_t recv_offset) {
  MGS_CHECK(root >= 0 && root < size(), "gather: bad root rank");
  MGS_CHECK(static_cast<int>(slices.size()) == size(),
            "gather: one slice per rank required");
  const std::int64_t count = slices[0].count;
  for (const auto& s : slices) {
    MGS_CHECK(s.buffer != nullptr && s.count == count,
              "gather: equal-size contributions required");
  }
  MGS_CHECK(recv_offset >= 0 &&
                recv_offset + count * size() <= recv.size(),
            "gather: receive buffer too small");
  check_ranks_alive("MPI_Gather");

  const double t0 = clock_of(root).now();
  // Start once every participant has entered the collective.
  double start = 0.0;
  for (int r = 0; r < size(); ++r) start = std::max(start, clock_of(r).now());

  // Root ingests the non-root messages; link times serialize at the root
  // NIC/copy engine. Tree setup costs one alpha per tree level.
  double ingest = 0.0;
  for (int r = 0; r < size(); ++r) {
    if (r == root) continue;
    ingest += timed_message(r, root,
                            static_cast<std::uint64_t>(count) * sizeof(T), r);
  }
  int levels = 0;
  for (int n = size(); n > 1; n = (n + 1) / 2) ++levels;
  const double completion = start + collective_alpha() * levels + ingest;

  // Move the data.
  auto dst = recv.host_span();
  for (int r = 0; r < size(); ++r) {
    const auto src = slices[r].buffer->host_span();
    for (std::int64_t i = 0; i < count; ++i) {
      dst[static_cast<std::size_t>(recv_offset + r * count + i)] =
          src[static_cast<std::size_t>(slices[r].offset + i)];
    }
  }

  for (int r = 0; r < size(); ++r) clock_of(r).sync_to(completion);
  breakdown_.add("MPI_Gather", completion - t0);
  trace_collective("MPI_Gather", start, completion,
                   static_cast<std::uint64_t>(count) * size() * sizeof(T));
  return completion;
}

template <typename T>
double Communicator::scatter(int root, const simt::DeviceBuffer<T>& send,
                             std::int64_t send_offset,
                             const std::vector<Slice<T>>& slices) {
  MGS_CHECK(root >= 0 && root < size(), "scatter: bad root rank");
  MGS_CHECK(static_cast<int>(slices.size()) == size(),
            "scatter: one slice per rank required");
  const std::int64_t count = slices[0].count;
  for (const auto& s : slices) {
    MGS_CHECK(s.buffer != nullptr && s.count == count,
              "scatter: equal-size slices required");
  }
  MGS_CHECK(send_offset >= 0 && send_offset + count * size() <= send.size(),
            "scatter: send buffer too small");
  check_ranks_alive("MPI_Scatter");

  const double t0 = clock_of(root).now();
  double start = 0.0;
  for (int r = 0; r < size(); ++r) start = std::max(start, clock_of(r).now());

  double egress = 0.0;
  for (int r = 0; r < size(); ++r) {
    if (r == root) continue;
    egress += timed_message(root, r,
                            static_cast<std::uint64_t>(count) * sizeof(T), r);
  }
  int levels = 0;
  for (int n = size(); n > 1; n = (n + 1) / 2) ++levels;
  const double completion = start + collective_alpha() * levels + egress;

  const auto src = send.host_span();
  for (int r = 0; r < size(); ++r) {
    auto dst = slices[r].buffer->host_span();
    for (std::int64_t i = 0; i < count; ++i) {
      dst[static_cast<std::size_t>(slices[r].offset + i)] =
          src[static_cast<std::size_t>(send_offset + r * count + i)];
    }
  }

  for (int r = 0; r < size(); ++r) clock_of(r).sync_to(completion);
  breakdown_.add("MPI_Scatter", completion - t0);
  trace_collective("MPI_Scatter", start, completion,
                   static_cast<std::uint64_t>(count) * size() * sizeof(T));
  return completion;
}

template <typename T>
double Communicator::bcast(int root, const simt::DeviceBuffer<T>& send,
                           std::int64_t send_offset,
                           const std::vector<Slice<T>>& slices) {
  MGS_CHECK(root >= 0 && root < size(), "bcast: bad root rank");
  MGS_CHECK(static_cast<int>(slices.size()) == size(),
            "bcast: one slice per rank required");
  const std::int64_t count = slices[0].count;
  for (const auto& s : slices) {
    MGS_CHECK(s.buffer != nullptr && s.count == count,
              "bcast: equal-size slices required");
  }
  MGS_CHECK(send_offset >= 0 && send_offset + count <= send.size(),
            "bcast: send range out of bounds");
  check_ranks_alive("MPI_Bcast");

  const double t0 = clock_of(root).now();
  double start = 0.0;
  for (int r = 0; r < size(); ++r) start = std::max(start, clock_of(r).now());

  // Binomial tree: each round doubles the informed set; the round costs
  // the worst message among the pairs it activates (conservative: the
  // slowest link in the communicator).
  double worst_msg = 0.0;
  for (int r = 0; r < size(); ++r) {
    if (r == root) continue;
    worst_msg = std::max(
        worst_msg, timed_message(
                       root, r,
                       static_cast<std::uint64_t>(count) * sizeof(T), r));
  }
  int levels = 0;
  for (int n = size(); n > 1; n = (n + 1) / 2) ++levels;
  const double completion = start + worst_msg * std::max(1, levels);

  const auto src = send.host_span();
  for (int r = 0; r < size(); ++r) {
    auto dst = slices[static_cast<std::size_t>(r)].buffer->host_span();
    for (std::int64_t i = 0; i < count; ++i) {
      dst[static_cast<std::size_t>(
          slices[static_cast<std::size_t>(r)].offset + i)] =
          src[static_cast<std::size_t>(send_offset + i)];
    }
  }

  for (int r = 0; r < size(); ++r) clock_of(r).sync_to(completion);
  breakdown_.add("MPI_Bcast", completion - t0);
  trace_collective("MPI_Bcast", start, completion,
                   static_cast<std::uint64_t>(count) * size() * sizeof(T));
  return completion;
}

template <typename T>
double Communicator::allgather(const std::vector<Slice<T>>& send,
                               std::vector<simt::DeviceBuffer<T>*> recv) {
  MGS_CHECK(static_cast<int>(send.size()) == size(),
            "allgather: one send slice per rank required");
  MGS_CHECK(static_cast<int>(recv.size()) == size(),
            "allgather: one receive buffer per rank required");
  const std::int64_t count = send[0].count;
  for (int r = 0; r < size(); ++r) {
    MGS_CHECK(recv[static_cast<std::size_t>(r)] != nullptr &&
                  recv[static_cast<std::size_t>(r)]->size() >=
                      count * size(),
              "allgather: receive buffer too small");
  }

  // Gather to rank 0, then broadcast the concatenation.
  gather(0, send, *recv[0], 0);
  std::vector<Slice<T>> full(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    full[static_cast<std::size_t>(r)] = {recv[static_cast<std::size_t>(r)],
                                         0, count * size()};
  }
  return bcast(0, *recv[0], 0, full);
}

template <typename T>
double Communicator::send_recv(int src_rank, int dst_rank,
                               const simt::DeviceBuffer<T>& send,
                               std::int64_t send_offset,
                               simt::DeviceBuffer<T>& recv,
                               std::int64_t recv_offset, std::int64_t count) {
  MGS_CHECK(src_rank >= 0 && src_rank < size(), "send_recv: bad source rank");
  MGS_CHECK(dst_rank >= 0 && dst_rank < size(), "send_recv: bad dest rank");
  MGS_CHECK(send_offset >= 0 && send_offset + count <= send.size(),
            "send_recv: send range out of bounds");
  MGS_CHECK(recv_offset >= 0 && recv_offset + count <= recv.size(),
            "send_recv: recv range out of bounds");
  check_ranks_alive("MPI_SendRecv");

  const double t0 = clock_of(dst_rank).now();
  const double start =
      std::max(clock_of(src_rank).now(), clock_of(dst_rank).now());
  const double completion =
      start + timed_message(src_rank, dst_rank,
                            static_cast<std::uint64_t>(count) * sizeof(T),
                            src_rank);

  const auto s = send.host_span();
  auto d = recv.host_span();
  for (std::int64_t i = 0; i < count; ++i) {
    d[static_cast<std::size_t>(recv_offset + i)] =
        s[static_cast<std::size_t>(send_offset + i)];
  }

  clock_of(src_rank).sync_to(completion);
  clock_of(dst_rank).sync_to(completion);
  breakdown_.add("MPI_SendRecv", completion - t0);
  trace_collective("MPI_SendRecv", start, completion,
                   static_cast<std::uint64_t>(count) * sizeof(T));
  return completion;
}

template <typename T>
simt::Event Communicator::isend(int src_rank, int dst_rank,
                                const simt::DeviceBuffer<T>& send,
                                std::int64_t send_offset,
                                simt::DeviceBuffer<T>& recv,
                                std::int64_t recv_offset, std::int64_t count,
                                simt::Event ready) {
  MGS_CHECK(src_rank >= 0 && src_rank < size(), "isend: bad source rank");
  MGS_CHECK(dst_rank >= 0 && dst_rank < size(), "isend: bad dest rank");
  MGS_CHECK(count >= 0, "isend: negative count");
  MGS_CHECK(send_offset >= 0 && send_offset + count <= send.size(),
            "isend: send range out of bounds");
  MGS_CHECK(recv_offset >= 0 && recv_offset + count <= recv.size(),
            "isend: recv range out of bounds");
  check_ranks_alive("MPI_Isend");

  sim::Clock& src_dma = dma_clock_of(src_rank);
  sim::Clock& dst_dma = dma_clock_of(dst_rank);
  const double start =
      std::max({src_dma.now(), dst_dma.now(), ready.seconds});
  const std::uint64_t bytes = static_cast<std::uint64_t>(count) * sizeof(T);
  // Blame the non-root endpoint: a gather-style send (r -> 0) that keeps
  // failing indicts r, a scatter-style send (0 -> r) indicts r too.
  const int blame = (src_rank == 0) ? dst_rank : src_rank;
  const double dur = timed_message_at(src_rank, dst_rank, bytes, blame, start);
  const double completion = start + dur;

  const auto s = send.host_span();
  auto d = recv.host_span();
  if (count > 0) {
    std::copy(s.begin() + send_offset, s.begin() + (send_offset + count),
              d.begin() + recv_offset);
  }

  // DMA-queue pipelining (see TransferEngine::account_on): the engines
  // are released after the payload time; the fixed MPI + wire latency
  // delays completion but overlaps with the next queued message.
  const double engine_release =
      start + std::max(0.0, dur - message_latency(src_rank, dst_rank));
  src_dma.sync_to(engine_release);
  dst_dma.sync_to(engine_release);
  breakdown_.add("MPI_Isend", dur);
  trace_isend(src_rank, dst_rank, start, engine_release, completion, bytes);
  return simt::Event{completion};
}

}  // namespace mgs::msg
