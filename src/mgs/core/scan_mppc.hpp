#pragma once
/// \file scan_mppc.hpp
/// Scan-MP-PC: Multi-GPU Problem with Prioritized Communications
/// (Section 4.1.1, Figure 8). The batch is partitioned across PCIe
/// networks: the V GPUs of one network cooperate on their share of the
/// problems, so every auxiliary-array transfer rides a P2P link and no
/// copy ever stages through host memory (and, multi-node, no MPI at all).

#include <vector>

#include "mgs/core/scan_mps.hpp"

namespace mgs::core {

/// Which GPUs work together and which problems each group owns.
struct MppcPartition {
  std::vector<std::vector<int>> groups;  ///< GPU ids per group (one network)
  std::vector<std::int64_t> g_of_group;  ///< problems owned by each group
  std::vector<std::int64_t> g_offset;    ///< first problem of each group
  int v = 1;                             ///< GPUs per group
};

/// Build the partition: `y` PCIe networks per node across `nodes` nodes,
/// `v` GPUs from each network, G problems spread as evenly as possible.
/// When G is smaller than the number of networks, the group count is
/// reduced (the paper: "the number of PCI-e being used has to be
/// reduced"). Throws util::Error if the shape exceeds the hardware.
inline MppcPartition make_mppc_partition(const topo::Cluster& cluster, int y,
                                         int v, std::int64_t g,
                                         int nodes = 1) {
  const auto& cfg = cluster.config();
  MGS_REQUIRE(nodes >= 1 && nodes <= cfg.nodes, "mppc: bad node count");
  MGS_REQUIRE(y >= 1 && y <= cfg.networks_per_node,
              "mppc: more networks requested than the node provides");
  MGS_REQUIRE(v >= 1 && v <= cfg.gpus_per_network,
              "mppc: more GPUs per network than the hardware provides");
  MGS_REQUIRE(g >= 1, "mppc: empty batch");

  MppcPartition part;
  part.v = v;
  std::int64_t total_groups =
      std::min<std::int64_t>(static_cast<std::int64_t>(nodes) * y, g);
  std::int64_t next_g = 0;
  for (std::int64_t grp = 0; grp < total_groups; ++grp) {
    const int node = static_cast<int>(grp) / y;
    const int network = static_cast<int>(grp) % y;
    std::vector<int> ids;
    for (int s = 0; s < v; ++s) {
      ids.push_back(cluster.global_id(node, network, s));
    }
    part.groups.push_back(std::move(ids));
    const std::int64_t share =
        g / total_groups + ((grp < g % total_groups) ? 1 : 0);
    part.g_of_group.push_back(share);
    part.g_offset.push_back(next_g);
    next_g += share;
  }
  MGS_CHECK(next_g == g, "mppc: problem partition does not cover the batch");
  return part;
}

/// Place host data for every group (untimed; see distribute_batch).
template <typename T>
std::vector<std::vector<GpuBatch<T>>> distribute_mppc(
    topo::Cluster& cluster, const MppcPartition& part,
    std::span<const T> host, std::int64_t n) {
  std::vector<std::vector<GpuBatch<T>>> all;
  all.reserve(part.groups.size());
  for (std::size_t grp = 0; grp < part.groups.size(); ++grp) {
    const std::int64_t first = part.g_offset[grp] * n;
    all.push_back(distribute_batch<T>(
        cluster, part.groups[grp],
        host.subspan(static_cast<std::size_t>(first),
                     static_cast<std::size_t>(part.g_of_group[grp] * n)),
        n, part.g_of_group[grp]));
  }
  return all;
}

/// Reassemble all groups' outputs into one host vector (untimed).
template <typename T>
std::vector<T> collect_mppc(const MppcPartition& part,
                            const std::vector<std::vector<GpuBatch<T>>>& all,
                            std::int64_t n) {
  std::int64_t g_total = 0;
  for (auto s : part.g_of_group) g_total += s;
  std::vector<T> host(static_cast<std::size_t>(n * g_total));
  for (std::size_t grp = 0; grp < part.groups.size(); ++grp) {
    const auto sub = collect_batch(all[grp], n, part.g_of_group[grp]);
    std::copy(sub.begin(), sub.end(),
              host.begin() + static_cast<std::ptrdiff_t>(part.g_offset[grp] * n));
  }
  return host;
}

/// Run Scan-MP-PC: every group runs the MPS pipeline on its own problems
/// concurrently (disjoint devices, independent simulated clocks). The
/// result is the makespan across groups; the breakdown reported is the
/// slowest group's (groups are symmetric up to a +-1 problem imbalance).
template <typename T, typename Op = Plus<T>>
RunResult scan_mppc(topo::Cluster& cluster, const MppcPartition& part,
                    std::vector<std::vector<GpuBatch<T>>>& batches,
                    std::int64_t n, const ScanPlan& plan, ScanKind kind,
                    Op op = {}, WorkspacePool* ws = nullptr) {
  MGS_REQUIRE(batches.size() == part.groups.size(),
              "scan_mppc: one batch set per group required");
  RunResult result;
  double worst = -1.0;
  for (std::size_t grp = 0; grp < part.groups.size(); ++grp) {
    // One stage span per group pipeline; groups run concurrently on
    // disjoint devices, so these spans overlap on the simulated timeline
    // (the critical-path analyzer's segment cut handles the overlap).
    obs::ScopedSpan group_stage;
    double group_t0 = 0.0;
    if (obs::TraceSession::current() != nullptr) {
      for (int d : part.groups[grp]) {
        group_t0 = std::max(group_t0, cluster.device(d).clock().now());
      }
      group_stage = obs::open_stage(
          ("group" + std::to_string(grp)).c_str(), group_t0);
    }
    RunResult r;
    try {
      r = scan_mps(cluster, part.groups[grp], batches[grp], n,
                   part.g_of_group[grp], plan, kind, op, ws);
    } catch (topo::TransferError& e) {
      e.counters.merge(result.faults.counters);  // the groups already done
      throw;
    }
    group_stage.close(group_t0 + r.seconds);
    result.payload_bytes += r.payload_bytes;
    result.faults.counters.merge(r.faults.counters);
    if (r.seconds > worst) {
      worst = r.seconds;
      result.breakdown = r.breakdown;
    }
  }
  result.seconds = worst;
  return result;
}

}  // namespace mgs::core
