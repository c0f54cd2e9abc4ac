#include "mgs/core/planner.hpp"

#include <algorithm>
#include <sstream>

#include "mgs/util/check.hpp"
#include "mgs/util/math.hpp"

namespace mgs::core {

const char* to_string(Proposal p) {
  switch (p) {
    case Proposal::kSingleGpu:
      return "Scan-SP";
    case Proposal::kMps:
      return "Scan-MPS";
    case Proposal::kMppc:
      return "Scan-MP-PC";
    case Proposal::kMultiNode:
      return "Scan-MPS (multi-node)";
  }
  return "?";
}

namespace {

/// Usable device memory: leave 10% headroom for the auxiliary arrays and
/// allocator slack; a problem needs input + output resident. The
/// executors scan one staging buffer in place, but the floor keeps the
/// paper's Case-2 rule (input and output arrays in device memory), so
/// proposal choices and modeled numbers match the paper's setup.
std::int64_t usable_bytes(const sim::DeviceSpec& spec) {
  return spec.memory_bytes - spec.memory_bytes / 10;
}

}  // namespace

PlannerChoice choose_proposal(const topo::Cluster& cluster,
                              const PlannerInput& input) {
  MGS_REQUIRE(input.n > 0 && input.g > 0, "choose_proposal: bad problem shape");
  const auto& cfg = cluster.config();
  const std::int64_t mem = usable_bytes(cfg.gpu);
  const std::int64_t problem_bytes =
      2 * input.n * static_cast<std::int64_t>(dtype_bytes(input.dtype));
  const std::int64_t total_bytes = problem_bytes * input.g;

  // Floor: GPUs that must share one problem just to hold it.
  const int gpus_per_problem_floor = static_cast<int>(util::div_up(
      static_cast<std::uint64_t>(problem_bytes),
      static_cast<std::uint64_t>(mem)));
  // Floor: GPUs needed to hold the whole batch.
  const int gpus_total_floor = static_cast<int>(util::div_up(
      static_cast<std::uint64_t>(total_bytes), static_cast<std::uint64_t>(mem)));
  MGS_REQUIRE(gpus_total_floor <= cfg.total_gpus() &&
                  gpus_per_problem_floor <= cfg.total_gpus(),
              "choose_proposal: batch does not fit in the cluster");

  PlannerChoice choice;
  choice.dtype = input.dtype;
  choice.op = input.op;
  std::ostringstream why;

  if (gpus_per_problem_floor <= cfg.gpus_per_network) {
    // A problem fits within one PCIe network: P2P-only communication is
    // available, so maximize the GPUs used (Premise 4, first scenario).
    if (input.g == 1) {
      if (gpus_per_problem_floor == 1 &&
          problem_bytes <= mem / 8) {
        // Small single problem: GPU count cannot amortize the P2P latency.
        choice.proposal = Proposal::kSingleGpu;
        choice.m = choice.w = choice.v = choice.y = 1;
        why << "single small problem (" << problem_bytes
            << " bytes); communication latency would exceed the saved "
            << "kernel time, run Scan-SP on one GPU";
      } else {
        choice.proposal = Proposal::kMps;
        choice.v = cfg.gpus_per_network;
        choice.y = 1;
        choice.w = choice.v;
        choice.m = 1;
        why << "one large problem fits a single PCIe network: Scan-MPS over "
            << choice.w << " P2P-connected GPUs";
      }
    } else {
      choice.proposal = Proposal::kMppc;
      choice.v = std::max(gpus_per_problem_floor, 2);
      choice.v = static_cast<int>(util::ceil_pow2(
          static_cast<std::uint64_t>(choice.v)));
      choice.v = std::min(choice.v, cfg.gpus_per_network);
      choice.y = static_cast<int>(std::min<std::int64_t>(
          cfg.networks_per_node, input.g));
      choice.w = choice.v * choice.y;
      choice.m = static_cast<int>(std::min<std::int64_t>(
          cfg.nodes, std::max<std::int64_t>(
                         1, input.g / std::max(1, choice.y))));
      why << "batch of " << input.g << " problems, each fitting "
          << choice.v << " GPUs of one PCIe network: Scan-MP-PC with V="
          << choice.v << ", Y=" << choice.y << ", M=" << choice.m
          << " (all communication stays on P2P links)";
    }
  } else if (gpus_per_problem_floor <= cfg.gpus_per_node()) {
    // A problem spans PCIe networks of one node: Scan-MPS with host
    // staging; minimize nodes (MPI overhead) per Premise 4.
    choice.proposal = Proposal::kMps;
    choice.w = cfg.gpus_per_node();
    choice.v = cfg.gpus_per_network;
    choice.y = cfg.networks_per_node;
    choice.m = 1;
    why << "a problem needs " << gpus_per_problem_floor
        << " GPUs (more than one PCIe network): Scan-MPS over the node's "
        << choice.w << " GPUs, staging the auxiliary array through host "
        << "memory; node count minimized to avoid MPI overhead";
  } else {
    // A problem spans nodes: multi-node Scan-MPS over MPI/RDMA.
    choice.proposal = Proposal::kMultiNode;
    choice.m = static_cast<int>(util::div_up(
        static_cast<std::uint64_t>(gpus_per_problem_floor),
        static_cast<std::uint64_t>(cfg.gpus_per_node())));
    choice.m = std::min(choice.m, cfg.nodes);
    choice.w = cfg.gpus_per_node();
    choice.v = cfg.gpus_per_network;
    choice.y = cfg.networks_per_node;
    why << "a problem needs " << gpus_per_problem_floor
        << " GPUs (more than one node): multi-node Scan-MPS over M="
        << choice.m << " nodes x W=" << choice.w
        << " GPUs with MPI-RDMA collectives";
  }

  choice.rationale = why.str();
  return choice;
}

}  // namespace mgs::core
