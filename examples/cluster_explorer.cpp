/// cluster_explorer: inspect a (possibly custom) cluster, see which
/// proposal the Premise-4 planner picks across problem shapes, and dump a
/// traced run as a Chrome trace (open in chrome://tracing / Perfetto).
///
///   $ ./cluster_explorer
///   $ ./cluster_explorer --cluster "nodes=4 networks=1 gpus=8 gpu=pascal"
///   $ ./cluster_explorer --trace /tmp/scan.trace.json

#include <cstdio>
#include <fstream>
#include <iostream>

#include "mgs/core/api.hpp"
#include "mgs/obs/export.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/topo/config.hpp"
#include "mgs/util/cli.hpp"
#include "mgs/util/random.hpp"
#include "mgs/util/table.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("cluster", "cluster description (see topo/config.hpp)");
  cli.describe("trace", "write a Chrome trace of one traced run here");
  if (cli.help_requested()) {
    cli.print_help("Explore a cluster: links, planner decisions, tracing.");
    return 0;
  }
  cli.reject_unknown();

  const auto cfg = topo::parse_cluster_config(cli.get_string("cluster", ""));
  topo::Cluster cluster(cfg);
  std::printf("Cluster: %s\n", topo::describe_cluster_config(cfg).c_str());

  // --- Link classes between representative GPU pairs.
  std::printf("\nLink classes (GPU a -> GPU b):\n");
  topo::TransferEngine xfer(cluster);
  util::Table links({"a", "b", "link", "1 MiB transfer"});
  const int probe_count = std::min(cluster.num_devices(), 16);
  for (int b : {1, cfg.gpus_per_network, cfg.gpus_per_node(),
                cfg.gpus_per_node() * 2 - 1}) {
    if (b <= 0 || b >= probe_count) continue;
    links.add_row({"0", std::to_string(b),
                   topo::to_string(cluster.link_between(0, b)),
                   util::fmt_time_us(xfer.link_time(0, b, 1 << 20))});
  }
  links.print(std::cout);

  // --- Planner decisions across a shape sweep.
  std::printf("\nPlanner decisions (Premise 4):\n");
  util::Table plans({"N", "G", "proposal", "M", "W", "V", "Y"});
  for (const auto& [n, g] :
       {std::pair<std::int64_t, std::int64_t>{1 << 20, 1},
        {1 << 24, 1},
        {std::int64_t{1} << 29, 1},
        {1 << 20, 64},
        {std::int64_t{1} << 27, 8}}) {
    try {
      const auto c = core::choose_proposal(cluster, {.n = n, .g = g});
      plans.add_row({util::fmt_bytes(static_cast<std::uint64_t>(n) * 4),
                     std::to_string(g), core::to_string(c.proposal),
                     std::to_string(c.m), std::to_string(c.w),
                     std::to_string(c.v), std::to_string(c.y)});
    } catch (const util::Error& e) {
      plans.add_row({util::fmt_bytes(static_cast<std::uint64_t>(n) * 4),
                     std::to_string(g), "does not fit", "-", "-", "-", "-"});
    }
  }
  plans.print(std::cout);

  // --- One traced MP-PC run + per-event summary.
  obs::TraceSession session;
  const std::int64_t n = 1 << 20;
  const std::int64_t g = 4;
  const auto data = util::random_i32(static_cast<std::size_t>(n * g), 1);
  auto plan = core::derive_spl(cfg.gpu, 4).plan;
  plan.s13.k = 4;
  const auto part = core::make_mppc_partition(
      cluster, std::min(cfg.networks_per_node, 2), cfg.gpus_per_network, g);
  auto batches = core::distribute_mppc<int>(cluster, part, data, n);
  const auto r = core::scan_mppc<int>(cluster, part, batches, n, plan,
                                      core::ScanKind::kInclusive);

  std::printf("\nTraced Scan-MP-PC run (N=%lld, G=%lld): %s, %.2f GB/s\n",
              static_cast<long long>(n), static_cast<long long>(g),
              util::fmt_time_us(r.seconds).c_str(), r.throughput_gbps());
  // One row per kernel name, link kind and MPI operation, read back from
  // the session's {kernel,transfer,mpi} counter families.
  const obs::MetricsSnapshot metrics = session.metrics().snapshot();
  util::Table prof({"event", "count", "total time", "bytes"});
  const auto add_rows = [&](const char* total, const char* seconds,
                            const char* bytes, const char* prefix) {
    for (const obs::MetricValue& m : metrics) {
      if (m.name != total) continue;
      const obs::MetricValue* s = obs::find_metric(metrics, seconds, m.labels);
      const obs::MetricValue* b =
          bytes != nullptr ? obs::find_metric(metrics, bytes, m.labels)
                           : nullptr;
      prof.add_row(
          {prefix + m.labels.front().second,
           std::to_string(static_cast<std::uint64_t>(m.value)),
           util::fmt_time_us(s != nullptr ? s->value : 0.0),
           b != nullptr ? util::fmt_bytes(static_cast<std::uint64_t>(b->value))
                        : "-"});
    }
  };
  add_rows("kernel_launches_total", "kernel_seconds", "kernel_bytes", "");
  add_rows("transfers_total", "transfer_seconds", "transfer_bytes", "copy:");
  add_rows("mpi_ops_total", "mpi_seconds", nullptr, "");
  prof.print(std::cout);

  const std::string trace_path = cli.get_string("trace", "");
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    MGS_REQUIRE(os.good(), "cannot open trace file " + trace_path);
    obs::write_chrome_trace(os, session.spans(), metrics);
    std::printf("\nChrome trace written to %s\n", trace_path.c_str());
  }
  return 0;
}
