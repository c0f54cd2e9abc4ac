#pragma once
/// \file chaos.hpp
/// Deterministic chaos harness for the scan stack. A campaign samples
/// scenarios across (proposal x dtype/op x shape x placement x pipeline x
/// FaultPlan) from a seeded generator, runs each twice on one executor
/// (the second run starts from the liveness and pool the first left), and
/// checks on every run the invariants that must hold under ANY injected
/// fault schedule:
///
///  1. correctness -- the scan either matches the serial reference
///     bit-for-bit or raises a typed util::Error (never a silently wrong
///     result); a healthy scenario must succeed outright;
///  2. telescoping -- the per-stage breakdown entries sum exactly to the
///     reported makespan (the critical-path accounting has no holes);
///  3. report consistency -- an empty FaultPlan yields a pristine
///     FaultReport, and mid-run resumes imply a degraded report;
///  4. determinism -- replaying the scenario from fresh state reproduces
///     the same bits, the same makespan, and the same fault summary;
///  5. span consistency -- one "Recovery" stage span per recorded
///     resumed_stages entry;
///  6. report/trace agreement -- per fault kind, FaultReport.counters
///     equal the kFault spans of that kind (transient, timeout,
///     corrupt-*, reroute), and `replanned` holds one entry per "replan"
///     span plus one when a "restart" or "resume" span shows a mid-run
///     loss.
///
/// On a violation the harness greedily shrinks the scenario to a minimal
/// reproducer, printable as a one-line spec whose `faults=` tail pastes
/// directly into any `--faults` flag. Everything is seeded: the same
/// (seed, index) always names the same scenario, so a repro line in a CI
/// log replays anywhere.

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "mgs/core/dtype.hpp"
#include "mgs/core/op.hpp"
#include "mgs/core/plan.hpp"

namespace mgs::chaos {

/// One sampled point of the campaign space. Fully describes a run:
/// cluster shape, proposal placement, element type/operator, pipeline
/// override, and the fault schedule (empty string = healthy run).
struct Scenario {
  std::uint64_t seed = 0;  ///< campaign seed this scenario was drawn from
  int index = 0;           ///< scenario index within the campaign
  std::string executor = "Scan-MPS";
  core::DType dtype = core::DType::kI32;
  core::OpTag op = core::OpTag::kPlus;
  core::ScanKind kind = core::ScanKind::kInclusive;
  std::int64_t n = 4096;  ///< elements per problem
  std::int64_t g = 2;     ///< problems in the batch
  int nodes = 1;          ///< tsubame_kfc_cluster(nodes)
  int w = 0;              ///< MPS / multinode GPUs per node (0 = derive)
  int y = 0;              ///< MP-PC networks per node
  int v = 0;              ///< MP-PC GPUs per network
  int m = 0;              ///< multinode node count
  core::PipelineMode pipeline = core::PipelineMode::kAuto;
  int waves = 0;          ///< 0 = planner's pick
  bool segmented = false;  ///< run through the SegmentedScan wrapper
  std::string faults;     ///< sim::parse_fault_plan spec; "" = none

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// Render a scenario as a single replayable line:
///   "exec=Scan-MPS;dtype=i32;...;faults=device-down:dev=3"
/// The faults spec is always the last key (its value embeds ';' and '=').
std::string to_string(const Scenario& s);

/// Inverse of to_string; throws util::Error on malformed lines.
Scenario parse_scenario(const std::string& line);

/// Deterministic scenario generator: the same (seed, index) always
/// produces the same scenario, independent of platform or prior draws.
Scenario sample_scenario(std::uint64_t seed, int index);

/// Run the scenario (twice, from fresh state, for the determinism check)
/// and evaluate every invariant on each of its runs. Returns std::nullopt when all hold, or a
/// human-readable description of the first violation.
std::optional<std::string> check_scenario(const Scenario& s);

/// Greedily shrink `s` toward a minimal scenario for which `fails` still
/// returns true: drop fault events one by one, simplify the pipeline,
/// shrink the shape and placement, collapse dtype/op/kind to the
/// defaults. `fails(s)` must be true on entry; the result is the smallest
/// still-failing scenario found within `max_evals` predicate evaluations.
Scenario shrink(const Scenario& s,
                const std::function<bool(const Scenario&)>& fails,
                int max_evals = 60);

/// One campaign violation: the scenario as sampled, its shrunk
/// reproducer, and the invariant it broke.
struct Violation {
  Scenario scenario;
  Scenario shrunk;
  std::string what;
};

struct CampaignResult {
  int total = 0;     ///< scenarios run
  int healthy = 0;   ///< scenarios with an empty fault plan
  int faulted = 0;   ///< scenarios that injected at least one event
  int rejected = 0;  ///< faulted runs that raised a typed error (allowed)
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

/// Run `count` scenarios sampled from `seed`. Each violation is shrunk
/// before being recorded. `log` (optional) receives progress lines and
/// the repro spec of every violation.
CampaignResult run_campaign(std::uint64_t seed, int count,
                            std::ostream* log = nullptr);

}  // namespace mgs::chaos
