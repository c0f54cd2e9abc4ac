#include "mgs/core/executor.hpp"

#include <sstream>

#include "mgs/core/executor_impl.hpp"

namespace mgs::core {

namespace {

// The dispatch table -- the single place (besides the CI instantiation
// guard) where every proposal is instantiated over the whole (DType,
// OpTag) matrix. Built at compile time; density is static_asserted so a
// new enumerator without a row is a build error, not a null dispatch.
constexpr detail::FactoryTable kTable = detail::make_table();
static_assert(detail::table_is_dense(kTable),
              "executor dispatch table has unfilled (dtype, op) cells");

/// The one runtime dispatch: (dtype, op) -> monomorphic instantiation.
std::unique_ptr<ScanExecutor> dispatch(detail::ProposalKind kind,
                                       ScanContext& ctx,
                                       const ExecutorParams& p) {
  return kTable.at(p.dtype, p.op)(kind, ctx, p);
}

}  // namespace

void ScanExecutor::require_ready(std::int64_t in_count,
                                 std::int64_t out_count) const {
  MGS_REQUIRE(n_ > 0 && g_ > 0, "ScanExecutor::run before prepare()");
  MGS_REQUIRE(in_count >= n_ * g_ && out_count >= n_ * g_,
              "ScanExecutor::run: spans must hold N*G elements");
}

PlanKey ScanExecutor::plan_key(const ScanContext& ctx, std::int64_t n,
                               std::int64_t g, int gpus_per_problem) const {
  return PlanKey{ctx.cluster().config().gpu.name,
                 n,
                 g,
                 dtype_,
                 op_,
                 segmented_,
                 gpus_per_problem};
}

std::string ScanExecutor::type_suffix() const {
  std::ostringstream os;
  os << " [" << to_string(dtype_) << "/" << to_string(op_)
     << (segmented_ ? "/seg" : "") << "]";
  return os.str();
}

void ScanExecutor::stamp_report(RunResult& r) const {
  r.faults.degraded = prep_report_.degraded;
  r.faults.degraded_mode = prep_report_.degraded_mode;
  r.faults.excluded_devices = prep_report_.excluded_devices;
  r.faults.replanned = prep_report_.replanned;
  r.faults.invalidated_plans = prep_report_.invalidated_plans;
}

void ScanExecutor::trace_placement() const {
  obs::TraceSession* ts = obs::TraceSession::current();
  if (ts == nullptr) return;

  obs::SpanRecord plan;
  plan.name = "plan";
  plan.kind = obs::SpanKind::kPlan;
  plan.category = obs::Category::kOther;
  plan.notes.emplace_back("config", describe());
  ts->add_event(std::move(plan));

  if (prep_report_.degraded) {
    obs::SpanRecord replan;
    replan.name = "replan";
    replan.kind = obs::SpanKind::kFault;
    replan.category = obs::Category::kOther;
    replan.notes.emplace_back("mode", prep_report_.degraded_mode);
    for (const std::string& step : prep_report_.replanned) {
      replan.notes.emplace_back("step", step);
    }
    ts->add_event(std::move(replan));
    ts->metrics().inc("fault_events_total", {{"kind", "replan"}});
  }
}

obs::ScopedSpan ScanExecutor::trace_run() const {
  obs::TraceSession* ts = obs::TraceSession::current();
  if (ts == nullptr) return obs::ScopedSpan{};

  obs::SpanRecord run;
  run.name = name();
  run.kind = obs::SpanKind::kRun;
  run.category = obs::Category::kOther;
  run.notes.emplace_back("n", std::to_string(n_));
  run.notes.emplace_back("g", std::to_string(g_));
  run.notes.emplace_back("dtype", to_string(dtype_));
  run.notes.emplace_back("op", to_string(op_));
  obs::ScopedSpan span(std::move(run));

  trace_placement();
  if (prep_report_.degraded) {
    ts->metrics().inc("degraded_runs_total", {{"executor", name()}});
  }
  ts->metrics().inc("runs_total", {{"executor", name()},
                                   {"dtype", to_string(dtype_)},
                                   {"op", to_string(op_)}});
  return span;
}

void ScanExecutor::finish_run(obs::ScopedSpan& span, RunResult& r) const {
  obs::TraceSession* ts = obs::TraceSession::current();
  if (ts == nullptr) return;
  span.close(r.seconds);
  ts->metrics().add("run_seconds", {{"executor", name()}}, r.seconds);
  r.metrics = ts->metrics().snapshot();
}

std::unique_ptr<ScanExecutor> make_sp_executor(ScanContext& ctx, int device_id,
                                               DType dtype, OpTag op) {
  return dispatch(detail::ProposalKind::kSp, ctx,
                  {.device = device_id, .dtype = dtype, .op = op});
}

std::unique_ptr<ScanExecutor> make_mps_executor(ScanContext& ctx, int w,
                                                bool direct,
                                                PipelineChoice pipe,
                                                DType dtype, OpTag op) {
  return dispatch(direct ? detail::ProposalKind::kMpsDirect
                         : detail::ProposalKind::kMps,
                  ctx,
                  {.w = w, .pipeline = pipe.mode, .waves = pipe.waves,
                   .dtype = dtype, .op = op});
}

std::unique_ptr<ScanExecutor> make_mppc_executor(ScanContext& ctx, int y,
                                                 int v, int m,
                                                 PipelineChoice pipe,
                                                 DType dtype, OpTag op) {
  return dispatch(detail::ProposalKind::kMppc, ctx,
                  {.y = y, .v = v, .m = m, .pipeline = pipe.mode,
                   .waves = pipe.waves, .dtype = dtype, .op = op});
}

std::unique_ptr<ScanExecutor> make_multinode_executor(ScanContext& ctx, int m,
                                                      int w,
                                                      PipelineChoice pipe,
                                                      DType dtype, OpTag op) {
  return dispatch(detail::ProposalKind::kMultinode, ctx,
                  {.w = w, .m = m, .pipeline = pipe.mode, .waves = pipe.waves,
                   .dtype = dtype, .op = op});
}

// ------------------------------------------------------------ the registry

const std::vector<ExecutorInfo>& all_executors() {
  static const std::vector<ExecutorInfo> kExecutors = [] {
    static constexpr const char* kSummaries[detail::kNumProposals] = {
        "single-GPU three-kernel pipeline (Section 3)",
        "problem scattering across one node's GPUs (Section 4.1)",
        "MPS with UVA peer writes into the master's auxiliary array",
        "per-PCIe-network groups with prioritized communications "
        "(Section 4.1.1)",
        "MPS across nodes with one MPI rank per GPU (Section 4.1)"};
    std::vector<ExecutorInfo> v;
    for (int k = 0; k < detail::kNumProposals; ++k) {
      const auto kind = static_cast<detail::ProposalKind>(k);
      v.push_back({detail::kProposalNames[k], kSummaries[k],
                   [kind](ScanContext& ctx, const ExecutorParams& p) {
                     return dispatch(kind, ctx, p);
                   }});
    }
    return v;
  }();
  return kExecutors;
}

std::unique_ptr<ScanExecutor> make_executor(const std::string& name,
                                            ScanContext& ctx,
                                            const ExecutorParams& params) {
  return dispatch(detail::proposal_of(name), ctx, params);
}

std::unique_ptr<ScanExecutor> make_executor(ScanContext& ctx,
                                            const PlannerChoice& choice) {
  const ExecutorParams p{.w = choice.w,
                         .y = choice.y,
                         .v = choice.v,
                         .m = choice.m,
                         .dtype = choice.dtype,
                         .op = choice.op};
  switch (choice.proposal) {
    case Proposal::kSingleGpu:
      return dispatch(detail::ProposalKind::kSp, ctx, p);
    case Proposal::kMps:
      return dispatch(detail::ProposalKind::kMps, ctx, p);
    case Proposal::kMppc:
      return dispatch(detail::ProposalKind::kMppc, ctx, p);
    case Proposal::kMultiNode:
      return dispatch(detail::ProposalKind::kMultinode, ctx, p);
  }
  MGS_REQUIRE(false, "unhandled planner proposal");
  return nullptr;
}

}  // namespace mgs::core
