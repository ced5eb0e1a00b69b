#include "solver/ilp_summarizer.h"

#include <utility>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "solver/kmedian_model.h"

namespace osrs {
namespace {

obs::Counter* SolvesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("osrs.ilp.solves");
  return counter;
}

}  // namespace

IlpSummarizer::IlpSummarizer(MipOptions options) : options_(options) {}

Result<SummaryResult> IlpSummarizer::Summarize(const CoverageGraph& graph,
                                               int k,
                                               const ExecutionBudget& budget) {
  if (k < 0 || k > graph.num_candidates()) {
    return Status::InvalidArgument(
        StrFormat("k=%d outside [0, %d]", k, graph.num_candidates()));
  }
  OSRS_RETURN_IF_ERROR(budget.Check());
  Stopwatch watch;
  KMedianModel model = BuildKMedianModel(graph, k, /*integral_x=*/true);
  MipOptions options = options_;
  options.objective_is_integral = model.integral_costs;
  MipSolver solver(options);
  MipSolution mip = solver.Solve(std::move(model.problem),
                                 budget.IsUnlimited() ? nullptr : &budget);

  if (mip.status == LpStatus::kError) {
    // Environmental failure inside an LP sub-solve (e.g. an injected
    // "osrs.lp.pivot" failpoint): propagate the underlying Status so the
    // caller's retry/fallback machinery sees the true code.
    return mip.error;
  }
  if (mip.status == LpStatus::kInfeasible || mip.status == LpStatus::kUnbounded) {
    return Status::Internal(StrFormat("k-median ILP reported %s",
                                      LpStatusToString(mip.status)));
  }
  bool approximate = false;
  StatusCode stop_reason = StatusCode::kOk;
  if (mip.status == LpStatus::kInterrupted) {
    Status cause = budget.Check(mip.nodes);
    if (cause.code() == StatusCode::kCancelled) return cause;
    if (!mip.has_incumbent) {
      return cause.ok() ? Status::ResourceExhausted(
                              "execution budget tripped with no incumbent")
                        : cause;
    }
    approximate = true;
    stop_reason = cause.ok() ? StatusCode::kResourceExhausted : cause.code();
  }
  if (!mip.has_incumbent) {
    return Status::ResourceExhausted(
        "branch-and-bound budget exhausted with no incumbent");
  }
  if (mip.status == LpStatus::kIterationLimit) {
    return Status::ResourceExhausted(StrFormat(
        "branch-and-bound budget exhausted after %lld nodes (incumbent %g)",
        static_cast<long long>(mip.nodes), mip.objective));
  }

  SummaryResult result;
  result.approximate = approximate;
  result.stop_reason = stop_reason;
  for (size_t f = 0; f < model.x_vars.size(); ++f) {
    if (mip.values[static_cast<size_t>(model.x_vars[f])] > 0.5) {
      result.selected.push_back(model.facility_candidate[f]);
    }
  }
  result.cost = graph.CostOfSelection(result.selected);
  result.seconds = watch.ElapsedSeconds();
  result.work = mip.nodes;
  SolvesCounter()->Increment();
  return result;
}

}  // namespace osrs
