#ifndef OSRS_SOLVER_SUMMARIZER_H_
#define OSRS_SOLVER_SUMMARIZER_H_

#include <string>
#include <vector>

#include "common/execution_budget.h"
#include "common/status.h"
#include "coverage/coverage_graph.h"

namespace osrs {

/// Output of one summarization run over a coverage graph.
struct SummaryResult {
  /// Selected candidate indices (into the graph's U side), in selection
  /// order where the algorithm has one.
  std::vector<int> selected;
  /// Definition 2 cost of the selection.
  double cost = 0.0;
  /// Wall-clock seconds spent inside Summarize (excludes graph building).
  double seconds = 0.0;
  /// Solver-specific diagnostics (LP iterations, B&B nodes, ...); 0 when
  /// not applicable. This is the counter the ExecutionBudget work bound is
  /// compared against.
  int64_t work = 0;
  /// True when the ExecutionBudget ran out mid-solve and the result is the
  /// best incumbent found so far (possibly with fewer than k selections)
  /// rather than the algorithm's full answer.
  bool approximate = false;
  /// Why the solve stopped early (kDeadlineExceeded or kResourceExhausted)
  /// when `approximate` is set; kOk for a complete run. Cancellation never
  /// yields a result — it surfaces as a kCancelled Status instead.
  StatusCode stop_reason = StatusCode::kOk;
  /// Greedy only: the cost after each pick, [0] being the empty summary,
  /// so prefix_costs[i] is the cost of selected[0..i) and the last element
  /// equals `cost`. Greedy is prefix-closed — its first i picks at any
  /// depth are its i-pick answer, costed by the same floating-point
  /// sequence — so prefix_costs[i] is bit-identical to a direct i-pick
  /// solve's `cost`. Empty for solvers without a pick order.
  std::vector<double> prefix_costs;
};

/// Common interface of the paper's three algorithms (§4) and the exact
/// reference solver. Implementations are stateless across calls unless
/// documented otherwise and may be reused for many graphs.
///
/// Budget contract (every implementation): the ExecutionBudget is polled
/// at least once per outer loop round and every few dozen inner-loop
/// steps, so a cancellation flag set mid-solve stops the solve within one
/// check interval. On a tripped budget the solver returns either a
/// well-formed error Status (always kCancelled for cancellation) or, when
/// it holds a meaningful incumbent, that incumbent with
/// `SummaryResult::approximate` set and `stop_reason` recording the cause.
class Summarizer {
 public:
  virtual ~Summarizer() = default;

  /// Selects (up to) k of the graph's candidates minimizing the coverage
  /// cost. Fails with InvalidArgument when k < 0 or k > |U|.
  Result<SummaryResult> Summarize(const CoverageGraph& graph, int k) {
    return Summarize(graph, k, ExecutionBudget::Unlimited());
  }

  /// As above, stopping cooperatively when `budget` runs out (see the
  /// budget contract in the class comment).
  virtual Result<SummaryResult> Summarize(const CoverageGraph& graph, int k,
                                          const ExecutionBudget& budget) = 0;

  /// Short display name, e.g. "Greedy", "ILP", "RR".
  virtual std::string name() const = 0;
};

}  // namespace osrs

#endif  // OSRS_SOLVER_SUMMARIZER_H_
