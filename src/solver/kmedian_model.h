#ifndef OSRS_SOLVER_KMEDIAN_MODEL_H_
#define OSRS_SOLVER_KMEDIAN_MODEL_H_

#include <vector>

#include "coverage/coverage_graph.h"
#include "lp/lp_problem.h"

namespace osrs {

/// The §4.2 k-median (I)LP built from a coverage graph.
struct KMedianModel {
  LpProblem problem;
  /// Problem variable index of x_f for each facility f: one per candidate
  /// class (graph.num_classes() entries). Members of a class have
  /// identical rows, so a second open member would serve nothing.
  std::vector<int> x_vars;
  /// The candidate facility f opens: its class's smallest member.
  std::vector<int> facility_candidate;
  /// True when every edge weight (and root distance) is integral, so every
  /// integral solution has an integral objective (enables MIP pruning).
  bool integral_costs = true;
};

/// Builds the model
///
///   min  Σ_(u,w)∈E d(u,w)·y_uw + Σ_w d(r,w)·y_rw
///   s.t. Σ_u y_uw + y_rw = 1          for every target w
///        y_uw ≤ x_u                   for every edge (u,w)
///        Σ_u x_u ≤ k
///        x ∈ [0,1] (integral iff integral_x), y ≥ 0
///
/// This matches the paper's ILP after two harmless rewrites: x_r = 1 is
/// substituted away (y_rw then has no linking row, only the implied bound
/// y_rw ≤ 1), and Σ x = k is relaxed to ≤ k, which preserves the optimum
/// because the coverage cost is monotone non-increasing in the open set.
/// Edges at least as expensive as the root assignment are pruned: they can
/// never improve the objective. The facilities u are the graph's candidate
/// classes, which leaves the optimum unchanged: opening several members of
/// one class costs the same as opening one.
KMedianModel BuildKMedianModel(const CoverageGraph& graph, int k,
                               bool integral_x);

}  // namespace osrs

#endif  // OSRS_SOLVER_KMEDIAN_MODEL_H_
