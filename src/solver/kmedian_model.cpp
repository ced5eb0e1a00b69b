#include "solver/kmedian_model.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace osrs {

KMedianModel BuildKMedianModel(const CoverageGraph& graph, int k,
                               bool integral_x) {
  KMedianModel model;
  LpProblem& lp = model.problem;

  auto note_cost = [&model](double c) {
    if (std::abs(c - std::round(c)) > 1e-12) model.integral_costs = false;
  };

  // Facility-opening variables x_u, one per candidate class (backward
  // rows list classes), each opening the class's smallest member.
  const size_t num_classes = static_cast<size_t>(graph.num_classes());
  model.facility_candidate.assign(num_classes, -1);
  for (int u = 0; u < graph.num_candidates(); ++u) {
    int& candidate =
        model.facility_candidate[static_cast<size_t>(graph.ClassOf(u))];
    if (candidate < 0) candidate = u;
  }
  model.x_vars.reserve(num_classes);
  for (int candidate : model.facility_candidate) {
    model.x_vars.push_back(lp.AddVariable(0.0, 1.0, 0.0, integral_x,
                                          StrFormat("x_%d", candidate)));
  }

  // Cardinality row Σ x_u <= k.
  {
    std::vector<std::pair<int, double>> terms;
    terms.reserve(model.x_vars.size());
    for (int xv : model.x_vars) terms.emplace_back(xv, 1.0);
    OSRS_CHECK(lp.AddConstraint(std::move(terms), ConstraintSense::kLessEqual,
                                static_cast<double>(k))
                   .ok());
  }

  // Per-target assignment rows, with root assignment always available, and
  // the linking rows y_uw <= x_u for the useful edges.
  for (int w = 0; w < graph.num_targets(); ++w) {
    const double root_cost = graph.root_distance(w);
    const double target_weight = graph.target_weight(w);
    note_cost(root_cost * target_weight);
    int y_root = lp.AddVariable(0.0, 1.0, root_cost * target_weight, false,
                                StrFormat("yroot_%d", w));
    std::vector<std::pair<int, double>> assignment{{y_root, 1.0}};
    const CoverageGraph::EdgeLanes lanes = graph.BackwardLanesOf(w);
    for (size_t i = 0; i < lanes.size; ++i) {
      const double distance = static_cast<double>(lanes.distance[i]);
      if (distance >= root_cost) continue;  // dominated by the root
      const int32_t u = lanes.endpoint[i];
      note_cost(distance * target_weight);
      int y = lp.AddVariable(
          0.0, kLpInfinity, distance * target_weight, false,
          StrFormat("y_%d_%d", model.facility_candidate[static_cast<size_t>(u)],
                    w));
      assignment.emplace_back(y, 1.0);
      OSRS_CHECK(lp.AddConstraint(
                       {{y, 1.0},
                        {model.x_vars[static_cast<size_t>(u)], -1.0}},
                       ConstraintSense::kLessEqual, 0.0)
                     .ok());
    }
    OSRS_CHECK(lp.AddConstraint(std::move(assignment),
                                ConstraintSense::kEqual, 1.0)
                   .ok());
  }

  return model;
}

}  // namespace osrs
