// Stats and result helpers of EXPLORE.  `explore()` itself is the one
// cost-ordered engine in parallel_explorer.cpp, run at one thread.
#include "explore/explorer.hpp"

namespace sdf {

ExploreCheckpoint::Counters checkpoint_counters(const ExploreStats& stats) {
  ExploreCheckpoint::Counters c;
  c.candidates_generated = stats.candidates_generated;
  c.dominated_skipped = stats.dominated_skipped;
  c.possible_allocations = stats.possible_allocations;
  c.flexibility_estimations = stats.flexibility_estimations;
  c.bound_skipped = stats.bound_skipped;
  c.implementation_attempts = stats.implementation_attempts;
  c.solver_calls = stats.solver_calls;
  c.solver_nodes = stats.solver_nodes;
  c.budget_abandoned = stats.budget_abandoned;
  return c;
}

void apply_checkpoint_counters(const ExploreCheckpoint::Counters& counters,
                               ExploreStats& stats) {
  stats.candidates_generated = counters.candidates_generated;
  stats.dominated_skipped = counters.dominated_skipped;
  stats.possible_allocations = counters.possible_allocations;
  stats.flexibility_estimations = counters.flexibility_estimations;
  stats.bound_skipped = counters.bound_skipped;
  stats.implementation_attempts = counters.implementation_attempts;
  stats.solver_calls = counters.solver_calls;
  stats.solver_nodes = counters.solver_nodes;
  stats.budget_abandoned = counters.budget_abandoned;
}

std::vector<ParetoPoint> ExploreResult::tradeoff_curve() const {
  std::vector<ParetoPoint> out;
  out.reserve(front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    out.push_back(ParetoPoint{front[i].cost, 1.0 / front[i].flexibility, i});
  }
  return out;
}

}  // namespace sdf
