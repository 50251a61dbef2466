// Incremental platform design (extension).
//
// The paper contrasts its flexibility metric with Pop et al.'s incremental
// design flow [10], where an existing system is extended "such that there
// is a high probability that new functionality can easily be mapped".
// This module provides the flexibility-centric version of that scenario:
// given a platform that is already deployed (a frozen allocation), find
// the Pareto-optimal *upgrades* — supersets of the existing allocation,
// ordered by the cost of the newly added resources only — that raise the
// implemented flexibility.  Unlike [10]'s probabilistic argument, the
// result is exact: existing behaviors keep a feasible binding because
// upgrades never remove resources, and every reported point is certified
// by a constructed implementation.
//
// The search is EXPLORE itself (parallel_explorer.hpp) at one thread over
// the stream with `existing` frozen in: the baseline's implemented
// flexibility is the initial incumbent, the dominance filter judges only
// the added units, and costs and the completeness certificate
// (`stats.exact_up_to_cost`) are in upgrade-cost terms.  An interrupted
// run returns its partial front but no checkpoint.
#pragma once

#include "explore/explorer.hpp"

namespace sdf {

/// One upgrade step: a full implementation on `existing + added units`.
struct Upgrade {
  Implementation implementation;
  /// Cost of the newly added units only (what the upgrade costs).
  double upgrade_cost = 0.0;
};

struct UpgradeResult {
  /// Pareto front over (upgrade_cost, 1/flexibility), ascending cost.
  std::vector<Upgrade> front;
  /// Implemented flexibility of the existing platform alone (0 when the
  /// existing allocation implements nothing).
  double baseline_flexibility = 0.0;
  /// Maximal flexibility of the specification.
  double max_flexibility = 0.0;
  ExploreStats stats;
};

/// Explores upgrades of `existing` on `spec`.  The baseline itself is not
/// part of the front (its upgrade cost is 0 and it improves nothing);
/// every front entry strictly increases flexibility over the baseline.
/// Ignores `num_threads`, `band_capacity` and `resume`.
[[nodiscard]] UpgradeResult explore_upgrades(
    const SpecificationGraph& spec, const AllocSet& existing,
    const ExploreOptions& options = {});

}  // namespace sdf
