#include "explore/evolutionary.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "bind/bind_cache.hpp"
#include "moo/pareto.hpp"
#include "spec/compiled.hpp"
#include "util/rng.hpp"

namespace sdf {
namespace {

struct Evaluated {
  AllocSet genome;
  bool feasible = false;
  double cost = 0.0;
  double inv_flex = 0.0;
};

/// Pareto rank with infeasibility penalty: infeasible genomes are dominated
/// by every feasible one; among infeasible ones, cheaper wins (pressure
/// towards the feasible region without a hand-tuned penalty weight).
bool better(const Evaluated& a, const Evaluated& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (!a.feasible) return a.cost < b.cost;
  const ParetoPoint pa{a.cost, a.inv_flex, 0};
  const ParetoPoint pb{b.cost, b.inv_flex, 0};
  if (dominates(pa, pb)) return true;
  if (dominates(pb, pa)) return false;
  return a.cost + a.inv_flex < b.cost + b.inv_flex;  // weak tie-break
}

}  // namespace

EaResult explore_evolutionary(const SpecificationGraph& spec,
                              const EaOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const CompiledSpec& cs = spec.compiled();
  const std::size_t n = cs.unit_count();
  Rng rng(options.seed);
  const double mutation =
      options.mutation_rate > 0.0
          ? options.mutation_rate
          : 1.0 / static_cast<double>(std::max<std::size_t>(n, 1));

  EaResult result;
  std::vector<Implementation> archive_impls;
  ParetoArchive archive;
  std::unordered_set<std::size_t> seen;  // genome hashes already evaluated

  BudgetTracker tracker(options.budget);
  ImplementationOptions eval_impl = options.implementation;
  eval_impl.solver.budget = &tracker;
  BindCache cache;
  if (eval_impl.use_bind_cache && eval_impl.bind_cache == nullptr)
    eval_impl.bind_cache = &cache;
  if (eval_impl.use_hier && eval_impl.hier_cache == nullptr)
    eval_impl.hier_cache = &cache;
  bool stopped = false;  // budget tripped: wind down, keep the archive

  auto evaluate = [&](const AllocSet& genome) {
    Evaluated e;
    e.genome = genome;
    e.cost = cs.allocation_cost(genome);
    if (stopped || !tracker.charge_allocation()) {
      stopped = true;
      return e;  // scored infeasible; never reaches the archive
    }
    ++result.stats.evaluations;
    ImplementationStats istats;
    std::optional<Implementation> impl =
        build_implementation(cs, genome, eval_impl, &istats);
    if (istats.budget_exceeded()) {
      ++result.stats.budget_abandoned;
      stopped = true;
      return e;
    }
    if (impl.has_value()) {
      ++result.stats.feasible_evaluations;
      e.feasible = true;
      e.cost = impl->cost;
      e.inv_flex = 1.0 / impl->flexibility;
      if (seen.insert(genome.hash()).second &&
          archive.insert(ParetoPoint{e.cost, e.inv_flex,
                                     archive_impls.size()})) {
        archive_impls.push_back(std::move(*impl));
      }
    }
    return e;
  };

  // Initial population: random genomes of varied density.
  std::vector<Evaluated> population;
  population.reserve(options.population);
  for (std::size_t i = 0; i < options.population; ++i) {
    AllocSet g = cs.make_alloc_set();
    const double density = rng.uniform_double(0.1, 0.8);
    for (std::size_t b = 0; b < n; ++b)
      if (rng.chance(density)) g.set(b);
    population.push_back(evaluate(g));
  }

  auto tournament = [&]() -> const Evaluated& {
    const Evaluated& a = population[rng.pick_index(population)];
    const Evaluated& b = population[rng.pick_index(population)];
    return better(a, b) ? a : b;
  };

  for (std::size_t gen = 0; gen < options.generations && !stopped; ++gen) {
    std::vector<Evaluated> offspring;
    offspring.reserve(options.population);
    while (offspring.size() < options.population && !stopped) {
      const Evaluated& p1 = tournament();
      const Evaluated& p2 = tournament();
      AllocSet child = cs.make_alloc_set();
      if (rng.chance(options.crossover_rate)) {
        for (std::size_t b = 0; b < n; ++b) {
          const bool bit =
              rng.chance(0.5) ? p1.genome.test(b) : p2.genome.test(b);
          if (bit) child.set(b);
        }
      } else {
        child = p1.genome;
      }
      for (std::size_t b = 0; b < n; ++b)
        if (rng.chance(mutation)) child.set(b, !child.test(b));
      offspring.push_back(evaluate(child));
    }
    // (mu + lambda) elitism.  Rank = how many feasible members dominate the
    // individual (dominance itself is not a strict weak order, so sorting
    // uses this scalarized key instead).
    for (Evaluated& e : offspring) population.push_back(std::move(e));
    std::vector<std::size_t> rank(population.size(), 0);
    for (std::size_t i = 0; i < population.size(); ++i) {
      if (!population[i].feasible) continue;
      const ParetoPoint pi{population[i].cost, population[i].inv_flex, 0};
      for (std::size_t j = 0; j < population.size(); ++j) {
        if (i == j || !population[j].feasible) continue;
        const ParetoPoint pj{population[j].cost, population[j].inv_flex, 0};
        if (dominates(pj, pi)) ++rank[i];
      }
    }
    std::vector<std::size_t> order(population.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const Evaluated& ea = population[a];
      const Evaluated& eb = population[b];
      if (ea.feasible != eb.feasible) return ea.feasible;
      if (!ea.feasible) return ea.cost < eb.cost;
      if (rank[a] != rank[b]) return rank[a] < rank[b];
      return ea.cost + ea.inv_flex < eb.cost + eb.inv_flex;
    });
    std::vector<Evaluated> survivors;
    survivors.reserve(options.population);
    for (std::size_t i = 0; i < options.population && i < order.size(); ++i)
      survivors.push_back(std::move(population[order[i]]));
    population = std::move(survivors);
  }

  if (stopped) result.stats.stop_reason = tracker.reason();

  // Export the archive, ascending cost.
  for (const ParetoPoint& p : archive.front())
    result.front.push_back(archive_impls[p.tag]);

  const auto t1 = std::chrono::steady_clock::now();
  result.stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

}  // namespace sdf
