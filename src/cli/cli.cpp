#include "cli/cli.hpp"

#include <fstream>
#include <optional>
#include <sstream>

#include "analysis/analysis.hpp"
#include "explore/evolutionary.hpp"
#include "explore/explorer.hpp"
#include "explore/incremental.hpp"
#include "explore/parallel_explorer.hpp"
#include "explore/queries.hpp"
#include "explore/report.hpp"
#include "explore/sensitivity.hpp"
#include "flex/reduce.hpp"
#include "flex/activatability.hpp"
#include "flex/flexibility.hpp"
#include "gen/presets.hpp"
#include "gen/spec_generator.hpp"
#include "graph/dot.hpp"
#include "lint/lint.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_dot.hpp"
#include "spec/spec_io.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace sdf {
namespace {

Result<SpecificationGraph> load_spec(const std::string& path,
                                     const SpecParseOptions& options = {}) {
  // Chunked streaming load with ingest caps; "-" reads stdin (pipes and
  // FIFOs work — the input is never materialized as one buffer).
  return spec_from_file(path, options);
}

/// Error-severity lint rules as a gate before a potentially long
/// exploration.  Cheap (no solver calls), catches defects the structural
/// load-time validation cannot (unmappable leaves, impossible timing, ...).
bool preflight_ok(const SpecificationGraph& spec, std::ostream& err) {
  const LintReport report = lint_errors(spec);
  if (!report.has_errors()) return true;
  err << "preflight: specification cannot yield a feasible implementation ("
      << report.errors()
      << " error(s); 'sdf lint' shows the full report, --no-preflight "
         "bypasses this check)\n"
      << report.to_text();
  return false;
}

int usage(std::ostream& err) {
  err << "usage: sdf <command> [flags]\n"
         "commands:\n"
         "  validate <spec.json> [--json] check a specification (exit: 0 ok,\n"
         "                                1 warnings, 2 errors)\n"
         "  lint <spec.json> [flags]      full rule-based diagnostics; --list,\n"
         "                                --json, --rules=<ids>, --min-severity=<s>\n"
         "  flexibility <spec.json>       Def. 4 flexibility analysis\n"
         "  analyze <spec.json> [--json]  sound static bounds without solving:\n"
         "                                per-cluster cost intervals, packing\n"
         "                                relaxation, comm closure (exit 2 =\n"
         "                                front provably empty)\n"
         "  explore <spec.json> [flags]   flexibility/cost Pareto front;\n"
         "                                anytime: --deadline-ms, --max-solver-nodes,\n"
         "                                --checkpoint=<f> --resume (exit 3 = partial)\n"
         "  upgrade <spec.json> --existing=<units>   incremental upgrades\n"
         "  sensitivity <spec.json> --alloc=<units>  per-unit flexibility loss\n"
         "  reduce <spec.json> --alloc=<units>       reduced spec to stdout\n"
         "  dot <spec.json> [flags]       Graphviz rendering to stdout\n"
         "  generate [flags]              synthetic specification to stdout\n"
         "  demo <settop|decoder>         built-in paper model to stdout\n"
         "<spec.json> may be '-' to stream the specification from stdin.\n";
  return 2;
}

/// Parses --rules / --min-severity into LintOptions; nonzero = usage error.
int parse_lint_options(const Flags& flags, LintOptions& options,
                       std::ostream& err) {
  for (const std::string& raw_rule : split(flags.get("rules"), ',')) {
    const std::string rule(trim(raw_rule));
    if (rule.empty()) continue;
    if (find_lint_rule(rule) == nullptr) {
      err << "unknown lint rule '" << rule << "' (see 'sdf lint --list')\n";
      return 2;
    }
    options.only_rules.push_back(rule);
  }
  const std::optional<Severity> min = parse_severity(flags.get("min-severity"));
  if (!min.has_value()) {
    err << "unknown --min-severity value '" << flags.get("min-severity")
        << "' (note|warning|error)\n";
    return 2;
  }
  options.min_severity = *min;
  return 0;
}

int cmd_validate(const std::vector<std::string>& raw, std::ostream& out,
                 std::ostream& err) {
  Flags flags;
  flags.define_bool("json", false, "emit the report as JSON");
  if (Status s = flags.parse(raw); !s.ok()) {
    err << s.error().message << "\nflags:\n" << flags.usage();
    return 2;
  }
  if (flags.positional().empty()) {
    err << "validate: missing <spec.json>\n";
    return 2;
  }
  Result<SpecificationGraph> spec =
      load_spec(flags.positional()[0], SpecParseOptions{.validate = false});
  if (!spec.ok()) {
    err << "invalid: " << spec.error().message << '\n';
    return 2;
  }
  const SpecificationGraph& s = spec.value();
  // `validate` is the correctness gate: the lint registry without the
  // style-level notes.  `sdf lint` runs everything.
  LintOptions options;
  options.min_severity = Severity::kWarning;
  const LintReport report = lint(s, options);
  if (flags.get_bool("json")) {
    Json j = report.to_json();
    j.set("spec", s.name());
    j.set("valid", !report.has_errors());
    out << j.dump(2) << '\n';
    return report.exit_code();
  }
  if (report.clean()) {
    out << "valid: " << s.name() << " — " << s.problem().leaves().size()
        << " processes, " << s.problem().all_refinement_clusters().size()
        << " clusters, " << s.alloc_units().size() << " allocatable units, "
        << s.mappings().size() << " mapping edges\n";
    return 0;
  }
  out << report.to_text();
  return report.exit_code();
}

int cmd_lint(const std::vector<std::string>& raw, std::ostream& out,
             std::ostream& err) {
  Flags flags;
  flags.define_bool("json", false, "emit the report as JSON");
  flags.define_bool("list", false, "print the rule catalogue and exit");
  flags.define("rules", "",
               "comma-separated rule ids or names to run (empty = all)");
  flags.define("min-severity", "note",
               "run only rules of at least this severity: note|warning|error");
  if (Status s = flags.parse(raw); !s.ok()) {
    err << s.error().message << "\nflags:\n" << flags.usage();
    return 2;
  }
  if (flags.get_bool("list")) {
    Table table({"id", "severity", "name", "summary"});
    for (const RuleInfo& info : lint_rule_catalog())
      table.add_row({info.id, std::string(severity_name(info.severity)),
                     info.name, info.summary});
    out << table.to_ascii();
    return 0;
  }
  if (flags.positional().empty()) {
    err << "lint: missing <spec.json>\n";
    return 2;
  }
  LintOptions options;
  if (int rc = parse_lint_options(flags, options, err); rc != 0) return rc;
  Result<SpecificationGraph> spec =
      load_spec(flags.positional()[0], SpecParseOptions{.validate = false});
  if (!spec.ok()) {
    err << spec.error().message << '\n';
    return 2;
  }
  const LintReport report = lint(spec.value(), options);
  if (flags.get_bool("json"))
    out << report.to_json().dump(2) << '\n';
  else
    out << report.to_text();
  return report.exit_code();
}

int cmd_flexibility(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  if (args.empty()) {
    err << "flexibility: missing <spec.json>\n";
    return 2;
  }
  Result<SpecificationGraph> spec = load_spec(args[0]);
  if (!spec.ok()) {
    err << spec.error().message << '\n';
    return 1;
  }
  const HierarchicalGraph& p = spec.value().problem();
  out << "maximal flexibility: " << format_double(max_flexibility(p)) << '\n';
  Table table({"cluster", "depth", "f(subtree)", "f(G_P) without it"});
  for (ClusterId cid : p.all_refinement_clusters()) {
    const double without = flexibility(p, [&](ClusterId c) { return c != cid; });
    table.add_row({p.cluster(cid).name,
                   std::to_string(p.ancestry(cid).size() - 1),
                   format_double(flexibility(
                       p, cid, [](ClusterId) { return true; })),
                   format_double(without)});
  }
  out << table.to_ascii();
  return 0;
}

/// Builds solver options from the flags shared by `explore` and `analyze`.
/// Nonzero return = usage error.
int parse_solver_flags(const Flags& flags, SolverOptions& solver,
                       std::ostream& err) {
  const std::string comm = flags.get("comm");
  if (comm == "direct")
    solver.comm_model = CommModel::kDirectOnly;
  else if (comm == "anypath")
    solver.comm_model = CommModel::kAnyPath;
  else if (comm != "onehop") {
    err << "unknown --comm value '" << comm << "'\n";
    return 2;
  }
  solver.utilization_bound = flags.get_double("util-bound");
  return 0;
}

int cmd_analyze(const std::vector<std::string>& raw, std::ostream& out,
                std::ostream& err) {
  Flags flags;
  flags.define_bool("json", false, "emit the analysis as JSON");
  flags.define("comm", "onehop", "communication model: direct|onehop|anypath");
  flags.define("util-bound", "0.69", "utilization bound (0 disables)");
  if (Status s = flags.parse(raw); !s.ok()) {
    err << s.error().message << "\nflags:\n" << flags.usage();
    return 2;
  }
  if (flags.positional().empty()) {
    err << "analyze: missing <spec.json>\n";
    return 2;
  }
  // Like `lint`, analysis must work on defective specs — diagnosing them
  // is the point — so structural load-time validation is skipped.
  Result<SpecificationGraph> spec =
      load_spec(flags.positional()[0], SpecParseOptions{.validate = false});
  if (!spec.ok()) {
    err << spec.error().message << '\n';
    return 1;
  }
  AnalysisOptions options;
  if (int rc = parse_solver_flags(flags, options.solver, err); rc != 0)
    return rc;
  const SpecAnalysis analysis(spec.value().compiled(), options);
  const Json report = analysis.to_json();
  const bool empty_front = report.find("front_provably_empty") != nullptr &&
                           report.find("front_provably_empty")->as_bool();
  if (flags.get_bool("json")) {
    out << report.dump(2) << '\n';
    return empty_front ? 2 : 0;
  }
  out << analysis.to_table();
  const ClusterBounds& root = analysis.root_bounds();
  out << "whole spec: lo=" << format_double(root.lo)
      << (root.reachable()
              ? " hi=" + format_double(root.hi) + " (witness: " +
                    spec.value().allocation_names(root.witness) + ")"
              : " hi=inf (no allocation activates the root)")
      << '\n'
      << "mandatory processes: " << analysis.mandatory_processes().size()
      << '\n';
  if (empty_front)
    out << "front provably empty: the relaxation over the always-active "
           "processes is infeasible under the full allocation\n";
  return empty_front ? 2 : 0;
}

int cmd_explore(const std::vector<std::string>& raw, std::ostream& out,
                std::ostream& err) {
  Flags flags;
  flags.define("comm", "onehop", "communication model: direct|onehop|anypath");
  flags.define("util-bound", "0.69", "utilization bound (0 disables)");
  flags.define_bool("dominance-filter", true, "§5 allocation filter");
  flags.define_bool("flex-bound", true, "flexibility-estimate pruning");
  flags.define_bool("branch-bound", true, "optimistic subtree pruning");
  flags.define_bool("csv", false, "emit the front as CSV");
  flags.define_bool("json", false, "emit the full result as JSON");
  flags.define_bool("equivalents", false,
                    "also collect equal-(cost,f) alternative allocations");
  flags.define("budget", "", "also answer: best flexibility within budget");
  flags.define("target-f", "",
               "also answer: cheapest platform reaching this flexibility");
  flags.define_bool("stats", true, "print exploration statistics");
  flags.define_bool("bind-cache", true,
                    "cross-allocation binding feasibility cache "
                    "(--no-bind-cache re-solves every ECA from scratch)");
  flags.define_bool("analysis", true,
                    "static-analyzer ECA prefilter: skip solver searches the "
                    "relaxation proves infeasible (--no-analysis solves "
                    "every ECA; the front and all checkpointed counters are "
                    "identical either way)");
  flags.define_bool("hier", true,
                    "hierarchical solve path: per-cluster-group sub-solve "
                    "memoization on specs that decompose (--no-hier always "
                    "uses the flat kernel; the front is identical either "
                    "way, only solver_nodes differs)");
  flags.define_bool("analysis-bound", false,
                    "also prune candidate allocations and stream subtrees "
                    "via the analyzer's relaxation (sound — same front — "
                    "but work counters differ from a default run)");
  flags.define_bool("preflight", true,
                    "error-severity lint gate before exploring");
  flags.define_bool("evolutionary", false, "use the heuristic EA explorer");
  flags.define("seed", "1", "EA seed");
  flags.define("threads", "1",
               "evaluation threads; 0 auto-detects one per hardware thread "
               "(std::thread::hardware_concurrency, floor 1); one thread "
               "evaluates one candidate at a time, more evaluate adaptive "
               "cost bands concurrently (same front either way)");
  flags.define("deadline-ms", "0",
               "wall-clock budget in milliseconds (0 = unlimited)");
  flags.define("max-solver-nodes", "0",
               "solver search-node budget (0 = unlimited)");
  flags.define("max-allocations", "0",
               "candidate-allocation budget (0 = unlimited)");
  flags.define("checkpoint", "",
               "file for the resume checkpoint of a budget-interrupted run");
  flags.define_bool("resume", false,
                    "continue from the --checkpoint file's saved state");
  if (Status s = flags.parse(raw); !s.ok()) {
    err << s.error().message << "\nflags:\n" << flags.usage();
    return 2;
  }
  if (flags.positional().empty()) {
    err << "explore: missing <spec.json>\n";
    return 2;
  }
  Result<SpecificationGraph> spec = load_spec(flags.positional()[0]);
  if (!spec.ok()) {
    err << spec.error().message << '\n';
    return 1;
  }
  if (flags.get_bool("preflight") && !preflight_ok(spec.value(), err))
    return 2;

  ExploreOptions options;
  if (int rc = parse_solver_flags(flags, options.implementation.solver, err);
      rc != 0)
    return rc;
  options.prune_dominated_allocations = flags.get_bool("dominance-filter");
  options.implementation.use_bind_cache = flags.get_bool("bind-cache");
  options.implementation.use_analysis = flags.get_bool("analysis");
  options.implementation.use_hier = flags.get_bool("hier");
  options.use_analysis_bound = flags.get_bool("analysis-bound");

  // Second preflight stage, now that the solver options are known: the
  // analyzer's relaxation can prove the whole front empty in milliseconds,
  // where the exploration below would only confirm it by exhausting the
  // stream.  Sound, so failing here is definitive, not a heuristic.
  if (flags.get_bool("preflight")) {
    const CompiledSpec& pcs = spec.value().compiled();
    const SpecAnalysis preflight_analysis(
        pcs, AnalysisOptions{options.implementation.solver});
    AllocSet all = pcs.make_alloc_set();
    for (std::size_t i = 0; i < pcs.unit_count(); ++i) all.set(i);
    if (preflight_analysis.allocation_infeasible(all)) {
      err << "preflight: the static relaxation proves the Pareto front "
             "empty under every allocation ('sdf analyze' shows the bounds, "
             "--no-preflight explores anyway)\n";
      return 2;
    }
  }
  options.use_flexibility_bound = flags.get_bool("flex-bound");
  options.use_branch_bound = flags.get_bool("branch-bound");
  options.collect_equivalents = flags.get_bool("equivalents");
  const int threads = flags.get_int("threads");
  if (threads < 0) {
    err << "--threads must be >= 0\n";
    return 2;
  }
  options.num_threads = static_cast<std::size_t>(threads);

  const long deadline_ms = flags.get_int("deadline-ms");
  const long max_nodes = flags.get_int("max-solver-nodes");
  const long max_allocs = flags.get_int("max-allocations");
  if (deadline_ms < 0 || max_nodes < 0 || max_allocs < 0) {
    err << "budget flags must be >= 0\n";
    return 2;
  }
  options.budget.deadline_seconds = static_cast<double>(deadline_ms) / 1000.0;
  options.budget.max_solver_nodes = static_cast<std::uint64_t>(max_nodes);
  options.budget.max_allocations = static_cast<std::uint64_t>(max_allocs);
  const std::string checkpoint_path = flags.get("checkpoint");
  options.build_checkpoint = !checkpoint_path.empty();
  std::optional<ExploreCheckpoint> resume_state;  // outlives the run
  if (flags.get_bool("resume")) {
    if (checkpoint_path.empty()) {
      err << "--resume requires --checkpoint=<file>\n";
      return 2;
    }
    std::ifstream in(checkpoint_path, std::ios::binary);
    if (!in) {
      err << "cannot open checkpoint '" << checkpoint_path << "'\n";
      return 1;
    }
    IstreamByteReader reader(in);
    Result<ExploreCheckpoint> ck = ExploreCheckpoint::from_stream(reader);
    if (!ck.ok()) {
      err << ck.error().wrap(checkpoint_path).message << '\n';
      return 1;
    }
    resume_state = std::move(ck).value();
    options.resume = &*resume_state;
  }

  // Saves the resume checkpoint (if requested) and picks the exit code:
  // 0 = complete front, 3 = partial result because the budget ran out.
  const auto finish = [&checkpoint_path, &err](const ExploreResult& result) {
    if (!checkpoint_path.empty() && result.checkpoint.has_value()) {
      std::ofstream ck(checkpoint_path);
      if (!ck) {
        err << "cannot write checkpoint '" << checkpoint_path << "'\n";
        return 1;
      }
      ck << result.checkpoint->to_string() << '\n';
    }
    if (!result.status.ok()) {
      err << result.status.error().message << '\n';
      return 1;
    }
    if (result.stats.stop_reason == StopReason::kCompleted) return 0;
    err << "partial result: " << stop_reason_name(result.stats.stop_reason)
        << " budget exhausted; front exact below cost "
        << format_double(result.stats.exact_up_to_cost);
    if (!checkpoint_path.empty()) err << "; continue with --resume";
    err << '\n';
    return 3;
  };

  if (flags.get_bool("json") && !flags.get_bool("evolutionary")) {
    const ExploreResult result = parallel_explore(spec.value(), options);
    out << explore_result_to_json(spec.value(), result).dump(2) << '\n';
    return finish(result);
  }

  if (!flags.get("budget").empty() || !flags.get("target-f").empty()) {
    const ExploreResult result = parallel_explore(spec.value(), options);
    if (!flags.get("budget").empty()) {
      const double budget = flags.get_double("budget");
      if (const Implementation* best =
              max_flexibility_within_budget(result, budget)) {
        out << "within budget " << format_double(budget) << ": f="
            << format_double(best->flexibility) << " at $"
            << format_double(best->cost) << " ("
            << spec.value().allocation_names(best->units) << ")\n";
      } else {
        out << "within budget " << format_double(budget)
            << ": nothing feasible\n";
      }
    }
    if (!flags.get("target-f").empty()) {
      const double target = flags.get_double("target-f");
      if (const Implementation* best =
              min_cost_for_flexibility(result, target)) {
        out << "flexibility >= " << format_double(target) << ": $"
            << format_double(best->cost) << " ("
            << spec.value().allocation_names(best->units) << ")\n";
      } else {
        out << "flexibility >= " << format_double(target)
            << ": unreachable (max " << format_double(result.max_flexibility)
            << ")\n";
      }
    }
    return finish(result);
  }

  std::vector<Implementation> front;
  ExploreStats stats;
  double f_max = 0.0;
  int exit_code = 0;
  if (flags.get_bool("evolutionary")) {
    EaOptions ea;
    ea.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    ea.implementation = options.implementation;
    ea.budget = options.budget;
    const EaResult result = explore_evolutionary(spec.value(), ea);
    front = result.front;
    f_max = max_flexibility(spec.value().problem());
    if (result.stats.stop_reason != StopReason::kCompleted) {
      err << "partial result: " << stop_reason_name(result.stats.stop_reason)
          << " budget exhausted\n";
      exit_code = 3;
    }
  } else {
    ExploreResult result = parallel_explore(spec.value(), options);
    front = result.front;
    stats = result.stats;
    f_max = result.max_flexibility;
    exit_code = finish(result);
    if (exit_code == 1) return exit_code;  // failed run: nothing to print
  }

  Table table({"cost", "flexibility", "resources", "clusters"});
  for (const Implementation& impl : front) {
    std::string clusters;
    for (ClusterId c : impl.leaf_clusters(spec.value().problem())) {
      if (!clusters.empty()) clusters += ", ";
      clusters += spec.value().problem().cluster(c).name;
    }
    table.add_row({format_double(impl.cost), format_double(impl.flexibility),
                   spec.value().allocation_names(impl.units), clusters});
  }
  out << (flags.get_bool("csv") ? table.to_csv() : table.to_ascii());
  if (!flags.get_bool("evolutionary") && flags.get_bool("stats")) {
    out << "f_max=" << format_double(f_max)
        << " universe=" << stats.universe
        << " candidates=" << stats.candidates_generated
        << " possible_allocations=" << stats.possible_allocations
        << " attempts=" << stats.implementation_attempts
        << " solver_calls=" << stats.solver_calls
        << " solver_nodes=" << stats.solver_nodes
        << " cache_hits_feasible=" << stats.cache_hits_feasible
        << " cache_hits_infeasible=" << stats.cache_hits_infeasible
        << " cache_revalidations=" << stats.cache_revalidations
        << " cache_entries=" << stats.cache_entries
        << " analysis_pruned=" << stats.analysis_pruned
        << " hier_subsolves=" << stats.hier_subsolves
        << " hier_hits=" << stats.hier_hits
        << " flat_cache_entries=" << stats.flat_cache_entries
        << " flat_cache_evictions=" << stats.flat_cache_evictions
        << " threads=" << stats.threads << " bands=" << stats.bands
        << " band_capacity_last=" << stats.band_capacity_last;
    if (stats.stop_reason != StopReason::kCompleted) {
      out << " stop_reason=" << stop_reason_name(stats.stop_reason)
          << " budget_abandoned=" << stats.budget_abandoned
          << " exact_up_to_cost=" << format_double(stats.exact_up_to_cost);
    }
    out << '\n';
  }
  return exit_code;
}

int cmd_upgrade(const std::vector<std::string>& raw, std::ostream& out,
                std::ostream& err) {
  Flags flags;
  flags.define("existing", "", "comma-separated unit names already deployed");
  flags.define_bool("preflight", true,
                    "error-severity lint gate before exploring");
  if (Status s = flags.parse(raw); !s.ok()) {
    err << s.error().message << "\nflags:\n" << flags.usage();
    return 2;
  }
  if (flags.positional().empty()) {
    err << "upgrade: missing <spec.json>\n";
    return 2;
  }
  Result<SpecificationGraph> spec = load_spec(flags.positional()[0]);
  if (!spec.ok()) {
    err << spec.error().message << '\n';
    return 1;
  }
  if (flags.get_bool("preflight") && !preflight_ok(spec.value(), err))
    return 2;
  AllocSet existing = spec.value().make_alloc_set();
  for (const std::string& raw_name : split(flags.get("existing"), ',')) {
    const std::string name(trim(raw_name));
    if (name.empty()) continue;
    const AllocUnitId u = spec.value().find_unit(name);
    if (!u.valid()) {
      err << "unknown unit '" << name << "'\n";
      return 2;
    }
    existing.set(u.index());
  }

  const UpgradeResult r = explore_upgrades(spec.value(), existing);
  out << "deployed: "
      << (existing.none() ? "(nothing)"
                          : spec.value().allocation_names(existing))
      << "  f=" << format_double(r.baseline_flexibility) << " of "
      << format_double(r.max_flexibility) << '\n';
  Table table({"upgrade cost", "total cost", "flexibility", "added units"});
  for (const Upgrade& u : r.front) {
    AllocSet added = u.implementation.units;
    added -= existing;
    table.add_row({format_double(u.upgrade_cost),
                   format_double(u.implementation.cost),
                   format_double(u.implementation.flexibility),
                   spec.value().allocation_names(added)});
  }
  out << table.to_ascii();
  return 0;
}

/// Parses a comma-separated unit-name list into an allocation.
Result<AllocSet> parse_alloc(const SpecificationGraph& spec,
                             const std::string& list) {
  AllocSet a = spec.make_alloc_set();
  for (const std::string& raw_name : split(list, ',')) {
    const std::string name(trim(raw_name));
    if (name.empty()) continue;
    const AllocUnitId u = spec.find_unit(name);
    if (!u.valid()) return Error{"unknown unit '" + name + "'"};
    a.set(u.index());
  }
  return a;
}

int cmd_sensitivity(const std::vector<std::string>& raw, std::ostream& out,
                    std::ostream& err) {
  Flags flags;
  flags.define("alloc", "", "comma-separated unit names (empty = all)");
  flags.define_bool("preflight", true,
                    "error-severity lint gate before analyzing");
  if (Status s = flags.parse(raw); !s.ok()) {
    err << s.error().message << '\n';
    return 2;
  }
  if (flags.positional().empty()) {
    err << "sensitivity: missing <spec.json>\n";
    return 2;
  }
  Result<SpecificationGraph> spec = load_spec(flags.positional()[0]);
  if (!spec.ok()) {
    err << spec.error().message << '\n';
    return 1;
  }
  if (flags.get_bool("preflight") && !preflight_ok(spec.value(), err))
    return 2;
  Result<AllocSet> alloc = parse_alloc(spec.value(), flags.get("alloc"));
  if (!alloc.ok()) {
    err << alloc.error().message << '\n';
    return 2;
  }
  if (alloc.value().none()) {
    for (std::size_t i = 0; i < spec.value().alloc_units().size(); ++i)
      alloc.value().set(i);
  }

  const SensitivityReport report =
      flexibility_sensitivity(spec.value(), alloc.value());
  out << "implemented flexibility: " << format_double(report.flexibility)
      << '\n';
  Table table({"unit", "cost", "f loss", "loss per $", "verdict"});
  for (const UnitSensitivity& u : report.units) {
    table.add_row({spec.value().alloc_units()[u.unit.index()].name,
                   format_double(u.cost), format_double(u.flexibility_loss),
                   format_double(u.loss_per_cost, 4),
                   u.critical ? "critical"
                              : (u.flexibility_loss > 0 ? "carrier"
                                                        : "redundant")});
  }
  out << table.to_ascii();
  return 0;
}

int cmd_reduce(const std::vector<std::string>& raw, std::ostream& out,
               std::ostream& err) {
  Flags flags;
  flags.define("alloc", "", "comma-separated unit names to allocate");
  if (Status s = flags.parse(raw); !s.ok()) {
    err << s.error().message << '\n';
    return 2;
  }
  if (flags.positional().empty()) {
    err << "reduce: missing <spec.json>\n";
    return 2;
  }
  Result<SpecificationGraph> spec = load_spec(flags.positional()[0]);
  if (!spec.ok()) {
    err << spec.error().message << '\n';
    return 1;
  }
  Result<AllocSet> alloc = parse_alloc(spec.value(), flags.get("alloc"));
  if (!alloc.ok()) {
    err << alloc.error().message << '\n';
    return 2;
  }
  const SpecificationGraph reduced =
      reduce_specification(spec.value(), alloc.value());
  const Result<std::string> text = spec_to_string(reduced);
  if (!text.ok()) {
    err << text.error().message << '\n';
    return 1;
  }
  out << text.value() << '\n';
  return 0;
}

int cmd_dot(const std::vector<std::string>& raw, std::ostream& out,
            std::ostream& err) {
  Flags flags;
  flags.define("graph", "problem",
               "which graph: problem|architecture|spec");
  if (Status s = flags.parse(raw); !s.ok()) {
    err << s.error().message << '\n';
    return 2;
  }
  if (flags.positional().empty()) {
    err << "dot: missing <spec.json>\n";
    return 2;
  }
  Result<SpecificationGraph> spec = load_spec(flags.positional()[0]);
  if (!spec.ok()) {
    err << spec.error().message << '\n';
    return 1;
  }
  const std::string which = flags.get("graph");
  if (which == "problem") {
    out << to_dot(spec.value().problem());
  } else if (which == "architecture") {
    out << to_dot(spec.value().architecture());
  } else if (which == "spec") {
    out << to_dot(spec.value(), SpecDotOptions{.title = spec.value().name()});
  } else {
    err << "unknown --graph value '" << which << "'\n";
    return 2;
  }
  return 0;
}

int cmd_generate(const std::vector<std::string>& raw, std::ostream& out,
                 std::ostream& err) {
  Flags flags;
  flags.define("seed", "1", "generator seed");
  flags.define("preset", "",
               "platform preset: settop-box|automotive-ecu|baseband-dsp|"
               "nested-s|nested-m|nested-xl (overrides the structural flags)");
  flags.define("applications", "3", "top-level alternatives");
  flags.define("processors", "2", "general-purpose processors");
  flags.define("accelerators", "2", "specialized accelerators");
  flags.define("fpga-configs", "2", "reconfigurable-device configurations");
  flags.define("tiles", "0",
               "nested-tile mode: independent root interfaces (0 = off; see "
               "also --preset nested-*)");
  flags.define("tile-depth", "3", "nested-tile mode: hierarchy depth");
  flags.define("tile-processors", "2",
               "nested-tile mode: local cpus per tile per depth level");
  flags.define("tile-alternatives", "2",
               "nested-tile mode: repeated templates per interface");
  flags.define("tile-processes", "2",
               "nested-tile mode: chain length per template");
  flags.define_bool("tile-bus", false,
                    "nested-tile mode: add one global bus across all cpus");
  if (Status s = flags.parse(raw); !s.ok()) {
    err << s.error().message << "\nflags:\n" << flags.usage();
    return 2;
  }
  GeneratorParams params;
  params.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  if (const std::string preset = flags.get("preset"); !preset.empty()) {
    static constexpr PlatformPreset kAll[] = {
        PlatformPreset::kSetTopBox, PlatformPreset::kAutomotiveEcu,
        PlatformPreset::kBasebandDsp, PlatformPreset::kNestedS,
        PlatformPreset::kNestedM, PlatformPreset::kNestedXl};
    bool found = false;
    for (const PlatformPreset p : kAll) {
      if (preset == preset_name(p)) {
        params = preset_params(p, params.seed);
        found = true;
        break;
      }
    }
    if (!found) {
      err << "generate: unknown preset '" << preset << "'\n";
      return 2;
    }
  } else {
    params.applications =
        static_cast<std::size_t>(flags.get_int("applications"));
    params.processors = static_cast<std::size_t>(flags.get_int("processors"));
    params.accelerators =
        static_cast<std::size_t>(flags.get_int("accelerators"));
    params.fpga_configs =
        static_cast<std::size_t>(flags.get_int("fpga-configs"));
    params.tiles = static_cast<std::size_t>(flags.get_int("tiles"));
    if (params.tiles > 0) {
      params.max_depth = static_cast<std::size_t>(
          std::max<long>(1, flags.get_int("tile-depth")));
    }
    params.tile_processors =
        static_cast<std::size_t>(flags.get_int("tile-processors"));
    params.tile_alternatives =
        static_cast<std::size_t>(flags.get_int("tile-alternatives"));
    params.tile_processes =
        static_cast<std::size_t>(flags.get_int("tile-processes"));
    params.tile_bus = flags.get_bool("tile-bus");
  }
  const Result<std::string> text = spec_to_string(generate_spec(params));
  if (!text.ok()) {
    err << text.error().message << '\n';
    return 1;
  }
  out << text.value() << '\n';
  return 0;
}

int cmd_demo(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  if (args.empty()) {
    err << "demo: expected 'settop' or 'decoder'\n";
    return 2;
  }
  SpecificationGraph spec =
      args[0] == "settop"
          ? models::make_settop_spec()
          : (args[0] == "decoder" ? models::make_tv_decoder_spec()
                                  : SpecificationGraph("?"));
  if (spec.name() == "?") {
    err << "unknown demo '" << args[0] << "'\n";
    return 2;
  }
  out << spec_to_string(spec).value() << '\n';
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) return usage(err);
  const std::string& command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (command == "validate") return cmd_validate(rest, out, err);
  if (command == "lint") return cmd_lint(rest, out, err);
  if (command == "flexibility") return cmd_flexibility(rest, out, err);
  if (command == "analyze") return cmd_analyze(rest, out, err);
  if (command == "explore") return cmd_explore(rest, out, err);
  if (command == "upgrade") return cmd_upgrade(rest, out, err);
  if (command == "sensitivity") return cmd_sensitivity(rest, out, err);
  if (command == "reduce") return cmd_reduce(rest, out, err);
  if (command == "dot") return cmd_dot(rest, out, err);
  if (command == "generate") return cmd_generate(rest, out, err);
  if (command == "demo") return cmd_demo(rest, out, err);
  err << "unknown command '" << command << "'\n";
  return usage(err);
}

}  // namespace sdf
