// perfbench: serves one workload's fixed list of `sdf` requests in-process,
// one client in a closed loop, and prints the end-to-end metrics (trace 0)
// or the per-layer metrics of a traced replay (trace 1).  The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--reference=perfbench/reference.json] [--trace-out=<file>]
//   perfbench --make-reference > perfbench/reference.json
//
// Exit status: 0 when every request matched its reference, 1 when one did
// not (the result line is still printed), 2 on a usage or set-up error.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "requests.hpp"
#include "trace.hpp"
#include "util/flags.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Resets the VmHWM high-water mark, so that input generation does not
/// count towards the workload's peak RSS.  False when the kernel refuses.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

/// Returns the heap pages freed by the last request to the kernel, so that
/// each request's peak RSS is its own and not the allocator's retention of
/// an earlier request's memory (which depends on the request order).
/// Called between requests, outside every timing.
void release_freed_memory() { malloc_trim(0); }

/// VmHWM in MB (2^20 bytes); 0 when /proc is unavailable.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  /// One request: counted once, and failed at most once.
  void record(const std::string& name, const Outcome& outcome,
              const References& refs, const char* also_wrong = nullptr) {
    ++attempted;
    std::string why = check(name, outcome, refs);
    if (why.empty() && also_wrong != nullptr) why = name + ": " + also_wrong;
    if (!why.empty()) failures.push_back(std::move(why));
  }
};

/// Untraced run: whole passes until `seconds` have elapsed.  A pass's time
/// is the sum of its request latencies (one client, closed loop), so
/// housekeeping between requests is not counted; its set-up and explore
/// times are the sums of its requests' phases.
std::vector<Metric> run_timed(const std::vector<Request>& requests,
                              std::uint64_t seed, double seconds,
                              const References& refs, Tally& tally) {
  const Clock::time_point start = Clock::now();
  std::vector<double> setup_samples, pass_samples, explore_samples;
  double first_pass_rss = 0.0;
  std::vector<std::vector<double>> per_request(requests.size());
  std::uint64_t pass = 0;
  do {
    double pass_s = 0.0, setup = 0.0, explore = 0.0;
    // peak_rss_mb is the first pass's high-water mark: the peaks of later
    // passes vary with the allocator state the earlier ones left behind.
    if (pass == 0) reset_peak_rss();
    for (const std::size_t i : pass_order(requests.size(), seed, pass)) {
      const Outcome o = serve(requests[i]);
      setup += o.setup_s;
      explore += o.explore_s;
      per_request[i].push_back(o.total_s);
      pass_s += o.total_s;
      tally.record(requests[i].def.name, o, refs);
      release_freed_memory();
    }
    pass_samples.push_back(pass_s);
    if (pass == 0) first_pass_rss = peak_rss_mb();
    setup_samples.push_back(setup);
    explore_samples.push_back(explore);
    ++pass;
  } while (since(start) < 0.95 * seconds);

  // The highest percentile with at least ten passes beyond it, if any.
  std::vector<double> sorted = pass_samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  std::printf("passes=%zu  pass_s median=%.4f min=%.4f max=%.4f", n,
              median(sorted), sorted.front(), sorted.back());
  if (n >= 20) {
    const double q = 1.0 - 10.0 / static_cast<double>(n);
    std::printf(" p%.0f=%.4f\n", 100.0 * q,
                sorted[static_cast<std::size_t>(q * static_cast<double>(n - 1))]);
  } else {
    std::printf(" (under 20 passes: no percentile above the median has ten "
                "passes beyond it)\n");
  }
  std::printf("setup_s median=%.6f min=%.6f max=%.6f (one sample per pass)\n",
              median(setup_samples),
              *std::min_element(setup_samples.begin(), setup_samples.end()),
              *std::max_element(setup_samples.begin(), setup_samples.end()));
  for (std::size_t i = 0; i < requests.size(); ++i)
    std::printf("  request %-10s threads=%zu  median total_s=%.4f (n=%zu)\n",
                requests[i].def.name.c_str(), requests[i].def.threads,
                median(per_request[i]), per_request[i].size());
  return {{"pass_s", median(pass_samples), "s"},
          {"setup_s", median(setup_samples), "s"},
          {"explore_s", median(explore_samples), "s"},
          {"peak_rss_mb", first_pass_rss, "MB"}};
}

/// Traced run: an untraced sequential pass (explore() at one thread)
/// interleaved with the traced replay of the same pass, then, for workloads
/// served by the parallel engine, one parallel pass for its phase timers.
std::vector<Metric> run_traced(const std::vector<Request>& requests,
                               const References& refs, Tally& tally,
                               Tracer& tracer) {
  // Each request is served untraced and then replayed traced, back to
  // back, so that both see the same host conditions.
  double untraced_s = 0.0;
  ReplayCounters c;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const Outcome untraced = serve(r, {.threads = 1});
    untraced_s += untraced.total_s;
    tally.record(r.def.name, untraced, refs);
    release_freed_memory();
    tracer.set_request(static_cast<std::uint32_t>(i));
    const Outcome traced = serve(r, {.tracer = &tracer, .counters = &c});
    tally.record(r.def.name, traced, refs,
                 traced.front != untraced.front
                     ? "traced replay front differs from explore()"
                     : nullptr);
    release_freed_memory();
  }
  // The traced pass: the request spans, which enclose every other span.
  const double traced_s = tracer.totals(Layer::kRequest).total_s;

  sdf::ExploreStats par;
  for (const Request& r : requests) {
    if (r.def.threads == 1) continue;
    const Outcome o = serve(r);
    tally.record(r.def.name, o, refs);
    release_freed_memory();
    par.enumerate_seconds += o.stats.enumerate_seconds;
    par.evaluate_seconds += o.stats.evaluate_seconds;
    par.merge_seconds += o.stats.merge_seconds;
    par.filter_cpu_seconds += o.stats.filter_cpu_seconds;
    par.implement_cpu_seconds += o.stats.implement_cpu_seconds;
    par.bands += o.stats.bands;
  }

  const auto self = [&tracer](Layer l) { return tracer.totals(l).self_s; };
  double attributed = 0.0;
  std::printf("%-28s %12s %8s %12s\n", "layer", "self_s", "share", "spans");
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const Layer l = static_cast<Layer>(i);
    const Tracer::Totals& tot = tracer.totals(l);
    if (l != Layer::kRequest && l != Layer::kExplore) attributed += tot.self_s;
    std::printf("%-28s %12.6f %7.2f%% %12llu\n", layer_name(l), tot.self_s,
                100.0 * ratio(tot.self_s, traced_s),
                static_cast<unsigned long long>(tot.count));
  }
  const double glue = self(Layer::kRequest) + self(Layer::kExplore);
  std::printf("traced pass %.4f s = layer self times %.4f s + glue %.4f s "
              "(request and explore-loop self time)\n",
              traced_s, attributed, glue);
  std::printf("untraced sequential pass %.4f s; tracing overhead %.4f s "
              "(%.2f%%)\n",
              untraced_s, traced_s - untraced_s,
              100.0 * ratio(traced_s - untraced_s, untraced_s));

  const Tracer::Totals& parse = tracer.totals(Layer::kSpecParse);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"spec.parse_s", self(Layer::kSpecParse), "s"},
      {"spec.parse_mb_per_s", ratio(count(c.parse_bytes) / 1e6, parse.total_s),
       "MB/s"},
      {"spec.validate_s", self(Layer::kSpecValidate), "s"},
      {"spec.compile_s", self(Layer::kSpecCompile), "s"},
      {"spec.free_s", self(Layer::kSpecFree), "s"},
      {"lint.errors_s", self(Layer::kLintErrors), "s"},
      {"lint.full_s", self(Layer::kLintFull), "s"},
      {"lint.diagnostics", count(c.lint_diagnostics), "count"},
      {"analysis.build_s", self(Layer::kAnalysisBuild), "s"},
      {"allocation_enum.next_s", self(Layer::kEnumNext), "s"},
      {"allocation_enum.candidates", count(c.candidates), "count"},
      {"allocation_enum.frontier_peak", count(c.frontier_peak), "count"},
      {"allocation_enum.dominance_s", self(Layer::kEnumDominance), "s"},
      {"allocation_enum.dominated", count(c.dominated), "count"},
      {"flex.possible_s", self(Layer::kFlexPossible), "s"},
      {"flex.estimate_s", self(Layer::kFlexEstimate), "s"},
      {"flex.bound_skipped", count(c.bound_skipped), "count"},
      {"flex.possible_ratio", ratio(count(c.possible), count(c.candidates)),
       "ratio"},
      {"bind.implement_s", self(Layer::kBindImplement), "s"},
      {"bind.implement_calls", count(c.implement_calls), "count"},
      {"bind.useful_ratio",
       ratio(count(c.implementations), count(c.implement_calls)), "ratio"},
      {"bind.solver_calls", count(c.solver_calls), "count"},
      {"bind.solver_nodes", count(c.solver_nodes), "count"},
      {"bind.cache_hit_ratio", ratio(count(c.cache_hits), count(c.solver_calls)),
       "ratio"},
      {"bind.cache_revalidations", count(c.cache_revalidations), "count"},
      {"bind.analysis_pruned", count(c.analysis_pruned), "count"},
      {"bind.flat_cache_evictions", count(c.flat_cache_evictions), "count"},
      {"bind.hier_subsolves", count(c.hier_subsolves), "count"},
      {"bind.hier_hits", count(c.hier_hits), "count"},
      {"parallel_explorer.enumerate_s", par.enumerate_seconds, "s"},
      {"parallel_explorer.evaluate_s", par.evaluate_seconds, "s"},
      {"parallel_explorer.merge_s", par.merge_seconds, "s"},
      {"parallel_explorer.filter_cpu_s", par.filter_cpu_seconds, "s"},
      {"parallel_explorer.implement_cpu_s", par.implement_cpu_seconds, "s"},
      {"parallel_explorer.bands", count(par.bands), "count"},
      {"parallel_explorer.eval_speedup",
       ratio(par.filter_cpu_seconds + par.implement_cpu_seconds,
             par.evaluate_seconds),
       "ratio"},
      {"report.json_s", self(Layer::kReportJson), "s"},
      {"trace.glue_s", glue, "s"},
      {"trace.attributed_share", ratio(attributed, traced_s), "ratio"},
      {"trace.overhead_s", traced_s - untraced_s, "s"},
  };
}

/// Reference values from independent paths: explore() with every cache,
/// the analyzer prefilter and the hierarchical path off and an unlimited
/// flatten cache; bb-5 is additionally confirmed by explore_exhaustive.
/// A disagreement with the default pipeline is a program bug: reported,
/// exit 1.
int make_reference() {
  sdf::JsonObject out;
  int rc = 0;
  for (const RequestDef& def : all_requests()) {
    const sdf::Result<Request> materialized = materialize(def);
    if (!materialized.ok()) {
      std::cerr << "perfbench: " << materialized.error().message << '\n';
      return 2;
    }
    const Request& request = materialized.value();
    const Outcome served = serve(request);
    if (def.kind == RequestKind::kIngest) {
      out.emplace_back(def.name, reference_of(def, served));
      continue;
    }
    sdf::ExploreOptions options = explore_options(1);
    options.budget = {};
    options.implementation.use_bind_cache = false;
    options.implementation.use_analysis = false;
    options.implementation.use_hier = false;
    const sdf::SpecificationGraph spec =
        std::move(sdf::spec_from_string(request.json)).value();
    spec.compiled().set_flat_cache_budget(0, 0);
    const sdf::ExploreResult plain = sdf::explore(spec, options);
    Outcome ref;
    for (const sdf::Implementation& impl : plain.front)
      ref.front.emplace_back(impl.cost, impl.flexibility);
    std::string source =
        "explore, no bind cache, no analysis, no hier, unlimited flatten cache";
    if (def.name == "bb-5") {
      const sdf::ExhaustiveResult ex =
          sdf::explore_exhaustive(spec, options.implementation);
      std::vector<FrontPoint> exhaustive;
      for (const sdf::Implementation& impl : ex.front)
        exhaustive.emplace_back(impl.cost, impl.flexibility);
      if (exhaustive != ref.front) {
        std::fprintf(stderr, "%s: explore_exhaustive disagrees\n",
                     def.name.c_str());
        rc = 1;
      }
      source += "; confirmed by explore_exhaustive";
    }
    if (served.front != ref.front || !served.error.empty()) {
      std::fprintf(stderr, "%s: default pipeline disagrees with the reference\n",
                   def.name.c_str());
      rc = 1;
    }
    sdf::Json j = reference_of(def, ref);
    j.set("source", source);
    out.emplace_back(def.name, std::move(j));
  }
  std::cout << sdf::Json(std::move(out)).dump(2) << '\n';
  return rc;
}

int run(int argc, char** argv) {
  sdf::Flags flags;
  flags.define("workload", "", "bind-heavy|enum-heavy|ingest-xl|parallel-t4");
  flags.define("seed", "1", "workload seed: the per-pass request order");
  flags.define("seconds", "10", "measured time of a run");
  flags.define("trace", "0", "1 = traced per-layer run");
  flags.define("reference", "perfbench/reference.json", "reference results");
  flags.define("trace-out", "", "file the spans are written to (trace 1)");
  flags.define_bool("make-reference", false,
                    "print reference results for every request and exit");
  if (sdf::Status s = flags.parse(std::vector<std::string>(argv + 1, argv + argc));
      !s.ok()) {
    std::cerr << s.error().message << "\nflags:\n" << flags.usage();
    return 2;
  }
  if (flags.get_bool("make-reference")) return make_reference();

  const std::string workload = flags.get("workload");
  const std::vector<RequestDef> defs = workload_requests(workload);
  const double seconds = flags.get_double("seconds");
  const std::string trace = flags.get("trace");
  if (defs.empty() || seconds <= 0.0 || (trace != "0" && trace != "1")) {
    std::cerr << "perfbench: need a known --workload, --seconds > 0 and "
                 "--trace 0 or 1\nflags:\n"
              << flags.usage();
    return 2;
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  sdf::Result<References> refs = load_references(flags.get("reference"));
  if (!refs.ok()) {
    std::cerr << "perfbench: " << refs.error().message << '\n';
    return 2;
  }

  sdf::Json host = sdf::bench::host_metadata();
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  if (!host.bool_or("optimized", false))
    std::cerr << "perfbench: WARNING: non-optimised build (" PERFBENCH_BUILD_TYPE
                 "); timings are not comparable\n";

  // Inputs are generated and serialised before anything is timed.
  std::vector<Request> requests;
  for (const RequestDef& def : defs) {
    sdf::Result<Request> request = materialize(def);
    if (!request.ok()) {
      std::cerr << "perfbench: " << request.error().message << '\n';
      return 2;
    }
    requests.push_back(std::move(request).value());
  }
  const bool rss_reset = reset_peak_rss();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%s "
              "clients=1 (closed loop)\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace.c_str());
  std::printf("host %s\n", host.dump().c_str());
  if (!rss_reset)
    std::printf("peak RSS could not be reset: it spans the whole run, input "
                "generation included\n");

  Tally tally;
  Tracer tracer;
  const std::vector<Metric> metrics =
      trace == "1" ? run_traced(requests, refs.value(), tally, tracer)
                   : run_timed(requests, seed, seconds, refs.value(), tally);

  if (const std::string path = flags.get("trace-out");
      trace == "1" && !path.empty()) {
    sdf::Json doc = tracer.to_json();
    doc.set("host", host);
    doc.set("workload", workload);
    std::ofstream(path) << doc.dump() << '\n';
  }

  for (const std::string& why : tally.failures)
    std::printf("FAILED %s\n", why.c_str());
  const std::size_t failed = tally.failures.size();
  std::printf("attempted=%llu failed=%zu failed_share=%.6f ratio\n",
              static_cast<unsigned long long>(tally.attempted), failed,
              ratio(static_cast<double>(failed),
                    static_cast<double>(tally.attempted)));
  sdf::JsonObject values;
  for (const Metric& m : metrics) {
    std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    values.emplace_back(m.name,
                        sdf::JsonObject{{"value", m.value}, {"unit", m.unit}});
  }
  const sdf::Json result(sdf::JsonObject{
      {"correct", failed == 0},
      {"attempted", static_cast<std::size_t>(tally.attempted)},
      {"failed", failed},
      {"metrics", std::move(values)}});
  std::printf("%s\n", result.dump().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
