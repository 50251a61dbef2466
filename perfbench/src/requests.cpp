#include "requests.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>

#include "analysis/analysis.hpp"
#include "explore/parallel_explorer.hpp"
#include "explore/report.hpp"
#include "gen/presets.hpp"
#include "lint/lint.hpp"
#include "spec/compiled.hpp"
#include "spec/spec_io.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

RequestDef preset_request(std::string name, RequestKind kind,
                          std::size_t threads, sdf::PlatformPreset preset,
                          std::uint64_t seed) {
  return RequestDef{std::move(name), kind, threads,
                    sdf::preset_params(preset, seed), {}};
}

/// `sdf generate --tiles=<tiles> --tile-depth=<depth> --seed=<seed>`.
RequestDef tile_request(std::string name, std::size_t threads,
                        std::size_t tiles, std::size_t depth,
                        std::uint64_t seed) {
  sdf::GeneratorParams p;
  p.seed = seed;
  p.tiles = tiles;
  p.max_depth = depth;
  return RequestDef{std::move(name), RequestKind::kExplore, threads, p, {}};
}

RequestDef bb5(std::size_t threads) {
  return preset_request("bb-5", RequestKind::kExplore, threads,
                        sdf::PlatformPreset::kBasebandDsp, 5);
}
RequestDef bb12(std::size_t threads) {
  return preset_request("bb-12", RequestKind::kExplore, threads,
                        sdf::PlatformPreset::kBasebandDsp, 12);
}
RequestDef tiles_2x4(std::size_t threads) {
  return tile_request("tiles-2x4", threads, 2, 4, 1);
}
RequestDef nested_json() {
  return RequestDef{"nested.json", RequestKind::kExplore, 1, {},
                    "examples/specs/nested.json"};
}

/// Non-finite values (an unreachable bound) are stored as null.
sdf::Json number_or_null(double v) {
  return std::isfinite(v) ? sdf::Json(v) : sdf::Json();
}

bool same_number(const sdf::Json* ref, double v) {
  if (ref == nullptr) return false;
  if (ref->is_null()) return !std::isfinite(v);
  if (!ref->is_number()) return false;
  const double r = ref->as_number();
  return std::fabs(r - v) <= 1e-9 * std::max(1.0, std::fabs(r));
}

std::string fmt(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"bind-heavy", "enum-heavy",
                                                  "ingest-xl", "parallel-t4"};
  return kNames;
}

}  // namespace

std::vector<RequestDef> workload_requests(const std::string& workload) {
  if (workload == "bind-heavy") return {bb5(1), bb12(1)};
  if (workload == "enum-heavy") return {tiles_2x4(1), nested_json()};
  if (workload == "ingest-xl")
    return {preset_request("nested-m", RequestKind::kIngest, 1,
                           sdf::PlatformPreset::kNestedM, 1),
            preset_request("nested-xl", RequestKind::kIngest, 1,
                           sdf::PlatformPreset::kNestedXl, 1)};
  if (workload == "parallel-t4") return {bb12(4), tiles_2x4(4)};
  return {};
}

std::vector<RequestDef> all_requests() {
  std::vector<RequestDef> out;
  for (const std::string& w : workload_names())
    for (RequestDef& def : workload_requests(w)) {
      bool seen = false;
      for (const RequestDef& o : out) seen = seen || o.name == def.name;
      if (!seen) out.push_back(std::move(def));
    }
  return out;
}

sdf::Result<Request> materialize(const RequestDef& def) {
  if (!def.file.empty()) {
    std::ifstream in(def.file, std::ios::binary);
    if (!in)
      return sdf::Error{"cannot open '" + def.file +
                        "' (run from the repository root)"};
    std::stringstream text;
    text << in.rdbuf();
    return Request{def, text.str()};
  }
  sdf::Result<std::string> text =
      sdf::spec_to_string(sdf::generate_spec(def.params));
  if (!text.ok()) return text.error().wrap(def.name);
  return Request{def, std::move(text).value()};
}

sdf::ExploreOptions explore_options(std::size_t threads) {
  sdf::ExploreOptions options;  // the `sdf explore` defaults
  options.num_threads = threads;
  options.budget.deadline_seconds = kRequestDeadlineSeconds;
  return options;
}

Outcome serve(const Request& request, const ServeOptions& options) {
  Tracer* const tracer = options.tracer;
  ReplayCounters untraced;
  ReplayCounters& counters =
      options.counters != nullptr ? *options.counters : untraced;
  const std::size_t threads = tracer != nullptr  ? 1
                              : options.threads != 0 ? options.threads
                                                     : request.def.threads;
  Outcome out;
  const Scope request_span(tracer, Layer::kRequest);
  const Clock::time_point t0 = Clock::now();
  std::optional<sdf::Result<sdf::SpecificationGraph>> loaded;
  {
    const Scope s(tracer, Layer::kSpecParse);
    loaded.emplace(sdf::spec_from_string(
        request.json, sdf::SpecParseOptions{.validate = false}));
  }
  counters.parse_bytes += request.json.size();
  sdf::Status valid;
  if (!loaded->ok()) {
    valid = loaded->error();
  } else {
    const Scope s(tracer, Layer::kSpecValidate);
    valid = loaded->value().validate();
  }
  if (!valid.ok()) {
    out.error = "load: " + valid.error().message;
    out.total_s = seconds_between(t0, Clock::now());
    return out;
  }
  const sdf::SpecificationGraph& spec = loaded->value();
  const sdf::CompiledSpec* cs = nullptr;
  {
    const Scope s(tracer, Layer::kSpecCompile);
    cs = &spec.compiled();
  }
  const sdf::ExploreOptions eo = explore_options(threads);
  bool preflight_errors = false;
  {
    const Scope s(tracer, Layer::kLintErrors);
    const sdf::LintReport preflight = sdf::lint_errors(spec);
    preflight_errors = preflight.has_errors();
    counters.lint_diagnostics += preflight.diagnostics.size();
  }
  std::optional<sdf::SpecAnalysis> analysis;
  bool provably_empty = false;
  {
    const Scope s(tracer, Layer::kAnalysisBuild);
    analysis.emplace(*cs, sdf::AnalysisOptions{eo.implementation.solver});
    sdf::AllocSet all = cs->make_alloc_set();
    for (std::size_t i = 0; i < cs->unit_count(); ++i) all.set(i);
    provably_empty = analysis->allocation_infeasible(all);
  }
  // `sdf explore`'s default flatten-cache budget.
  cs->set_flat_cache_budget(1024, std::size_t{64} << 20);
  const Clock::time_point t1 = Clock::now();
  out.setup_s = seconds_between(t0, t1);

  std::size_t report_bytes = 0;
  if (preflight_errors) {
    out.error = "preflight: lint errors";
  } else if (provably_empty && request.def.kind == RequestKind::kExplore) {
    out.error = "preflight: front provably empty";
  } else if (request.def.kind == RequestKind::kExplore) {
    const sdf::ExploreResult result =
        tracer != nullptr ? replay_explore(spec, eo, *tracer, counters)
        : threads == 1    ? sdf::explore(spec, eo)
                          : sdf::parallel_explore(spec, eo);
    out.explore_s = seconds_between(t1, Clock::now());
    {
      const Scope s(tracer, Layer::kReportJson);
      report_bytes = sdf::explore_result_to_json(spec, result).dump(2).size();
    }
    if (!result.status.ok())
      out.error = "explore: " + result.status.error().message;
    else if (result.stats.stop_reason != sdf::StopReason::kCompleted)
      out.error = std::string("explore stopped: ") +
                  sdf::stop_reason_name(result.stats.stop_reason);
    for (const sdf::Implementation& impl : result.front)
      out.front.emplace_back(impl.cost, impl.flexibility);
    out.stats = result.stats;
  } else {
    sdf::LintReport full;
    {
      const Scope s(tracer, Layer::kLintFull);
      full = sdf::lint(spec);
    }
    out.explore_s = seconds_between(t1, Clock::now());
    {
      const Scope s(tracer, Layer::kReportJson);
      report_bytes = full.to_json().dump(2).size() +
                     analysis->to_json().dump(2).size();
    }
    out.diagnostics = full.diagnostics.size();
    counters.lint_diagnostics += out.diagnostics;
    const sdf::ClusterBounds& root = analysis->root_bounds();
    out.root_lo = root.lo;
    out.root_hi = root.hi;
    out.root_hi_cover = root.hi_cover;
  }
  {
    const Scope s(tracer, Layer::kSpecFree);
    analysis.reset();
    loaded.reset();
  }
  out.total_s = seconds_between(t0, Clock::now());
  // The report is produced for its cost; an empty one is a failure.
  if (out.error.empty() && report_bytes == 0) out.error = "empty report";
  return out;
}

sdf::Result<References> load_references(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return sdf::Error{"cannot open reference file '" + path + "'"};
  std::stringstream buf;
  buf << in.rdbuf();
  sdf::Result<sdf::Json> doc = sdf::Json::parse(buf.str());
  if (!doc.ok()) return doc.error().wrap(path);
  if (!doc.value().is_object())
    return sdf::Error{path + ": reference file must be a JSON object"};
  return References(doc.value().as_object());
}

std::string check(const std::string& name, const Outcome& outcome,
                  const References& references) {
  if (!outcome.error.empty()) return name + ": " + outcome.error;
  const sdf::Json* ref = nullptr;
  for (const auto& [key, value] : references)
    if (key == name) ref = &value;
  if (ref == nullptr) return name + ": no reference";
  if (const sdf::Json* front = ref->find("front"); front != nullptr) {
    const sdf::JsonArray& points = front->as_array();
    if (points.size() != outcome.front.size())
      return name + ": front has " + std::to_string(outcome.front.size()) +
             " points, reference " + std::to_string(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const sdf::JsonArray& p = points[i].as_array();
      const auto [cost, flex] = outcome.front[i];
      if (p.size() != 2 || !same_number(&p[0], cost) ||
          !same_number(&p[1], flex))
        return name + ": front point " + std::to_string(i) + " is (" +
               fmt(cost) + ", " + fmt(flex) + "), reference differs";
    }
    return {};
  }
  const sdf::Json* diagnostics = ref->find("diagnostics");
  if (diagnostics == nullptr ||
      !same_number(diagnostics, static_cast<double>(outcome.diagnostics)))
    return name + ": " + std::to_string(outcome.diagnostics) +
           " lint diagnostics, reference differs";
  if (!same_number(ref->find("root_lo"), outcome.root_lo) ||
      !same_number(ref->find("root_hi"), outcome.root_hi) ||
      !same_number(ref->find("root_hi_cover"), outcome.root_hi_cover))
    return name + ": root ClusterBounds (" + fmt(outcome.root_lo) + ", " +
           fmt(outcome.root_hi) + ", " + fmt(outcome.root_hi_cover) +
           ") differ from the reference";
  return {};
}

sdf::Json reference_of(const RequestDef& def, const Outcome& outcome) {
  sdf::JsonObject ref;
  if (def.kind == RequestKind::kExplore) {
    sdf::JsonArray front;
    for (const auto& [cost, flex] : outcome.front)
      front.emplace_back(sdf::JsonArray{sdf::Json(cost), sdf::Json(flex)});
    ref.emplace_back("front", sdf::Json(std::move(front)));
  } else {
    ref.emplace_back("diagnostics", sdf::Json(outcome.diagnostics));
    ref.emplace_back("root_lo", number_or_null(outcome.root_lo));
    ref.emplace_back("root_hi", number_or_null(outcome.root_hi));
    ref.emplace_back("root_hi_cover", number_or_null(outcome.root_hi_cover));
  }
  return sdf::Json(std::move(ref));
}

std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t seed,
                                    std::uint64_t pass) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  // splitmix64: the same (seed, pass) gives the same order on every host.
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + pass;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[next() % i]);
  return order;
}

}  // namespace perfbench
