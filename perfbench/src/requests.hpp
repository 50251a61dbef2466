// Workloads and the request pipeline of the end-to-end benchmark.
//
// A request is what one `sdf` invocation does with one specification:
//   explore: load (parse + validate) -> compile -> preflight (lint_errors,
//            SpecAnalysis) -> explore()/parallel_explore() -> JSON report,
//            the work of `sdf explore --json`;
//   ingest:  load -> compile -> preflight -> full lint registry -> JSON
//            reports, the work of `sdf lint --json` plus `sdf analyze --json`.
// `serve()` runs that pipeline through the library's public entry points
// and stamps the three phase boundaries; given a tracer, it also opens a
// span around each layer call and explores through the traced replay
// (trace.hpp).  `check()` compares the outcome with the committed reference
// (perfbench/reference.json).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "explore/explorer.hpp"
#include "gen/spec_generator.hpp"
#include "util/json.hpp"

namespace perfbench {

enum class RequestKind { kExplore, kIngest };

class Tracer;
struct ReplayCounters;

/// One request of a workload: where its specification comes from and how
/// it is served.
struct RequestDef {
  std::string name;  ///< reference key, e.g. "bb-12"
  RequestKind kind = RequestKind::kExplore;
  std::size_t threads = 1;  ///< 1 = explore(), otherwise parallel_explore()
  sdf::GeneratorParams params;  ///< generated input, unless `file` is set
  std::string file;  ///< committed input, relative to the repository root
};

/// A request with its input generated: the JSON text `sdf` would read.
struct Request {
  RequestDef def;
  std::string json;
};

/// (cost, flexibility) of one front point.
using FrontPoint = std::pair<double, double>;

/// What serving a request produced, plus its phase times.
struct Outcome {
  std::string error;           ///< empty when the request completed
  double setup_s = 0.0;        ///< load, compile, preflight
  double explore_s = 0.0;      ///< explore engine, or full lint (ingest)
  double total_s = 0.0;        ///< whole request, teardown included
  std::vector<FrontPoint> front;  ///< explore requests
  std::size_t diagnostics = 0;    ///< ingest: full-lint findings
  double root_lo = 0.0, root_hi = 0.0, root_hi_cover = 0.0;  ///< ingest
  sdf::ExploreStats stats;        ///< explore requests
};

/// The fixed request list of `workload`; empty for an unknown name.
[[nodiscard]] std::vector<RequestDef> workload_requests(
    const std::string& workload);

/// Every distinct request of every workload (for reference generation).
[[nodiscard]] std::vector<RequestDef> all_requests();

/// Reads the request's committed input, or generates its specification and
/// serialises it to JSON.
[[nodiscard]] sdf::Result<Request> materialize(const RequestDef& def);

/// Wall-clock budget of one request: a seed that makes a request run away
/// ends as a counted failure, not a hang.
inline constexpr double kRequestDeadlineSeconds = 45.0;

struct ServeOptions {
  /// Override the request's engine thread count (0 = keep).
  std::size_t threads = 0;
  /// Traced run: a span around every layer call, and explore() replaced by
  /// its traced replay (sequential, so `threads` is ignored).
  Tracer* tracer = nullptr;
  /// Work counters of the traced run; required with `tracer`.
  ReplayCounters* counters = nullptr;
};

/// Serves `request` end to end; see the file comment.
[[nodiscard]] Outcome serve(const Request& request,
                            const ServeOptions& options = {});

/// The explore options every explore request runs with: the `sdf explore`
/// defaults plus the request deadline.
[[nodiscard]] sdf::ExploreOptions explore_options(std::size_t threads);

/// Per-request reference values, keyed by request name.
using References = std::vector<std::pair<std::string, sdf::Json>>;

[[nodiscard]] sdf::Result<References> load_references(const std::string& path);

/// Empty when `outcome` matches the reference of `name`; otherwise why not.
[[nodiscard]] std::string check(const std::string& name,
                                const Outcome& outcome,
                                const References& references);

/// The reference value an outcome is checked against, in reference.json
/// form.
[[nodiscard]] sdf::Json reference_of(const RequestDef& def,
                                     const Outcome& outcome);

/// Deterministic per-pass request order drawn from the workload seed.
[[nodiscard]] std::vector<std::size_t> pass_order(std::size_t n,
                                                  std::uint64_t seed,
                                                  std::uint64_t pass);

}  // namespace perfbench
