// Self-test of the benchmark on the paper models: the request pipeline and
// the traced replay reproduce the published fronts, and the reference
// checker catches a wrong reference.  Run from the repository root
// (ctest sets the working directory) so reference.json is found.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "explore/explorer.hpp"
#include "requests.hpp"
#include "spec/paper_models.hpp"
#include "spec/spec_io.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

Request paper_request(const std::string& name,
                      const sdf::SpecificationGraph& spec) {
  return Request{RequestDef{name, RequestKind::kExplore, 1, {}, {}},
                 sdf::spec_to_string(spec).value()};
}

const std::vector<FrontPoint> kSettopFront = {
    {100, 2}, {120, 3}, {230, 4}, {290, 5}, {360, 7}, {430, 8}};

References settop_reference(std::vector<FrontPoint> front) {
  RequestDef def{"settop", RequestKind::kExplore, 1, {}, {}};
  Outcome o;
  o.front = std::move(front);
  return {{"settop", reference_of(def, o)}};
}

TEST(PerfbenchSelfTest, SettopFrontThroughThePipeline) {
  const Outcome o = serve(paper_request("settop", sdf::models::make_settop_spec()));
  EXPECT_EQ(o.error, "");
  EXPECT_EQ(o.front, kSettopFront);
  EXPECT_GT(o.setup_s, 0.0);
  EXPECT_GT(o.explore_s, 0.0);
  EXPECT_EQ(check("settop", o, settop_reference(kSettopFront)), "");
}

TEST(PerfbenchSelfTest, DecoderCheapestPointIsUpAtFifty) {
  const sdf::SpecificationGraph spec = sdf::models::make_tv_decoder_spec();
  const Outcome o = serve(paper_request("decoder", spec));
  ASSERT_EQ(o.error, "");
  ASSERT_FALSE(o.front.empty());
  EXPECT_EQ(o.front.front(), FrontPoint(50, 1));
  const sdf::ExploreResult direct = sdf::explore(spec);
  ASSERT_FALSE(direct.front.empty());
  EXPECT_EQ(spec.allocation_names(direct.front.front().units), "uP");
}

TEST(PerfbenchSelfTest, TracedReplayReproducesExplore) {
  // The paper models take the flat bind path, nested.json the hier path.
  const sdf::Result<Request> nested = materialize(RequestDef{
      "nested.json", RequestKind::kExplore, 1, {}, "examples/specs/nested.json"});
  ASSERT_TRUE(nested.ok()) << nested.error().message;
  for (const Request& request :
       {paper_request("settop", sdf::models::make_settop_spec()),
        paper_request("decoder", sdf::models::make_tv_decoder_spec()),
        nested.value()}) {
    Tracer tracer;
    ReplayCounters counters;
    const Outcome traced =
        serve(request, {.tracer = &tracer, .counters = &counters});
    const sdf::SpecificationGraph spec =
        std::move(sdf::spec_from_string(request.json)).value();
    const sdf::ExploreResult direct = sdf::explore(spec, explore_options(1));
    std::vector<FrontPoint> expected;
    for (const sdf::Implementation& impl : direct.front)
      expected.emplace_back(impl.cost, impl.flexibility);
    EXPECT_EQ(traced.error, "") << request.def.name;
    EXPECT_EQ(traced.front, expected) << request.def.name;
    EXPECT_EQ(counters.candidates, direct.stats.candidates_generated);
    EXPECT_EQ(counters.implement_calls, direct.stats.implementation_attempts);
    EXPECT_EQ(counters.solver_calls, direct.stats.solver_calls);
    EXPECT_EQ(counters.solver_nodes, direct.stats.solver_nodes);
    EXPECT_EQ(counters.hier_subsolves, direct.stats.hier_subsolves);
    EXPECT_EQ(counters.hier_hits, direct.stats.hier_hits);
    // Every layer of an explore request fired, and the spans nest.
    for (const Layer l : {Layer::kRequest, Layer::kSpecParse,
                          Layer::kSpecValidate, Layer::kSpecCompile,
                          Layer::kLintErrors, Layer::kAnalysisBuild,
                          Layer::kExplore, Layer::kEnumNext,
                          Layer::kFlexPossible, Layer::kBindImplement,
                          Layer::kReportJson, Layer::kSpecFree})
      EXPECT_GT(tracer.totals(l).count, 0u) << layer_name(l);
    for (const Tracer::Span& s : tracer.spans()) {
      EXPECT_LE(s.start_s, s.end_s);
      if (s.parent >= 0) {
        EXPECT_GE(s.start_s, tracer.spans()[s.parent].start_s);
      }
    }
  }
}

TEST(PerfbenchSelfTest, CheckerCatchesAWrongReference) {
  const Outcome o = serve(paper_request("settop", sdf::models::make_settop_spec()));
  std::vector<FrontPoint> wrong = kSettopFront;
  wrong.back().first = 431;
  EXPECT_NE(check("settop", o, settop_reference(wrong)), "");
  wrong = kSettopFront;
  wrong.pop_back();
  EXPECT_NE(check("settop", o, settop_reference(wrong)), "");
  EXPECT_NE(check("settop", o, {}), "");  // no reference at all
  Outcome failed = o;
  failed.error = "explore stopped: deadline";
  EXPECT_NE(check("settop", failed, settop_reference(kSettopFront)), "");
}

TEST(PerfbenchSelfTest, IngestReferenceIsChecked) {
  RequestDef def{"ingest", RequestKind::kIngest, 1, {}, {}};
  Outcome o;
  o.diagnostics = 3;
  o.root_lo = 143;
  o.root_hi = 7188;
  o.root_hi_cover = std::numeric_limits<double>::infinity();
  const References refs = {{"ingest", reference_of(def, o)}};
  EXPECT_EQ(check("ingest", o, refs), "");
  Outcome wrong = o;
  wrong.diagnostics = 4;
  EXPECT_NE(check("ingest", wrong, refs), "");
  wrong = o;
  wrong.root_hi_cover = 9000;
  EXPECT_NE(check("ingest", wrong, refs), "");
}

TEST(PerfbenchSelfTest, CommittedReferenceCoversEveryRequest) {
  const sdf::Result<References> refs =
      load_references("perfbench/reference.json");
  ASSERT_TRUE(refs.ok()) << refs.error().message;
  for (const RequestDef& def : all_requests()) {
    bool found = false;
    for (const auto& [name, value] : refs.value()) found = found || name == def.name;
    EXPECT_TRUE(found) << def.name;
  }
}

TEST(PerfbenchSelfTest, PassOrderIsASeededPermutation) {
  for (std::uint64_t pass = 0; pass < 8; ++pass) {
    const std::vector<std::size_t> order = pass_order(5, 42, pass);
    EXPECT_EQ(order, pass_order(5, 42, pass));
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 5u);
  }
}

}  // namespace
}  // namespace perfbench
