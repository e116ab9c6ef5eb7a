// Planning-frontier bench: planning time vs plan quality for the exact
// and estimated planning tiers, across the synthetic generator families.
//
// The estimation tier replaces the exact precalculation (a full C-hat
// row gather, O(flops)) with a deterministic row sample plus guaranteed
// upper/lower row bands, rescanning exactly only the rows whose band
// straddles the limiting threshold. This bench measures what that
// buys and what it costs, per generator family:
//
//   precalc ms     wall-clock of the tier-specific planning phase alone
//                  (workload precalculation + classification). This is
//                  where the tiers actually differ — kernel enumeration is
//                  shared — so it is the headline frontier metric, and the
//                  estimated tier must beat exact here, most visibly on
//                  the power-law family where the exact gather is most
//                  expensive
//   plan cold ms   wall-clock of one full Plan() call on a fresh
//                  algorithm (precalc + kernel enumeration)
//   batch warm ms  wall-clock of a warm repeated-structure batch through
//                  the engine. The exact tier amortizes via the plan
//                  cache; estimated-tier plans carry low confidence and
//                  are refused admission (engine.plan_cache.
//                  reject_low_confidence), so the estimated tier re-plans
//                  every query — cheaply
//   sim ms         simulated device time of the built plan (plan
//                  quality: how much scheduling fidelity the estimates
//                  give up)
//   confidence     SpGemmPlan::confidence (fraction of the modeled work
//                  known exactly; 1.0 for the exact tier)
//
// Flags: --scale (default 0.25), --seed, --device, --csv, --threads,
// --repeat (plan timing repetitions, default 3),
// --json_out=BENCH_planning_frontier.json.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/block_reorganizer.h"
#include "core/reorganizer_config.h"
#include "datasets/generators.h"
#include "engine/batch_runner.h"
#include "engine/request.h"
#include "metrics/report.h"
#include "core/workload_classifier.h"
#include "sparse/csr_matrix.h"
#include "spgemm/algorithm.h"
#include "spgemm/exec_context.h"
#include "spgemm/nnz_estimator.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace {

/// One synthetic input per generator family, linearly scaled. The sizes
/// are chosen so the exact tier's precalculation is the dominant planning
/// cost at scale 1.0 while the whole sweep stays seconds-fast at the
/// default 0.25.
sparse::CsrMatrix MakeFamilyCase(const std::string& family,
                                 const bench::BenchOptions& options) {
  const double s = options.scale;
  auto dim = [&](double base) {
    return static_cast<sparse::Index>(std::max(64.0, base * s));
  };
  auto count = [&](double base) {
    return static_cast<int64_t>(std::max(256.0, base * s));
  };
  Result<sparse::CsrMatrix> m =
      Status::InvalidArgument("unknown family " + family);
  if (family == "powerlaw") {
    datasets::PowerLawParams p;
    p.rows = dim(24000);
    p.cols = p.rows;
    p.nnz = count(960000);
    p.row_skew = 0.9;
    p.col_skew = 0.9;
    p.seed = options.seed;
    m = datasets::GeneratePowerLaw(p);
  } else if (family == "rmat") {
    datasets::RmatParams p;
    p.scale = 1;
    while ((sparse::Index{1} << p.scale) < dim(16000)) ++p.scale;
    p.edge_count = count(320000);
    p.seed = options.seed;
    m = datasets::GenerateRmat(p);
  } else if (family == "banded") {
    datasets::QuasiRegularParams p;
    p.n = dim(20000);
    p.nnz = count(400000);
    p.seed = options.seed;
    m = datasets::GenerateQuasiRegular(p);
  } else if (family == "block-diagonal") {
    datasets::BlockDiagonalParams p;
    p.n = dim(20000);
    p.block_size = 48;
    p.fill = 0.2;
    p.seed = options.seed;
    m = datasets::GenerateBlockDiagonal(p);
  }
  SPNET_CHECK(m.ok()) << family << ": " << m.status().ToString();
  return std::move(m).value();
}

struct TierResult {
  double precalc_ms = 0.0;
  double plan_cold_ms = 0.0;
  double batch_warm_ms = 0.0;
  double sim_ms = 0.0;
  double confidence = 1.0;
  int64_t flops = 0;
  int64_t rejected = 0;
};

TierResult RunTier(const sparse::CsrMatrix& matrix,
                   core::PlanningTier tier,
                   const bench::BenchOptions& options, int64_t repeat,
                   spgemm::ExecContext* ctx) {
  core::ReorganizerConfig config;
  config.planning_tier = tier;
  TierResult result;

  // Tier-specific phase in isolation: precalculation + classification,
  // best of `repeat`. Kernel enumeration (shared by both tiers) is
  // excluded, so this is the planning-frontier signal itself.
  for (int64_t r = 0; r < repeat; ++r) {
    Timer timer;
    if (tier == core::PlanningTier::kExact) {
      const spgemm::Workload w = spgemm::BuildWorkload(matrix, matrix);
      const core::Classification c = core::Classify(w, config);
      SPNET_CHECK(c.dominator_threshold >= 1);
    } else {
      spgemm::EstimatedWorkload est =
          spgemm::BuildWorkloadEstimated(matrix, matrix);
      const core::Classification c =
          core::ClassifyEstimated(&est, matrix, matrix, config);
      SPNET_CHECK(c.dominator_threshold >= 1);
    }
    const double ms = timer.Seconds() * 1e3;
    if (r == 0 || ms < result.precalc_ms) result.precalc_ms = ms;
  }

  // Cold planning: a fresh Plan() call, best of `repeat` (the minimum is
  // the least noise-contaminated estimate of the true cost).
  auto algorithm = core::MakeBlockReorganizer(config);
  SPNET_CHECK(algorithm.ok()) << algorithm.status().ToString();
  const gpusim::DeviceSpec device = options.Device();
  for (int64_t r = 0; r < repeat; ++r) {
    Timer timer;
    auto plan = (*algorithm)->Plan(matrix, matrix, device, ctx);
    SPNET_CHECK(plan.ok()) << plan.status().ToString();
    const double ms = timer.Seconds() * 1e3;
    if (r == 0 || ms < result.plan_cold_ms) result.plan_cold_ms = ms;
    if (r == 0) {
      result.confidence = plan->confidence;
      result.flops = plan->flops;
      auto measured = spgemm::SimulatePlan(*plan, device, nullptr);
      SPNET_CHECK(measured.ok()) << measured.status().ToString();
      result.sim_ms = measured->total_seconds * 1e3;
    }
  }

  // Warm batch: repeated-structure traffic through the engine. The first
  // Execute populates (or, for low-confidence estimated plans, fails to
  // populate) the plan cache; the second is the steady state.
  engine::BatchOptions batch;
  batch.device = device;
  batch.reorganizer_config = config;
  engine::BatchRunner runner(batch);
  auto shared = std::make_shared<const sparse::CsrMatrix>(matrix);
  std::vector<engine::Request> requests;
  for (int i = 0; i < 8; ++i) {
    auto request = engine::RequestBuilder()
                       .Id("q" + std::to_string(i))
                       .Algorithm("reorganizer")
                       .OperandA(shared)
                       .Build();
    SPNET_CHECK(request.ok()) << request.status().ToString();
    requests.push_back(std::move(request).value());
  }
  auto cold = runner.Execute(requests, nullptr);
  SPNET_CHECK(cold.ok()) << cold.status().ToString();
  auto warm = runner.Execute(requests, nullptr);
  SPNET_CHECK(warm.ok()) << warm.status().ToString();
  SPNET_CHECK(warm->failed == 0) << "warm pass had failing queries";
  result.batch_warm_ms = warm->wall_ms;
  result.rejected = cold->plan_cache_rejected_low_confidence +
                    warm->plan_cache_rejected_low_confidence;
  return result;
}

int Run(int argc, char** argv) {
  bench::BenchOptions options = bench::BenchOptions::FromArgs(argc, argv);
  FlagParser flags;
  SPNET_CHECK(flags.Parse(argc, argv).ok());
  const int64_t repeat = std::max<int64_t>(1, flags.GetInt("repeat", 3));

  const std::vector<std::string> families = {"powerlaw", "rmat", "banded",
                                             "block-diagonal"};
  struct Tier {
    const char* name;
    core::PlanningTier tier;
  };
  const Tier tiers[] = {{"exact", core::PlanningTier::kExact},
                        {"estimated", core::PlanningTier::kEstimated}};

  spgemm::ExecContext ctx;
  metrics::Table table({"family", "tier", "precalc ms", "plan cold ms",
                        "batch warm ms", "sim ms", "confidence", "flops",
                        "cache rejects"});
  for (const std::string& family : families) {
    const sparse::CsrMatrix matrix = MakeFamilyCase(family, options);
    double exact_precalc = 0.0;
    double exact_cold = 0.0;
    for (const Tier& tier : tiers) {
      const TierResult r =
          RunTier(matrix, tier.tier, options, repeat, &ctx);
      if (tier.tier == core::PlanningTier::kExact) {
        exact_precalc = r.precalc_ms;
        exact_cold = r.plan_cold_ms;
      }
      table.AddRow({family, tier.name,
                    metrics::FormatDouble(r.precalc_ms, 3),
                    metrics::FormatDouble(r.plan_cold_ms, 3),
                    metrics::FormatDouble(r.batch_warm_ms, 3),
                    metrics::FormatDouble(r.sim_ms, 3),
                    metrics::FormatDouble(r.confidence, 4),
                    std::to_string(r.flops), std::to_string(r.rejected)});
      if (tier.tier == core::PlanningTier::kEstimated) {
        std::printf(
            "%-14s estimated/exact precalc: %.2fx  cold planning: %.2fx\n",
            family.c_str(),
            exact_precalc > 0.0 ? r.precalc_ms / exact_precalc : 0.0,
            exact_cold > 0.0 ? r.plan_cold_ms / exact_cold : 0.0);
      }
    }
  }

  std::printf("== planning frontier: exact vs estimated tier ==\n");
  std::fputs(options.csv ? table.ToCsv().c_str() : table.ToString().c_str(),
             stdout);

  bench::BenchJson json("planning_frontier",
                        "estimation tier planning frontier", options);
  json.AddTable("planning_frontier", table);
  json.AttachContext(&ctx);
  json.WriteIfRequested();
  return 0;
}

}  // namespace
}  // namespace spnet

int main(int argc, char** argv) { return spnet::Run(argc, argv); }
