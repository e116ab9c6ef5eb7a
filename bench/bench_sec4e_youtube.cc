// Reproduces the Section IV-E walkthrough: the Block Reorganizer pipeline
// on YouTube, reporting the bin populations (paper: 713 dominators,
// 362,736 low performers, 12,657 limited rows at full scale) and the
// per-technique gains over the outer-product baseline (paper: +10.4%
// B-Splitting, +6.7% B-Gathering, +16.8% B-Limiting, +41.5% combined).
//
// Flags: --scale (default 0.25), --device, --seed, --csv.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "core/block_reorganizer.h"
#include "core/suite.h"
#include "metrics/report.h"
#include "spgemm/algorithm.h"

namespace spnet {
namespace {

int Run(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::BenchOptions::FromArgs(argc, argv);
  const gpusim::DeviceSpec device = options.Device();
  const sparse::CsrMatrix a = bench::LoadDataset("youtube", options);

  core::BlockReorganizerSpGemm reorganizer;
  auto report = reorganizer.Analyze(a, a, device);
  SPNET_CHECK(report.ok());

  metrics::Table bins({"quantity", "paper (scale 1.0)",
                       "measured (this scale)"});
  bins.AddRow({"dominator pairs", "713",
               metrics::FormatCount(report->dominators)});
  bins.AddRow({"low performer pairs", "362.7k",
               metrics::FormatCount(report->low_performers)});
  bins.AddRow({"rows using B-Limiting", "12.7k",
               metrics::FormatCount(report->limited_rows)});
  bins.AddRow({"split fragments", "-",
               metrics::FormatCount(report->fragments)});
  bins.AddRow({"combined blocks", "-",
               metrics::FormatCount(report->combined_blocks)});
  std::printf("== Section IV-E: YouTube workload classification "
              "(scale %.2f) ==\n",
              options.scale);
  std::fputs(bins.ToString().c_str(), stdout);

  // Per-technique gains over the outer-product baseline.
  const auto outer = spgemm::MakeOuterProduct();
  auto base = spgemm::Measure(*outer, a, a, device);
  SPNET_CHECK(base.ok());

  metrics::Table gains({"technique", "paper gain", "measured gain"});
  const char* paper[] = {"+16.8%", "+10.4%", "+6.7%", "+41.5%"};
  int i = 0;
  for (const auto& alg : core::MakeAblationSuite()) {
    auto m = spgemm::Measure(*alg, a, a, device);
    SPNET_CHECK(m.ok());
    const double gain =
        100.0 * (base->total_seconds / m->total_seconds - 1.0);
    // Appended, not `"+" + FormatDouble(...)`: GCC 12 at -O3 reports a
    // false -Wrestrict for an operator+ that inserts at the front.
    std::string cell = gain >= 0 ? "+" : "";
    cell += metrics::FormatDouble(gain, 1);
    cell += "%";
    gains.AddRow({alg->name(), paper[i++], cell});
  }
  std::printf("\n== Section IV-E: technique gains over the outer-product "
              "baseline ==\n");
  std::fputs(gains.ToString().c_str(), stdout);

  bench::BenchJson json("sec4e_youtube", "Section IV-E", options);
  json.AddTable("workload_bins", bins);
  json.AddTable("technique_gains", gains);
  json.WriteIfRequested();
  return 0;
}

}  // namespace
}  // namespace spnet

int main(int argc, char** argv) { return spnet::Run(argc, argv); }
