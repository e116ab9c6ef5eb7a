// Prints Table II: the 28 real-world datasets with the paper's published
// dimension / nnz(A) / nnz(C), next to the generated stand-ins' measured
// values (scaled back to paper size for comparison). This is the
// calibration record for the dataset substitution documented in DESIGN.md.
//
// Flags: --scale (default 0.1 — nnz(C) is measured with an exact symbolic
// pass, so the default keeps the run fast; ratios are scale-invariant to
// first order), --seed, --csv.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "metrics/report.h"
#include "sparse/reference_spgemm.h"
#include "sparse/stats.h"

namespace spnet {
namespace {

int Run(int argc, char** argv) {
  // Lighter default than the other benches: the symbolic pass is the
  // only expensive part of this binary.
  const bench::BenchOptions options = bench::BenchOptions::FromArgs(
      argc, argv,
      {.default_scale = 0.1, .reads_device = false, .reads_cache = false});

  metrics::Table table({"dataset", "family", "dim", "nnz(A)",
                        "nnz(C) paper", "nnz(C) measured", "ratio paper",
                        "ratio measured", "gini"});
  for (const auto& spec : datasets::TableTwoDatasets()) {
    auto a = datasets::Materialize(spec, options.scale, options.seed);
    SPNET_CHECK(a.ok()) << a.status().ToString();
    auto nnz_c = sparse::SpGemmExactOutputNnz(*a, *a);
    SPNET_CHECK(nnz_c.ok());
    const auto stats = sparse::ComputeRowStats(*a);

    // Scale the measured nnz(C) back to paper size: for the quasi-regular
    // family C's nnz grows ~linearly with the matrix; for power-law data
    // the hub structure keeps the nnz(C)/nnz(A) ratio roughly
    // scale-invariant, so the ratio is the meaningful comparison.
    const double paper_ratio =
        static_cast<double>(spec.paper_nnz_c) / static_cast<double>(spec.nnz);
    const double measured_ratio =
        static_cast<double>(nnz_c.value()) / static_cast<double>(a->nnz());
    table.AddRow(
        {spec.name,
         spec.family == datasets::Family::kFloridaRegular ? "Florida"
                                                          : "Stanford",
         metrics::FormatCount(spec.dim), metrics::FormatCount(spec.nnz),
         metrics::FormatCount(spec.paper_nnz_c),
         metrics::FormatCount(static_cast<int64_t>(
             measured_ratio * static_cast<double>(spec.nnz))),
         metrics::FormatDouble(paper_ratio, 1),
         metrics::FormatDouble(measured_ratio, 1),
         metrics::FormatDouble(stats.gini)});
  }

  std::printf("== Table II: real-world datasets, paper vs generated "
              "stand-ins (measured at scale %.2f) ==\n",
              options.scale);
  std::fputs(options.csv ? table.ToCsv().c_str() : table.ToString().c_str(),
             stdout);
  std::printf("\n'nnz(C) measured' extrapolates the measured nnz(C)/nnz(A) "
              "ratio to the paper's nnz(A).\n");

  bench::BenchJson json("table2_datasets", "Table II", options);
  json.AddTable("datasets", table);
  json.WriteIfRequested();
  return 0;
}

}  // namespace
}  // namespace spnet

int main(int argc, char** argv) { return spnet::Run(argc, argv); }
