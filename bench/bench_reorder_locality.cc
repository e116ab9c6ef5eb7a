// Reorder-locality bench: does the reordering pre-pass change what the
// workload classifier sees? For each synthetic generator family and each
// reorder strategy this runs the Block Reorganizer pre-process
// (BlockReorganizerSpGemm::Analyze on A*A) with and without the pre-pass
// and reports the classifier bin census side by side. pair_work lives
// on the inner dimension, which the pre-pass never relabels (A's rows and
// B's columns move, the contraction axis does not), and per-row C-hat
// populations are merely relabeled. The bin census is therefore provably
// identical pre/post — the bench measures it anyway and reports the
// delta, so a regression in that invariant is loud.
//
// Columns: bin populations (pairs / dominators / low performers /
// normals / limited rows), fragments the split pass would create,
// |delta| vs the unreordered baseline summed over the four bins, and the
// wall-clock cost of the pre-pass itself (permutation build + row/column
// application for both operands, best of --repeat).
//
// Flags: --scale (default 0.25), --seed, --csv, --threads,
// --repeat (reorder timing repetitions, default 3),
// --json_out=BENCH_reorder_locality.json.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/block_reorganizer.h"
#include "core/reorganizer_config.h"
#include "datasets/generators.h"
#include "metrics/report.h"
#include "sparse/csr_matrix.h"
#include "sparse/reorder.h"
#include "spgemm/exec_context.h"

namespace spnet {
namespace {

/// One synthetic input per generator family, linearly scaled.
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

core::ReorganizerReport AnalyzeWith(const sparse::CsrMatrix& matrix,
                                    sparse::ReorderStrategy strategy,
                                    const gpusim::DeviceSpec& device,
                                    spgemm::ExecContext* ctx) {
  core::ReorganizerConfig config;
  config.reorder = strategy;
  const core::BlockReorganizerSpGemm algorithm(config);
  auto report = algorithm.Analyze(matrix, matrix, device, ctx);
  SPNET_CHECK(report.ok()) << report.status().ToString();
  return *report;
}

/// Wall-clock of the pre-pass alone for an A*A product: both permutation
/// builds plus the row and column applications. Best of `repeat`.
double ReorderCostMs(const sparse::CsrMatrix& matrix,
                     sparse::ReorderStrategy strategy, int64_t repeat) {
  double best = 0.0;
  for (int64_t r = 0; r < repeat; ++r) {
    Timer timer;
    auto rows = sparse::BuildRowPermutation(matrix, strategy);
    SPNET_CHECK(rows.ok()) << rows.status().ToString();
    auto cols = sparse::BuildColPermutation(matrix, strategy);
    SPNET_CHECK(cols.ok()) << cols.status().ToString();
    auto a = rows->ApplyToRows(matrix);
    SPNET_CHECK(a.ok()) << a.status().ToString();
    auto b = cols->ApplyToCols(matrix);
    SPNET_CHECK(b.ok()) << b.status().ToString();
    const double ms = timer.Seconds() * 1e3;
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

int64_t CensusDelta(const core::ReorganizerReport& report,
                    const core::ReorganizerReport& baseline) {
  auto diff = [](int64_t x, int64_t y) { return x > y ? x - y : y - x; };
  return diff(report.dominators, baseline.dominators) +
         diff(report.low_performers, baseline.low_performers) +
         diff(report.normals, baseline.normals) +
         diff(report.limited_rows, baseline.limited_rows);
}

int Run(int argc, char** argv) {
  bench::BenchOptions options = bench::BenchOptions::FromArgs(argc, argv);
  FlagParser flags;
  SPNET_CHECK(flags.Parse(argc, argv).ok());
  const int64_t repeat = std::max<int64_t>(1, flags.GetInt("repeat", 3));

  const std::vector<std::string> families = {"powerlaw", "rmat", "banded",
                                             "block-diagonal"};

  spgemm::ExecContext ctx;
  const gpusim::DeviceSpec device = options.Device();
  metrics::Table table({"family", "reorder", "pairs", "dominators",
                        "low perf", "normals", "limited rows", "fragments",
                        "delta vs none", "reorder ms"});
  bool census_invariant = true;
  for (const std::string& family : families) {
    const sparse::CsrMatrix matrix = MakeFamilyCase(family, options);
    const core::ReorganizerReport baseline =
        AnalyzeWith(matrix, sparse::ReorderStrategy::kNone, device, &ctx);
    for (sparse::ReorderStrategy strategy : sparse::AllReorderStrategies()) {
      const bool is_none = strategy == sparse::ReorderStrategy::kNone;
      const core::ReorganizerReport report =
          is_none ? baseline : AnalyzeWith(matrix, strategy, device, &ctx);
      const int64_t delta = CensusDelta(report, baseline);
      if (delta != 0) census_invariant = false;
      const double reorder_ms =
          is_none ? 0.0 : ReorderCostMs(matrix, strategy, repeat);
      table.AddRow({family, sparse::ReorderStrategyName(strategy),
                    std::to_string(report.nonzero_pairs),
                    std::to_string(report.dominators),
                    std::to_string(report.low_performers),
                    std::to_string(report.normals),
                    std::to_string(report.limited_rows),
                    std::to_string(report.fragments), std::to_string(delta),
                    metrics::FormatDouble(reorder_ms, 3)});
    }
  }

  std::printf("== reorder locality: classifier bin census pre/post ==\n");
  std::fputs(options.csv ? table.ToCsv().c_str() : table.ToString().c_str(),
             stdout);
  std::printf("bin census invariant under reordering: %s\n",
              census_invariant ? "yes (as the theory predicts)"
                               : "NO — invariant violated");

  bench::BenchJson json("reorder_locality",
                        "reorder pre-pass vs classifier bins", options);
  json.AddTable("reorder_locality", table);
  json.AttachContext(&ctx);
  json.WriteIfRequested();
  return 0;
}

}  // namespace
}  // namespace spnet

int main(int argc, char** argv) { return spnet::Run(argc, argv); }
