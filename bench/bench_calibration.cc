// Model-calibration report: evaluates the simulator's execution-model
// parameters against the paper's headline relative results and prints a
// target-vs-measured table. With --sweep, performs a greedy coordinate
// search over the model parameters and reports the best setting found
// (used offline to pick the DeviceSpec defaults; see EXPERIMENTS.md).
//
// Flags: the shared bench flags (bench_util.h; --scale defaults to 0.12
// here, --device to the Titan Xp the paper's targets come from) plus
// --sweep, --rounds=N and --random=N (random restarts before the sweep).

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/block_reorganizer.h"
#include "core/suite.h"
#include "metrics/report.h"
#include "spgemm/algorithm.h"

namespace spnet {
namespace {

// Representative subset: 7 quasi-regular + 5 skewed.
const char* kDatasets[] = {"filter3D",   "harbor",     "QCD",
                           "mario002",   "patents_main", "scircuit",
                           "majorbasis", "youtube",    "as-caida",
                           "loc-gowalla", "slashDot",  "epinions"};

struct Metrics {
  // Geometric means vs row-product (Figure 8 family).
  double outer = 0, cusparse = 0, cusp = 0, bhsparse = 0, mkl = 0, br = 0;
  // Geometric means vs outer-product (Figure 10 family).
  double limiting = 0, splitting = 0, gathering = 0, combined = 0;
};

// Paper targets for the same quantities.
const Metrics kTargets = {0.95, 0.29, 0.22, 0.55, 0.48, 1.43,
                          1.05, 1.05, 1.28, 1.51};

Metrics Evaluate(const std::vector<sparse::CsrMatrix>& mats,
                 const gpusim::DeviceSpec& device) {
  const auto algorithms = core::MakeAllAlgorithms();
  const auto ablation = core::MakeAblationSuite();

  std::map<std::string, std::vector<double>> vs_row;
  std::map<std::string, std::vector<double>> vs_outer;
  for (const auto& a : mats) {
    double row_seconds = 0.0;
    double outer_seconds = 0.0;
    for (const auto& alg : algorithms) {
      auto m = spgemm::Measure(*alg, a, a, device);
      SPNET_CHECK(m.ok()) << m.status().ToString();
      if (alg->name() == "row-product") row_seconds = m->total_seconds;
      if (alg->name() == "outer-product") outer_seconds = m->total_seconds;
      vs_row[alg->name()].push_back(row_seconds / m->total_seconds);
    }
    for (const auto& alg : ablation) {
      auto m = spgemm::Measure(*alg, a, a, device);
      SPNET_CHECK(m.ok()) << m.status().ToString();
      vs_outer[alg->name()].push_back(outer_seconds / m->total_seconds);
    }
  }
  Metrics out;
  out.outer = metrics::GeometricMean(vs_row["outer-product"]);
  out.cusparse = metrics::GeometricMean(vs_row["cuSPARSE"]);
  out.cusp = metrics::GeometricMean(vs_row["CUSP"]);
  out.bhsparse = metrics::GeometricMean(vs_row["bhSPARSE"]);
  out.mkl = metrics::GeometricMean(vs_row["MKL"]);
  out.br = metrics::GeometricMean(vs_row["Block-Reorganizer"]);
  out.limiting = metrics::GeometricMean(vs_outer["B-Limiting"]);
  out.splitting = metrics::GeometricMean(vs_outer["B-Splitting"]);
  out.gathering = metrics::GeometricMean(vs_outer["B-Gathering"]);
  out.combined = metrics::GeometricMean(vs_outer["Block-Reorganizer"]);
  return out;
}

double LogErr(double x, double target) {
  if (x <= 0) return 10.0;
  const double e = std::log(x / target);
  return e * e;
}

double Loss(const Metrics& m) {
  // The headline (Block Reorganizer) and the technique decomposition are
  // weighted above the library surrogates.
  return 3.0 * LogErr(m.br, kTargets.br) + 2.0 * LogErr(m.outer, kTargets.outer) +
         LogErr(m.cusparse, kTargets.cusparse) + LogErr(m.cusp, kTargets.cusp) +
         LogErr(m.bhsparse, kTargets.bhsparse) + LogErr(m.mkl, kTargets.mkl) +
         2.0 * LogErr(m.limiting, kTargets.limiting) +
         2.0 * LogErr(m.splitting, kTargets.splitting) +
         2.0 * LogErr(m.gathering, kTargets.gathering) +
         2.0 * LogErr(m.combined, kTargets.combined);
}

metrics::Table MetricsTable(const Metrics& m) {
  metrics::Table t({"metric", "paper", "model"});
  auto row = [&](const char* name, double target, double v) {
    t.AddRow({name, metrics::FormatDouble(target), metrics::FormatDouble(v)});
  };
  row("outer-product / row-product", kTargets.outer, m.outer);
  row("cuSPARSE / row-product", kTargets.cusparse, m.cusparse);
  row("CUSP / row-product", kTargets.cusp, m.cusp);
  row("bhSPARSE / row-product", kTargets.bhsparse, m.bhsparse);
  row("MKL / row-product", kTargets.mkl, m.mkl);
  row("Block-Reorganizer / row-product", kTargets.br, m.br);
  row("B-Limiting / outer", kTargets.limiting, m.limiting);
  row("B-Splitting / outer", kTargets.splitting, m.splitting);
  row("B-Gathering / outer", kTargets.gathering, m.gathering);
  row("combined / outer", kTargets.combined, m.combined);
  return t;
}

void Print(const Metrics& m, bool csv) {
  const metrics::Table table = MetricsTable(m);
  std::fputs(csv ? table.ToCsv().c_str() : table.ToString().c_str(), stdout);
}

struct Knob {
  const char* name;
  double gpusim::DeviceSpec::* field;
  std::vector<double> values;
};

int Run(int argc, char** argv) {
  const bench::BenchOptions options = bench::BenchOptions::FromArgs(
      argc, argv,
      {.default_scale = 0.12,
       .integers = {"rounds", "random"},
       .others = {"sweep"}});
  const double scale = options.scale;
  const uint64_t seed = options.seed;
  const bool sweep = options.flags.GetBool("sweep", false);
  const int rounds = static_cast<int>(options.flags.GetInt("rounds", 2));

  std::vector<sparse::CsrMatrix> mats;
  for (const char* name : kDatasets) {
    mats.push_back(bench::LoadDataset(name, options));
  }

  bench::BenchJson json("calibration", "calibration report", options);

  gpusim::DeviceSpec device = options.Device();
  Metrics current = Evaluate(mats, device);
  std::printf("== Calibration report (%s model, scale %.2f) ==\n",
              device.name.c_str(), scale);
  Print(current, options.csv);
  std::printf("loss = %.4f\n", Loss(current));
  json.AddTable("paper_vs_model", MetricsTable(current));
  if (!sweep) {
    json.WriteIfRequested();
    return 0;
  }

  std::vector<Knob> knobs = {
      {"block_dispatch_cycles", &gpusim::DeviceSpec::block_dispatch_cycles,
       {2, 4, 8, 12, 20}},
      {"store_backpressure_cycles",
       &gpusim::DeviceSpec::store_backpressure_cycles,
       {50, 100, 200, 300, 500}},
      {"atomic_cycles", &gpusim::DeviceSpec::atomic_cycles, {10, 25, 40, 60}},
      {"block_inflight_bytes", &gpusim::DeviceSpec::block_inflight_bytes,
       {49152, 98304, 196608, 393216}},
      {"cpi", &gpusim::DeviceSpec::cpi, {12, 18, 24, 36, 48}},
      {"block_startup_cycles", &gpusim::DeviceSpec::block_startup_cycles,
       {100, 200, 300, 600, 1000}},
      {"max_latency_hiding", &gpusim::DeviceSpec::max_latency_hiding,
       {4, 8, 16}},
      {"max_atomic_contention", &gpusim::DeviceSpec::max_atomic_contention,
       {8, 16, 32}},
      {"latency_hiding_base", &gpusim::DeviceSpec::latency_hiding_base,
       {0, 2, 4, 8}},
      {"latency_hiding_per_warp", &gpusim::DeviceSpec::latency_hiding_per_warp,
       {0.5, 1, 2, 4}},
      {"store_transaction_bytes", &gpusim::DeviceSpec::store_transaction_bytes,
       {16, 32, 64, 128}},
      {"lsu_bw_bytes_per_sm", &gpusim::DeviceSpec::lsu_bw_bytes_per_sm,
       {32, 64, 128, 256}},
  };

  // Random restarts explore the landscape before the greedy refinement.
  const int random_probes =
      static_cast<int>(options.flags.GetInt("random", 0));
  double best_loss = Loss(current);
  if (random_probes > 0) {
    Rng rng(seed);
    gpusim::DeviceSpec best_device = device;
    for (int probe = 0; probe < random_probes; ++probe) {
      gpusim::DeviceSpec candidate = device;
      for (const Knob& knob : knobs) {
        candidate.*(knob.field) =
            knob.values[rng.NextBounded(knob.values.size())];
      }
      const double loss = Loss(Evaluate(mats, candidate));
      if (loss < best_loss) {
        best_loss = loss;
        best_device = candidate;
        std::printf("probe %d: loss %.4f\n", probe, loss);
        std::fflush(stdout);
      }
    }
    device = best_device;
  }

  for (int round = 0; round < rounds; ++round) {
    for (const Knob& knob : knobs) {
      const double original = device.*(knob.field);
      double best_value = original;
      for (double v : knob.values) {
        device.*(knob.field) = v;
        const double loss = Loss(Evaluate(mats, device));
        if (loss < best_loss) {
          best_loss = loss;
          best_value = v;
        }
      }
      device.*(knob.field) = best_value;
      std::printf("round %d: %s = %g (loss %.4f)\n", round, knob.name,
                  device.*(knob.field), best_loss);
      std::fflush(stdout);
    }
  }
  std::printf("\n== Best parameters ==\n");
  for (const Knob& knob : knobs) {
    std::printf("%s = %g\n", knob.name, device.*(knob.field));
  }
  const Metrics tuned = Evaluate(mats, device);
  Print(tuned, options.csv);
  json.AddTable("paper_vs_model_tuned", MetricsTable(tuned));
  json.WriteIfRequested();
  return 0;
}

}  // namespace
}  // namespace spnet

int main(int argc, char** argv) { return spnet::Run(argc, argv); }
