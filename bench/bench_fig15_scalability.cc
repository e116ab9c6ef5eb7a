// Reproduces Figure 15 (and prints Table I): mean speedup of every method
// over the row-product baseline on the three simulated devices — Titan Xp,
// Tesla V100 and RTX 2080 Ti — across the 28 real-world datasets.
//
// Flags: --scale (default 0.25), --seed, --csv.

#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "core/suite.h"
#include "metrics/report.h"
#include "spgemm/algorithm.h"

namespace spnet {
namespace {

int Run(int argc, char** argv) {
  const bench::BenchOptions options =
      bench::BenchOptions::FromArgs(argc, argv, {.reads_device = false});
  const gpusim::DeviceSpec devices[] = {gpusim::DeviceSpec::TitanXp(),
                                        gpusim::DeviceSpec::TeslaV100(),
                                        gpusim::DeviceSpec::Rtx2080Ti()};

  // Table I context.
  metrics::Table spec_table({"GPU", "SMs", "clock MHz", "L2 MB",
                             "DRAM GB/s"});
  for (const auto& d : devices) {
    spec_table.AddRow(
        {d.name, std::to_string(d.num_sms),
         metrics::FormatDouble(d.clock_ghz * 1e3, 0),
         metrics::FormatDouble(static_cast<double>(d.l2_size) / 1048576.0, 1),
         metrics::FormatDouble(
             d.dram_bw_bytes_per_cycle * d.clock_ghz, 0)});
  }
  std::printf("== Table I: simulated device configurations ==\n");
  std::fputs(spec_table.ToString().c_str(), stdout);

  const auto algorithms = core::MakeAllAlgorithms();
  std::vector<std::string> header = {"device"};
  for (const auto& alg : algorithms) header.push_back(alg->name());
  metrics::Table table(header);

  for (const auto& device : devices) {
    std::map<std::string, std::vector<double>> speedups;
    for (const std::string& name : bench::AllDatasetNames()) {
      const sparse::CsrMatrix a = bench::LoadDataset(name, options);
      double row_seconds = 0.0;
      for (const auto& alg : algorithms) {
        auto m = spgemm::Measure(*alg, a, a, device);
        SPNET_CHECK(m.ok()) << alg->name();
        if (alg->name() == "row-product") row_seconds = m->total_seconds;
        speedups[alg->name()].push_back(row_seconds / m->total_seconds);
      }
    }
    std::vector<std::string> row = {device.name};
    for (const auto& alg : algorithms) {
      row.push_back(metrics::FormatDouble(
          metrics::GeometricMean(speedups[alg->name()])));
    }
    table.AddRow(std::move(row));
  }

  std::printf("\n== Figure 15: mean speedup over row-product per device "
              "(scale %.2f) ==\n",
              options.scale);
  std::fputs(options.csv ? table.ToCsv().c_str() : table.ToString().c_str(),
             stdout);
  std::printf("\nPaper reference: Block Reorganizer 1.43x (Titan Xp), "
              "1.66x (V100), 1.40x (2080 Ti); the outer-product baseline "
              "stays near the row-product level on every device.\n");

  bench::BenchJson json("fig15_scalability", "Figure 15", options);
  json.AddTable("device_specs", spec_table);
  json.AddTable("mean_speedup_per_device", table);
  json.WriteIfRequested();
  return 0;
}

}  // namespace
}  // namespace spnet

int main(int argc, char** argv) { return spnet::Run(argc, argv); }
