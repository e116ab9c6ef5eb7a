#ifndef SPNET_BENCH_BENCH_UTIL_H_
#define SPNET_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "datasets/cache.h"
#include "datasets/registry.h"
#include "gpusim/device_spec.h"
#include "metrics/json_writer.h"
#include "metrics/report.h"
#include "sparse/csr_matrix.h"
#include "spgemm/exec_context.h"

namespace spnet {
namespace bench {

/// The flags one bench reads beyond the shared set, the shared flags it
/// does not read, and its default --scale.
struct BenchFlags {
  double default_scale = 0.25;
  /// Whether the bench reads the shared --device and --cache. A bench that
  /// simulates one fixed set of devices, or generates its inputs without
  /// the Table II cache, refuses the flag like an unknown one.
  bool reads_device = true;
  bool reads_cache = true;
  std::set<std::string> integers = {};
  /// Switches and strings.
  std::set<std::string> others = {};
};

/// Flags shared by the experiment binaries (BenchFlags says whether one
/// reads --device and --cache).
///
///   --scale=<f>    linear dataset scale, 1.0 = paper dimensions
///                  (default 0.25 keeps the full suite minutes-fast on one
///                  core; EXPERIMENTS.md records both scales)
///   --device=<s>   titanxp | v100 | 2080ti
///   --seed=<n>     generator seed
///   --cache=<dir>  keep generated Table II datasets there as .spnb files
///   --csv          emit CSV instead of aligned tables
///   --threads=<n>  host threads for the functional expansion/merge stack
///                  (default: hardware concurrency; 1 = historical serial
///                  path; affects host wall-clock only, never simulated
///                  cycles or results)
///   --json_out=<p> also write the run's tables (plus any ExecContext
///                  metrics/trace) as a machine-readable BENCH_*.json
struct BenchOptions {
  double scale = 0.25;
  uint64_t seed = 42;
  std::string device_name = "titanxp";
  bool csv = false;
  /// Host thread count for the functional stack; 0 = hardware concurrency.
  int threads = 0;
  /// When set (--cache=<dir>), generated datasets are cached on disk as
  /// binary .spnb files and reloaded on later runs.
  std::string cache_dir;
  /// When set (--json_out=<path>), BenchJson::WriteIfRequested writes the
  /// machine-readable result file there.
  std::string json_out;
  /// Every parsed flag, for the bench's own (BenchFlags) flags.
  FlagParser flags;

  /// Parses the shared flags `own` reads plus its own. Any other flag, a
  /// numeric flag whose value is not wholly a number and an unknown
  /// --device are refused: the bench prints the reason and exits 2 before
  /// any work.
  static BenchOptions FromArgs(int argc, const char* const* argv,
                               const BenchFlags& own = {}) {
    const std::filesystem::path program =
        std::filesystem::path(argc > 0 ? argv[0] : "bench").filename();
    auto refuse = [&program](const std::string& reason) {
      std::fprintf(stderr, "%s: %s\n", program.string().c_str(),
                   reason.c_str());
      std::exit(2);
    };
    std::set<std::string> integers = {"seed", "threads"};
    integers.insert(own.integers.begin(), own.integers.end());
    std::set<std::string> known = {"csv", "json_out"};
    if (own.reads_device) known.insert("device");
    if (own.reads_cache) known.insert("cache");
    known.insert(own.others.begin(), own.others.end());
    known.insert(integers.begin(), integers.end());
    known.insert("scale");
    const std::string unknown = FirstUnknownFlag(argc, argv, known);
    if (!unknown.empty()) refuse("unknown flag " + unknown);

    BenchOptions o;
    const Status parsed = o.flags.Parse(argc, argv);
    if (!parsed.ok()) refuse(parsed.message());
    const std::string malformed =
        FirstMalformedNumber(o.flags, integers, {"scale"});
    if (!malformed.empty()) refuse("malformed number " + malformed);
    o.device_name = o.flags.GetString("device", o.device_name);
    const Status device = gpusim::DeviceSpec::FromName(o.device_name).status();
    if (!device.ok()) refuse(device.message());
    o.scale = o.flags.GetDouble("scale", own.default_scale);
    o.seed = static_cast<uint64_t>(o.flags.GetInt("seed", 42));
    o.csv = o.flags.GetBool("csv", false);
    o.threads = static_cast<int>(o.flags.GetInt("threads", 0));
    o.cache_dir = o.flags.GetString("cache", "");
    o.json_out = o.flags.GetString("json_out", "");
    SetGlobalThreadCount(o.threads);
    return o;
  }

  /// The --device preset (FromArgs has refused any other name).
  gpusim::DeviceSpec Device() const {
    return gpusim::DeviceSpec::FromName(device_name).value();
  }
};

/// Materializes one Table II dataset or dies (benches treat generator
/// failure as fatal).
inline sparse::CsrMatrix LoadDataset(const std::string& name,
                                     const BenchOptions& options) {
  auto spec = datasets::FindDataset(name);
  SPNET_CHECK(spec.ok()) << spec.status().ToString();
  auto m = datasets::MaterializeCached(*spec, options.scale,
                                       options.cache_dir, options.seed);
  SPNET_CHECK(m.ok()) << m.status().ToString();
  return std::move(m).value();
}

/// All 28 Table II names in paper order.
inline std::vector<std::string> AllDatasetNames() {
  std::vector<std::string> names;
  for (const auto& spec : datasets::TableTwoDatasets()) {
    names.push_back(spec.name);
  }
  return names;
}

/// Parses a cell like "1.43" or "1431" into a double. Cells such as
/// "2.7M", "n/a" or dataset names stay strings in the JSON output.
inline bool ParseNumericCell(const std::string& cell, double* value) {
  if (cell.empty()) return false;
  char* end = nullptr;
  const double parsed = std::strtod(cell.c_str(), &end);
  if (end != cell.c_str() + cell.size()) return false;
  if (!(parsed == parsed) || parsed > 1e300 || parsed < -1e300) return false;
  *value = parsed;
  return true;
}

/// Machine-readable bench output (the --json_out flag). A bench registers
/// the same metrics::Table objects it prints, optionally attaches the
/// ExecContext used for measurement, and calls WriteIfRequested() last.
///
/// Schema (stable; see EXPERIMENTS.md):
///   { "schema_version": 1, "bench": ..., "figure": ..., "device": ...,
///     "scale": ..., "seed": ..., "threads": ...,
///     "tables": [{"name", "columns", "rows"}...],
///     "metrics": {...} | null, "trace": [...] | null }
/// Numeric-looking cells are emitted as JSON numbers, everything else as
/// strings.
class BenchJson {
 public:
  /// `bench` is the binary's short name (e.g. "fig10_techniques"),
  /// `figure` the paper artifact it reproduces (e.g. "Figure 10").
  BenchJson(std::string bench, std::string figure, const BenchOptions& options)
      : bench_(std::move(bench)),
        figure_(std::move(figure)),
        options_(options) {}

  void AddTable(const std::string& name, const metrics::Table& table) {
    tables_.emplace_back(name, table);
  }

  /// Serializes the context's registry + trace into the result file.
  /// The pointer must outlive WriteIfRequested(); pass the measurement
  /// context after the runs finish.
  void AttachContext(const spgemm::ExecContext* ctx) { ctx_ = ctx; }

  std::string ToJson() const {
    metrics::JsonWriter w;
    w.BeginObject();
    w.Key("schema_version").Int(1);
    w.Key("bench").String(bench_);
    w.Key("figure").String(figure_);
    w.Key("device").String(options_.device_name);
    w.Key("scale").Double(options_.scale);
    w.Key("seed").Int(static_cast<int64_t>(options_.seed));
    w.Key("threads").Int(options_.threads);
    w.Key("tables").BeginArray();
    for (const auto& [name, table] : tables_) {
      w.BeginObject();
      w.Key("name").String(name);
      w.Key("columns").BeginArray();
      for (const std::string& column : table.header()) w.String(column);
      w.EndArray();
      w.Key("rows").BeginArray();
      for (const auto& row : table.rows()) {
        w.BeginArray();
        for (const std::string& cell : row) {
          double value = 0.0;
          if (ParseNumericCell(cell, &value)) {
            w.Double(value);
          } else {
            w.String(cell);
          }
        }
        w.EndArray();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.Key("metrics");
    if (ctx_ != nullptr) {
      ctx_->registry.AppendJson(&w);
    } else {
      w.Null();
    }
    w.Key("trace");
    if (ctx_ != nullptr) {
      ctx_->trace.AppendJson(&w);
    } else {
      w.Null();
    }
    w.EndObject();
    return w.str();
  }

  /// No-op without --json_out; otherwise writes the result file and logs
  /// the destination. Write failures are fatal: a bench asked for a result
  /// file that cannot exist has failed.
  void WriteIfRequested() const {
    if (options_.json_out.empty()) return;
    const Status s = metrics::WriteTextFile(options_.json_out, ToJson());
    SPNET_CHECK(s.ok()) << s.ToString();
    std::fprintf(stderr, "wrote %s\n", options_.json_out.c_str());
  }

 private:
  std::string bench_;
  std::string figure_;
  BenchOptions options_;
  std::vector<std::pair<std::string, metrics::Table>> tables_;
  const spgemm::ExecContext* ctx_ = nullptr;
};

}  // namespace bench
}  // namespace spnet

#endif  // SPNET_BENCH_BENCH_UTIL_H_
