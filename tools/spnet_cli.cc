// Command-line front end for the library: multiply Matrix Market or SPNB
// files with any registered algorithm (8 baselines plus the reorganizer
// and its ablation variants), profile them on a simulated
// device, classify workloads, and convert between formats.
//
// Usage:
//   spnet_cli multiply --a A.mtx [--b B.mtx] [--algorithm reorganizer]
//             [--out C.mtx] [--device titanxp] [--auto_tune]
//             [--alpha A] [--beta B]
//   spnet_cli profile  --a A.mtx [--b B.mtx] [--device titanxp] [--detail]
//   spnet_cli classify --a A.mtx [--b B.mtx] [--device titanxp]
//   spnet_cli convert  --in X.mtx --out X.spnb     (and back)
//   spnet_cli generate --kind rmat|powerlaw|regular --out X.spnb
//             [--scale 14] [--edges N] [--dim N] [--nnz N] [--skew S]
//             [--seed 42]
//   spnet_cli batch    --manifest queries.txt [--plan_cache 64]
//             [--deadline_ms D] [--fallback outer-product] [--repeats N]
//             [--scale 0.05] [--seed 42] [--cache dir] [--device titanxp]
//             [--alpha A] [--beta B]
//   spnet_cli verify   [--sweep small|medium] [--seed 42]
//
// verify runs the correctness harness: a differential sweep of every
// registered algorithm against the reference spGEMM over seeded input
// families, the Block Reorganizer plan-invariant validators on every
// ablation variant, and one deterministic fault-injection run showing the
// batch engine degrading to its fallback with a per-query error. Exits
// nonzero on any failure, printing the first divergence as
// (row, col, expected, got) with the offending seed.
//
// Omitting --b computes C = A^2. Files ending in .spnb use the binary
// container; anything else is treated as Matrix Market. Every command
// accepts --threads=<n> to size the host thread pool (default: hardware
// concurrency). A flag the command does not read is refused with
// "unknown flag --name", and a numeric flag whose value is not wholly a
// number (`--dim 5O`) with "malformed number --dim=5O", and a --device
// other than titanxp, v100 or 2080ti with "unknown device", all exit 2
// before any work. Algorithm names come from spgemm::AlgorithmRegistry;
// pass a bogus --algorithm to have the error list them.
//
// batch executes a manifest of queries (one "<dataset-or-path> [algorithm]
// [repeat]" per line, '#' comments) concurrently through the
// engine::BatchRunner: plans are reused across queries with the same
// matrix structure via an LRU plan cache (--plan_cache entries, 0
// disables), per-query deadlines expire individually, and a query whose
// algorithm cannot plan degrades to the --fallback baseline instead of
// failing the batch. --repeats re-runs the whole batch; warm passes are
// where the plan cache pays off.
//
// Observability (multiply / profile / classify / batch):
//   --metrics_out=<path>  write the execution's metrics registry + trace
//                         spans as JSON
//   --trace               print the span tree (load -> classify -> split
//                         -> gather -> expand -> merge -> simulate) after
//                         the command

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/auto_tune.h"
#include "core/block_reorganizer.h"
#include "core/suite.h"
#include "datasets/generators.h"
#include "engine/batch_runner.h"
#include "engine/manifest.h"
#include "gpusim/device_spec.h"
#include "gpusim/profiler.h"
#include "metrics/report.h"
#include "sparse/matrix_market.h"
#include "sparse/serialization.h"
#include "sparse/stats.h"
#include "spgemm/algorithm.h"
#include "spgemm/algorithm_registry.h"
#include "spgemm/exec_context.h"
#include "verify/differential.h"
#include "verify/fault_injection.h"
#include "verify/invariants.h"

namespace spnet {
namespace {

using sparse::CsrMatrix;

bool IsBinaryPath(const std::string& path) {
  return path.size() > 5 && path.substr(path.size() - 5) == ".spnb";
}

Result<CsrMatrix> Load(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("missing input path");
  }
  return IsBinaryPath(path) ? sparse::ReadBinary(path)
                            : sparse::ReadMatrixMarket(path);
}

Status Store(const CsrMatrix& m, const std::string& path) {
  return IsBinaryPath(path) ? sparse::WriteBinary(m, path)
                            : sparse::WriteMatrixMarket(m, path);
}

Result<std::unique_ptr<spgemm::SpGemmAlgorithm>> AlgorithmFromFlags(
    const FlagParser& flags, const CsrMatrix& a, const CsrMatrix& b,
    const gpusim::DeviceSpec& device) {
  core::RegisterCoreAlgorithms();
  const std::string name = flags.GetString("algorithm", "reorganizer");
  // The reorganizer's knobs are flag-configurable; any other name (and
  // the default knobs) resolves through the registry. An invalid config
  // surfaces as MakeBlockReorganizer's Status instead of silently running
  // with nonsense thresholds.
  if (name == "reorganizer" &&
      (flags.GetBool("auto_tune", false) || flags.Has("alpha") ||
       flags.Has("beta"))) {
    core::ReorganizerConfig config;
    if (flags.GetBool("auto_tune", false)) {
      SPNET_ASSIGN_OR_RETURN(config, core::AutoTune(a, b, device));
      std::printf("auto-tuned: alpha=%.1f beta=%.1f\n", config.alpha,
                  config.beta);
    }
    config.alpha = flags.GetDouble("alpha", config.alpha);
    config.beta = flags.GetDouble("beta", config.beta);
    return core::MakeBlockReorganizer(config);
  }
  return spgemm::AlgorithmRegistry::Global().Create(name);
}

/// Shared tail of the observability-aware commands: honors --metrics_out
/// (JSON dump of the context) and --trace (pretty span tree on stdout).
/// Returns non-OK only when the JSON file cannot be written.
Status EmitObservability(const FlagParser& flags,
                         const spgemm::ExecContext& ctx) {
  if (flags.GetBool("trace", false)) {
    std::printf("trace:\n%s", ctx.trace.ToPrettyString().c_str());
  }
  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty()) {
    SPNET_RETURN_IF_ERROR(ctx.WriteJsonFile(metrics_out));
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return Status::Ok();
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdMultiply(const FlagParser& flags, const gpusim::DeviceSpec& device) {
  spgemm::ExecContext ctx;
  const int load_span = ctx.trace.Begin("load");
  auto a = Load(flags.GetString("a", ""));
  if (!a.ok()) return Fail(a.status());
  Result<CsrMatrix> b = flags.Has("b") ? Load(flags.GetString("b", ""))
                                       : Result<CsrMatrix>(*a);
  if (!b.ok()) return Fail(b.status());
  ctx.trace.End(load_span);
  auto algorithm = AlgorithmFromFlags(flags, *a, *b, device);
  if (!algorithm.ok()) return Fail(algorithm.status());

  Timer timer;
  auto c = (*algorithm)->Compute(*a, *b, &ctx);
  if (!c.ok()) return Fail(c.status());
  std::printf("C: %d x %d, %lld nonzeros (host compute %.3f s)\n", c->rows(),
              c->cols(), static_cast<long long>(c->nnz()), timer.Seconds());

  auto m = spgemm::Measure(**algorithm, *a, *b, device, &ctx);
  if (!m.ok()) return Fail(m.status());
  std::printf("simulated %s: %.3f ms (%.1f GFLOPS)\n", device.name.c_str(),
              m->total_seconds * 1e3, m->Gflops());

  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    const Status s = Store(*c, out);
    if (!s.ok()) return Fail(s);
    std::printf("wrote %s\n", out.c_str());
  }
  const Status obs = EmitObservability(flags, ctx);
  if (!obs.ok()) return Fail(obs);
  return 0;
}

int CmdProfile(const FlagParser& flags, const gpusim::DeviceSpec& device) {
  spgemm::ExecContext ctx;
  const int load_span = ctx.trace.Begin("load");
  auto a = Load(flags.GetString("a", ""));
  if (!a.ok()) return Fail(a.status());
  Result<CsrMatrix> b = flags.Has("b") ? Load(flags.GetString("b", ""))
                                       : Result<CsrMatrix>(*a);
  if (!b.ok()) return Fail(b.status());
  ctx.trace.End(load_span);

  metrics::Table table({"algorithm", "total ms", "expansion ms", "merge ms",
                        "GFLOPS", "stall %", "LBI"});
  for (const auto& alg : core::MakeAllAlgorithms()) {
    auto m = spgemm::Measure(*alg, *a, *b, device, &ctx);
    if (!m.ok()) return Fail(m.status());
    table.AddRow({alg->name(), metrics::FormatDouble(m->total_seconds * 1e3, 3),
                  metrics::FormatDouble(m->expansion.seconds * 1e3, 3),
                  metrics::FormatDouble(m->merge.seconds * 1e3, 3),
                  metrics::FormatDouble(m->Gflops(), 1),
                  metrics::FormatDouble(100.0 * m->stats.SyncStallFraction(), 1),
                  metrics::FormatDouble(m->expansion.Lbi())});
  }
  std::printf("profile on simulated %s:\n%s", device.name.c_str(),
              table.ToString().c_str());

  if (flags.GetBool("detail", false)) {
    // nvprof-style per-kernel report + SM histogram for the reorganizer.
    core::BlockReorganizerSpGemm reorganizer;
    auto plan = reorganizer.Plan(*a, *b, device, &ctx);
    if (!plan.ok()) return Fail(plan.status());
    gpusim::Profiler profiler(device);
    const Status s = profiler.Profile(plan->kernels);
    if (!s.ok()) return Fail(s);
    profiler.ExportMetrics(&ctx.registry);
    std::printf("\nBlock Reorganizer kernel breakdown:\n%s",
                profiler.ReportTable().c_str());
    for (size_t i = 0; i < profiler.profiles().size(); ++i) {
      if (profiler.profiles()[i].label == "expansion-dominators") {
        std::printf("\nper-SM load of %s (busiest first):\n%s",
                    profiler.profiles()[i].label.c_str(),
                    profiler.SmHistogram(i).c_str());
      }
    }
  }
  const Status obs = EmitObservability(flags, ctx);
  if (!obs.ok()) return Fail(obs);
  return 0;
}

int CmdClassify(const FlagParser& flags, const gpusim::DeviceSpec& device) {
  auto a = Load(flags.GetString("a", ""));
  if (!a.ok()) return Fail(a.status());
  Result<CsrMatrix> b = flags.Has("b") ? Load(flags.GetString("b", ""))
                                       : Result<CsrMatrix>(*a);
  if (!b.ok()) return Fail(b.status());

  const auto stats = sparse::ComputeRowStats(*a);
  std::printf("A: %d x %d, %lld nnz, mean degree %.1f, max %lld, gini %.2f\n",
              a->rows(), a->cols(), static_cast<long long>(a->nnz()),
              stats.mean_nnz, static_cast<long long>(stats.max_nnz),
              stats.gini);

  spgemm::ExecContext ctx;
  core::BlockReorganizerSpGemm reorganizer;
  auto report = reorganizer.Analyze(*a, *b, device, &ctx);
  if (!report.ok()) return Fail(report.status());
  std::printf("pairs: %lld total | %lld dominators | %lld low performers | "
              "%lld normal\n",
              static_cast<long long>(report->nonzero_pairs),
              static_cast<long long>(report->dominators),
              static_cast<long long>(report->low_performers),
              static_cast<long long>(report->normals));
  std::printf("B-Splitting fragments: %lld, B-Gathering combined blocks: "
              "%lld, B-Limiting rows: %lld\n",
              static_cast<long long>(report->fragments),
              static_cast<long long>(report->combined_blocks),
              static_cast<long long>(report->limited_rows));
  const Status obs = EmitObservability(flags, ctx);
  if (!obs.ok()) return Fail(obs);
  return 0;
}

int CmdBatch(const FlagParser& flags, const gpusim::DeviceSpec& device) {
  const std::string manifest = flags.GetString("manifest", "");
  if (manifest.empty()) {
    return Fail(Status::InvalidArgument("missing --manifest"));
  }
  spgemm::ExecContext ctx;

  engine::ManifestLoadOptions load;
  load.scale = flags.GetDouble("scale", load.scale);
  load.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  load.dataset_cache_dir = flags.GetString("cache", "");
  load.deadline_ms = flags.GetDouble("deadline_ms", 0.0);
  const int load_span = ctx.trace.Begin("load");
  auto requests = engine::LoadManifestRequests(manifest, load);
  ctx.trace.End(load_span);
  if (!requests.ok()) return Fail(requests.status());
  if (requests->empty()) {
    return Fail(Status::InvalidArgument(manifest + " contains no queries"));
  }

  engine::BatchOptions options;
  options.plan_cache_capacity = static_cast<size_t>(
      std::max<int64_t>(0, flags.GetInt("plan_cache", 64)));
  options.fallback_algorithm =
      flags.GetString("fallback", options.fallback_algorithm);
  options.device = device;
  options.reorganizer_config.alpha =
      flags.GetDouble("alpha", options.reorganizer_config.alpha);
  options.reorganizer_config.beta =
      flags.GetDouble("beta", options.reorganizer_config.beta);
  engine::BatchRunner runner(std::move(options));

  const int64_t repeats = std::max<int64_t>(1, flags.GetInt("repeats", 1));
  engine::ExecutionReport report;
  for (int64_t pass = 0; pass < repeats; ++pass) {
    auto r = runner.Execute(*requests, &ctx);
    if (!r.ok()) return Fail(r.status());
    report = std::move(r).value();
    std::printf(
        "pass %lld/%lld: %zu queries in %.1f ms | ok %lld, failed %lld, "
        "expired %lld, fallbacks %lld | plan cache: %lld hit, %lld miss, "
        "%lld evicted\n",
        static_cast<long long>(pass + 1), static_cast<long long>(repeats),
        requests->size(), report.wall_ms,
        static_cast<long long>(report.succeeded),
        static_cast<long long>(report.failed),
        static_cast<long long>(report.deadline_expired),
        static_cast<long long>(report.fallbacks),
        static_cast<long long>(report.plan_cache_hits),
        static_cast<long long>(report.plan_cache_misses),
        static_cast<long long>(report.plan_cache_evictions));
  }

  metrics::Table table(
      {"query", "algorithm", "status", "plan", "sim ms", "GFLOPS", "wall ms"});
  for (const engine::Response& r : report.responses) {
    table.AddRow({r.id,
                  r.algorithm_used.empty() ? "-" : r.algorithm_used,
                  r.status.ok() ? "ok" : StatusCodeName(r.status.code()),
                  r.plan_cache_hit ? "cached" : "planned",
                  metrics::FormatDouble(r.sim_ms, 3),
                  metrics::FormatDouble(r.gflops, 1),
                  metrics::FormatDouble(r.wall_ms, 3)});
  }
  std::printf("last pass results:\n%s", table.ToString().c_str());
  for (const engine::Response& r : report.responses) {
    if (!r.status.ok()) {
      std::printf("  %s: %s\n", r.id.c_str(), r.status.ToString().c_str());
    }
  }
  const Status obs = EmitObservability(flags, ctx);
  if (!obs.ok()) return Fail(obs);
  return 0;
}

int CmdVerify(const FlagParser& flags) {
  const std::string sweep = flags.GetString("sweep", "small");
  verify::DifferentialOptions options;
  if (sweep == "small") {
    options.cases_per_family = 2;
  } else if (sweep == "medium") {
    options.cases_per_family = 4;
  } else {
    return Fail(Status::InvalidArgument(
        "--sweep must be small or medium, got " + sweep));
  }
  options.base_seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  bool failed = false;

  // 1. Differential sweep: every registered algorithm vs the reference.
  auto report = verify::RunDifferentialSweep(options);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s\n", report->Summary().c_str());
  failed = failed || !report->ok();

  // 2. Plan invariants on every ablation variant of the reorganizer.
  struct Variant {
    const char* name;
    bool split;
    bool gather;
    bool limit;
  };
  const Variant variants[] = {
      {"reorganizer", true, true, true},
      {"reorganizer-splitting", true, false, false},
      {"reorganizer-gathering", false, true, false},
      {"reorganizer-limiting", false, false, true},
      {"reorganizer-none", false, false, false},
  };
  for (const Variant& v : variants) {
    core::ReorganizerConfig config;
    config.enable_splitting = v.split;
    config.enable_gathering = v.gather;
    config.enable_limiting = v.limit;
    Status worst = Status::Ok();
    for (const std::string& family : verify::SweepFamilyNames()) {
      for (int k = 0; k < options.cases_per_family; ++k) {
        const uint64_t seed = options.base_seed + static_cast<uint64_t>(k);
        auto c = verify::MakeSweepCase(family, seed);
        if (!c.ok()) return Fail(c.status());
        const Status s = verify::VerifyReorganizerInvariants(c->a, c->b,
                                                             config);
        if (!s.ok()) {
          worst = Status(s.code(), family + " (seed " + std::to_string(seed) +
                                       "): " + s.message());
          break;
        }
      }
      if (!worst.ok()) break;
    }
    std::printf("invariants %-24s %s\n", v.name,
                worst.ok() ? "ok" : worst.ToString().c_str());
    failed = failed || !worst.ok();
  }

  // 3. Deterministic fault injection: every Plan call fails, so the batch
  // engine must degrade the query to its fallback and surface the injected
  // error per query while the batch itself stays OK.
  {
    verify::FaultInjector& injector = verify::FaultInjector::Global();
    injector.Reset();
    injector.Arm(verify::kSitePlan, /*first=*/1, /*count=*/0);
    auto c = verify::MakeSweepCase("banded", options.base_seed);
    if (!c.ok()) {
      injector.Reset();
      return Fail(c.status());
    }
    engine::BatchRunner runner(engine::BatchOptions{});
    auto request = engine::RequestBuilder()
                       .Id("fault-demo")
                       .Algorithm("reorganizer")
                       .OperandA(std::make_shared<const CsrMatrix>(
                           std::move(c->a)))
                       .Build();
    if (!request.ok()) {
      injector.Reset();
      return Fail(request.status());
    }
    auto run = runner.Execute({*request});
    injector.Reset();
    if (!run.ok()) return Fail(run.status());
    const engine::Response& r = run->responses[0];
    const bool demo_ok = !r.status.ok() && r.fallback_used;
    std::printf("fault injection (%s armed): fallback_used=%s, status=%s\n",
                verify::kSitePlan, r.fallback_used ? "true" : "false",
                r.status.ToString().c_str());
    if (!demo_ok) {
      std::printf("fault-injection demo FAILED: expected a degraded query "
                  "with a non-OK status\n");
      failed = true;
    }
  }

  std::printf("verify: %s\n", failed ? "FAILED" : "all checks passed");
  return failed ? 1 : 0;
}

int CmdConvert(const FlagParser& flags) {
  auto m = Load(flags.GetString("in", ""));
  if (!m.ok()) return Fail(m.status());
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Fail(Status::InvalidArgument("missing --out"));
  const Status s = Store(*m, out);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s (%d x %d, %lld nnz)\n", out.c_str(), m->rows(),
              m->cols(), static_cast<long long>(m->nnz()));
  return 0;
}

int CmdGenerate(const FlagParser& flags) {
  const std::string kind = flags.GetString("kind", "rmat");
  Result<CsrMatrix> m = Status::InvalidArgument("unknown kind: " + kind);
  if (kind == "rmat") {
    datasets::RmatParams p;
    p.scale = static_cast<int>(flags.GetInt("scale", 14));
    p.edge_count = flags.GetInt("edges", 16 << 14);
    p.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    m = datasets::GenerateRmat(p);
  } else if (kind == "powerlaw") {
    datasets::PowerLawParams p;
    p.rows = p.cols = static_cast<sparse::Index>(flags.GetInt("dim", 100000));
    p.nnz = flags.GetInt("nnz", 8 * flags.GetInt("dim", 100000));
    p.row_skew = p.col_skew = flags.GetDouble("skew", 0.8);
    p.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    m = datasets::GeneratePowerLaw(p);
  } else if (kind == "regular") {
    datasets::QuasiRegularParams p;
    p.n = static_cast<sparse::Index>(flags.GetInt("dim", 100000));
    p.nnz = flags.GetInt("nnz", 25 * flags.GetInt("dim", 100000));
    p.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    m = datasets::GenerateQuasiRegular(p);
  }
  if (!m.ok()) return Fail(m.status());
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Fail(Status::InvalidArgument("missing --out"));
  const Status s = Store(*m, out);
  if (!s.ok()) return Fail(s);
  std::printf("generated %s: %d x %d, %lld nnz\n", out.c_str(), m->rows(),
              m->cols(), static_cast<long long>(m->nnz()));
  return 0;
}

/// The flags each command reads. Any other `--name` is refused before the
/// command runs, so a misspelt flag cannot quietly fall back to its default.
const std::map<std::string, std::set<std::string>>& CommandFlags() {
  static const std::map<std::string, std::set<std::string>> kFlags = {
      {"multiply",
       {"a", "b", "algorithm", "out", "device", "auto_tune", "alpha", "beta",
        "metrics_out", "trace", "threads"}},
      {"profile",
       {"a", "b", "device", "detail", "metrics_out", "trace", "threads"}},
      {"classify", {"a", "b", "device", "metrics_out", "trace", "threads"}},
      {"batch",
       {"manifest", "scale", "seed", "cache", "deadline_ms", "plan_cache",
        "fallback", "device", "alpha", "beta", "repeats", "metrics_out",
        "trace", "threads"}},
      {"verify", {"sweep", "seed", "threads"}},
      {"convert", {"in", "out", "threads"}},
      {"generate",
       {"kind", "scale", "edges", "dim", "nnz", "skew", "seed", "out",
        "threads"}},
  };
  return kFlags;
}

int Usage() {
  std::fprintf(stderr,
               "usage: spnet_cli "
               "<multiply|profile|classify|batch|verify|convert|generate>"
               " [flags]\n(see the header comment of tools/spnet_cli.cc)\n");
  return 2;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return Usage();
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  const auto known = CommandFlags().find(command);
  if (known == CommandFlags().end()) return Usage();
  const std::string unknown = FirstUnknownFlag(argc, argv, known->second);
  if (!unknown.empty()) {
    std::fprintf(stderr, "spnet_cli: unknown flag %s\n", unknown.c_str());
    return 2;
  }
  // `generate` reads --scale as the R-MAT exponent, `batch` as a dataset
  // scale factor.
  std::set<std::string> integers = {"seed", "edges",      "dim",    "nnz",
                                    "repeats", "plan_cache", "threads"};
  std::set<std::string> reals = {"skew", "deadline_ms", "alpha", "beta"};
  (command == "generate" ? integers : reals).insert("scale");
  const std::string malformed = FirstMalformedNumber(flags, integers, reals);
  if (!malformed.empty()) {
    std::fprintf(stderr, "spnet_cli: malformed number %s\n",
                 malformed.c_str());
    return 2;
  }
  const Result<gpusim::DeviceSpec> device =
      gpusim::DeviceSpec::FromName(flags.GetString("device", "titanxp"));
  if (!device.ok()) {
    std::fprintf(stderr, "spnet_cli: %s\n",
                 device.status().message().c_str());
    return 2;
  }
  // Host threads for the functional stack (0 = hardware concurrency);
  // every command funnels through the same expansion/merge engines.
  SetGlobalThreadCount(static_cast<int>(flags.GetInt("threads", 0)));
  if (command == "multiply") return CmdMultiply(flags, *device);
  if (command == "profile") return CmdProfile(flags, *device);
  if (command == "classify") return CmdClassify(flags, *device);
  if (command == "batch") return CmdBatch(flags, *device);
  if (command == "verify") return CmdVerify(flags);
  if (command == "convert") return CmdConvert(flags);
  if (command == "generate") return CmdGenerate(flags);
  return Usage();
}

}  // namespace
}  // namespace spnet

int main(int argc, char** argv) { return spnet::Run(argc, argv); }
