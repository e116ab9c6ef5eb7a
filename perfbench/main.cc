// The repository benchmark: one process runs one workload and prints
// every metric by name with its unit, then one JSON result line.
//
//   perfbench --workload <multiply-powerlaw|serve-cold|serve-warm>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --metrics    (the metric catalog, one "kind name unit" a line)
//   perfbench --schedule --workload <serve-*> --seed <n> --seconds <s>
//                                (the Poisson due times, one a line)
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced run. Metrics of a layer the
// workload does not exercise read 0. Exit code 1 when any operation
// failed or any output did not match its reference.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "workloads.h"

namespace spnet {
namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// An operation is a host Compute call on multiply-powerlaw and a request
// from its due time to its callback on the serve workloads; the medians
// are per algorithm. Tails are per-layer figures (no bound): on a shared
// machine a 40% slowdown in service time doubled the serve p90 between
// runs, while the medians moved with the slowdown itself.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"reorganizer_ms_p50", "ms"},
    {"rowproduct_ms_p50", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"latency_ms_p90", "ms"},
    {"latency_ms_p99", "ms"},
    {"sparse.fingerprint_ms", "ms"},
    {"sparse.csc_from_csr_ms", "ms"},
    {"spgemm.build_workload_ms", "ms"},
    {"spgemm.expand_ms", "ms"},
    {"spgemm.merge_ms", "ms"},
    {"spgemm.rowproduct_ms", "ms"},
    {"spgemm.flops", "count"},
    {"spgemm.chat_bytes_computed", "bytes"},
    {"spgemm.products_per_s", "1/s"},
    {"core.classify_ms", "ms"},
    {"core.split_ms", "ms"},
    {"core.gather_ms", "ms"},
    {"core.limit_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"core.dominators", "count"},
    {"core.low_performers", "count"},
    {"core.normals", "count"},
    {"gpusim.simulate_ms", "ms"},
    {"gpusim.blocks", "count"},
    {"gpusim.sim_ms_mean", "ms"},
    {"engine.plan_cache.lookups", "count"},
    {"engine.plan_cache.hit_ratio", "ratio"},
    {"engine.plan_cache.lookup_us", "us"},
    {"engine.exec_ms_p50", "ms"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.generator_lag_ms_p99", "ms"},
    {"host.user_cpu_s", "s/op"},
    {"host.sys_cpu_s", "s/op"},
    {"host.minor_faults", "count/op"},
    {"host.speedup_vs_1t", "ratio"},
    {"datasets.generate_ms", "ms"},
    {"trace_overhead.reorganizer_ms_p50", "ms"},
    {"trace_overhead.rowproduct_ms_p50", "ms"},
    {"error_rate", "ratio"},
};

template <size_t N>
const MetricSpec* Find(const MetricSpec (&specs)[N], const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// %.17g keeps every digit of the measurement; JSON has no NaN or inf.
std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<multiply-powerlaw|serve-cold|serve-warm> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv, {"metrics", "schedule"}).ok()) {
    return Usage("malformed flags");
  }
  if (flags.Has("metrics")) {
    for (const MetricSpec& spec : kEndToEnd) {
      std::printf("end_to_end %s %s\n", spec.name, spec.unit);
    }
    for (const MetricSpec& spec : kPerLayer) {
      std::printf("per_layer %s %s\n", spec.name, spec.unit);
    }
    return 0;
  }

  const std::string workload = flags.GetString("workload", "");
  RunArgs args;
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  args.seconds = flags.GetDouble("seconds", 10.0);
  args.trace = flags.GetInt("trace", 0) != 0;
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");
  const bool serve = workload == "serve-cold" || workload == "serve-warm";
  if (workload != "multiply-powerlaw" && !serve) {
    return Usage("unknown --workload");
  }
  const bool warm = workload == "serve-warm";

  if (flags.Has("schedule")) {
    if (!serve) return Usage("--schedule needs a serve workload");
    for (double due : PoissonSchedule(args.seed, ServeRate(warm),
                                      args.seconds)) {
      std::printf("%s\n", Number(due).c_str());
    }
    return 0;
  }

  Outcome outcome = serve ? RunServe(args, warm) : RunMultiply(args);
  if (outcome.attempted < 1) outcome.attempted = 1;
  const double error_rate = static_cast<double>(outcome.failed) /
                            static_cast<double>(outcome.attempted);
  if (args.trace) {
    outcome.metrics["error_rate"] = error_rate;
  } else {
    outcome.AddNote("error_rate", error_rate, "ratio");
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("attempted %lld failed %lld correct %s\n",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed),
              outcome.correct ? "true" : "false");

  // The contract metrics: every one of the mode's catalog, in catalog
  // order. A per-layer metric the workload did not set is a layer it does
  // not exercise and reads 0; a missing end-to-end metric is a bug.
  std::string json = "{";
  const auto emit = [&](const MetricSpec& spec, double value) {
    std::printf("metric %s %s %s\n", spec.name, Number(value).c_str(),
                spec.unit);
    if (json.size() > 1) json.append(", ");
    json.append("\"").append(spec.name).append("\": {\"value\": ");
    json.append(Number(value)).append(", \"unit\": \"");
    json.append(spec.unit).append("\"}");
  };
  bool complete = true;
  for (const auto& [name, value] : outcome.metrics) {
    if ((args.trace ? Find(kPerLayer, name) : Find(kEndToEnd, name)) ==
        nullptr) {
      std::fprintf(stderr, "perfbench: metric %s is not in the catalog\n",
                   name.c_str());
      complete = false;
    }
  }
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = outcome.metrics.find(spec.name);
      emit(spec, it == outcome.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = outcome.metrics.find(spec.name);
      if (it == outcome.metrics.end()) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     spec.name);
        complete = false;
        continue;
      }
      emit(spec, it->second);
    }
  }
  json += "}";
  for (const Outcome::Note& note : outcome.notes) {
    std::printf("note %s %s %s\n", note.name.c_str(),
                Number(note.value).c_str(), note.unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      outcome.correct ? "true" : "false",
      static_cast<long long>(outcome.attempted),
      static_cast<long long>(outcome.failed), json.c_str());
  std::fflush(stdout);
  return outcome.correct && outcome.failed == 0 && complete ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace spnet

int main(int argc, char** argv) { return spnet::perfbench::Main(argc, argv); }
