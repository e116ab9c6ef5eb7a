// serve-cold and serve-warm: open-loop Poisson traffic into an in-process
// serve::Server through Server::Submit, 2 workers, no deadlines, no
// quotas. The request mix is 3:1 reorganizer:row-product.
//
//   serve-cold  every request's operand comes from a pool of distinct
//               structures larger than the plan cache, visited in a fixed
//               cyclic order, so every lookup misses and each request pays
//               fingerprinting, full planning and simulation.
//   serve-warm  the operands come from a hot set whose plans are cached in
//               set-up, so every lookup hits and a request pays only
//               fingerprinting, lookup and re-simulation.
//
// Latency runs from a request's due time on the schedule to its callback,
// so a stall also delays the requests due behind it.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/block_reorganizer.h"
#include "core/reorganizer_config.h"
#include "datasets/generators.h"
#include "engine/plan_cache.h"
#include "engine/request.h"
#include "serve/server.h"
#include "sparse/fingerprint.h"
#include "spgemm/algorithm_registry.h"
#include "spgemm/plan.h"
#include "workloads.h"

namespace spnet {
namespace perfbench {
namespace {

// Operands: 20k x 20k with 120k nonzeros. Every fourth one is a banded
// quasi-regular matrix, the others power-law with the skews below.
constexpr sparse::Index kDim = 20000;
constexpr int64_t kNnz = 120000;
constexpr double kSkews[] = {0.7, 0.8, 0.9};
// The cold pool is 1.5 times the plan cache and is visited cyclically, so
// LRU never holds a structure until its next use. The hot set's 4
// operands x 2 algorithms fit the cache with room to spare. One shard
// keeps LRU exact, so the hit ratio is a property of the traffic.
constexpr int kColdPool = 24;
constexpr int kHotSet = 4;
constexpr size_t kPlanCacheCapacity = 16;
constexpr int kWorkers = 2;
// Generator + workers + host pool stay within the 4 cores the benchmark
// is specified for: with a 1-thread pool each worker plans inline.
constexpr int kPoolThreads = 1;
// Offered rates: about a quarter of what the server sustained on each
// traffic mix in a quiet period (about 400/s cold and 900/s warm on 4
// vCPUs of an Intel Xeon). On a shared machine the sustainable rate
// dropped by up to 40% when co-located work contended for the caches, and
// at half the quiet capacity that pushed the queue toward saturation and
// doubled the tail.
constexpr double kColdRate = 100.0;
constexpr double kWarmRate = 250.0;

constexpr const char* kAlgorithms[] = {"reorganizer", "row-product"};
constexpr int kReorganizer = 0;
constexpr int kRowProduct = 1;

struct Expected {
  int64_t flops = 0;
  int64_t output_nnz = 0;
};

struct Setup {
  std::vector<std::shared_ptr<const sparse::CsrMatrix>> operands;
  /// Cyclic visiting order of the cold pool.
  std::vector<int> order;
  /// expected[operand][algorithm], from a direct Plan call.
  std::vector<std::array<Expected, 2>> expected;
  std::array<std::unique_ptr<spgemm::SpGemmAlgorithm>, 2> algorithms;
  std::unique_ptr<serve::Server> server;
  double generate_ms = 0.0;
  /// Classifier census of the operands' reorganizer plans, averaged per
  /// operand; recorded only when set-up is traced.
  double dominators = 0.0;
  double low_performers = 0.0;
  double normals = 0.0;
};

Result<sparse::CsrMatrix> GenerateOperand(uint64_t seed, int index) {
  const uint64_t operand_seed =
      MixSeed(seed, 1000 + static_cast<uint64_t>(index));
  if (index % 4 == 3) {
    datasets::QuasiRegularParams params;
    params.n = kDim;
    params.nnz = kNnz;
    params.seed = operand_seed;
    return datasets::GenerateQuasiRegular(params);
  }
  datasets::PowerLawParams params;
  params.rows = kDim;
  params.cols = kDim;
  params.nnz = kNnz;
  params.row_skew = kSkews[index % 4];
  params.col_skew = kSkews[index % 4];
  params.seed = operand_seed;
  return datasets::GeneratePowerLaw(params);
}

/// Request i of a run: which operand and which algorithm. Random access,
/// so a traced replay can continue the sequence where the server stopped.
struct RequestSpec {
  int operand = 0;
  int algorithm = kReorganizer;
};

RequestSpec SpecAt(const Setup& setup, uint64_t seed, bool warm, int64_t i) {
  const auto index = static_cast<uint64_t>(i);
  RequestSpec spec;
  spec.operand =
      warm ? static_cast<int>(MixSeed(seed, 2 * index) % kHotSet)
           : setup.order[index % setup.order.size()];
  spec.algorithm =
      MixSeed(seed, 2 * index + 1) % 4 == 3 ? kRowProduct : kReorganizer;
  return spec;
}

serve::ServeOptions ServerOptions() {
  serve::ServeOptions options;
  options.workers = kWorkers;
  // Large enough that admission never rejects at the offered rates.
  options.queue_capacity = 1 << 16;
  options.engine.plan_cache_capacity = kPlanCacheCapacity;
  options.plan_cache_shards = 1;
  return options;
}

Result<engine::Request> MakeRequest(const Setup& setup, const RequestSpec& spec,
                                    const std::string& id) {
  return engine::RequestBuilder()
      .Id(id)
      .Tenant("bench")
      .Algorithm(kAlgorithms[spec.algorithm])
      .OperandA(setup.operands[static_cast<size_t>(spec.operand)])
      .Build();
}

void WaitIdle(serve::Server& server) {
  while (server.in_flight() > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Result<Setup> BuildSetup(uint64_t seed, bool warm, bool traced) {
  Setup setup;
  const int pool = warm ? kHotSet : kColdPool;
  // The cold server's lazy state is warmed on one extra operand outside
  // the pool, so the pool's own structures stay uncached.
  const int generated = warm ? pool : pool + 1;
  const Timer generate;
  for (int i = 0; i < generated; ++i) {
    SPNET_ASSIGN_OR_RETURN(sparse::CsrMatrix m, GenerateOperand(seed, i));
    setup.operands.push_back(
        std::make_shared<const sparse::CsrMatrix>(std::move(m)));
  }
  setup.generate_ms = generate.Seconds() * 1e3;
  for (int i = 0; i < pool; ++i) setup.order.push_back(i);
  Rng shuffle(MixSeed(seed, 3));
  for (size_t i = setup.order.size(); i > 1; --i) {
    std::swap(setup.order[i - 1], setup.order[shuffle.NextBounded(i)]);
  }

  core::RegisterCoreAlgorithms();
  for (int a = 0; a < 2; ++a) {
    SPNET_ASSIGN_OR_RETURN(
        setup.algorithms[static_cast<size_t>(a)],
        spgemm::AlgorithmRegistry::Global().Create(kAlgorithms[a]));
  }
  const gpusim::DeviceSpec device = ServerOptions().engine.device;
  setup.expected.resize(static_cast<size_t>(pool));
  for (int i = 0; i < pool; ++i) {
    const sparse::CsrMatrix& m = *setup.operands[static_cast<size_t>(i)];
    for (int a = 0; a < 2; ++a) {
      std::unique_ptr<spgemm::ExecContext> ctx;
      if (traced && a == kReorganizer) {
        ctx = std::make_unique<spgemm::ExecContext>();
      }
      SPNET_ASSIGN_OR_RETURN(
          const spgemm::SpGemmPlan plan,
          setup.algorithms[static_cast<size_t>(a)]->Plan(m, m, device,
                                                         ctx.get()));
      setup.expected[static_cast<size_t>(i)][static_cast<size_t>(a)] = {
          plan.flops, plan.output_nnz};
      if (ctx == nullptr) continue;
      const auto counts = ctx->registry.Snapshot();
      setup.dominators +=
          SnapshotValue(counts, "classifier.dominators") / pool;
      setup.low_performers +=
          SnapshotValue(counts, "classifier.low_performers") / pool;
      setup.normals += SnapshotValue(counts, "classifier.normals") / pool;
    }
  }

  setup.server = std::make_unique<serve::Server>(ServerOptions());
  SPNET_RETURN_IF_ERROR(setup.server->Start());
  // Warm-up: the hot set's plans are cached here; on the cold server the
  // spare operand finishes the workers' lazy set-up.
  std::vector<RequestSpec> warmup;
  for (int a = 0; a < 2; ++a) {
    for (int i = 0; i < (warm ? pool : 2); ++i) {
      warmup.push_back({warm ? i : pool, a});
    }
  }
  auto failures = std::make_shared<std::atomic<int>>(0);
  for (size_t i = 0; i < warmup.size(); ++i) {
    SPNET_ASSIGN_OR_RETURN(
        engine::Request request,
        MakeRequest(setup, warmup[i], "warmup-" + std::to_string(i)));
    SPNET_RETURN_IF_ERROR(setup.server->Submit(
        std::move(request), [failures](const engine::Response& response) {
          if (!response.status.ok()) failures->fetch_add(1);
        }));
  }
  WaitIdle(*setup.server);
  if (failures->load() != 0) {
    return Status::Internal("warm-up requests failed");
  }
  return setup;
}

/// One request of the open loop, filled by the generator (due, submit)
/// and by the worker's callback (everything else).
struct Sample {
  RequestSpec spec;
  double due_s = 0.0;
  double submit_s = 0.0;
  double done_s = 0.0;
  bool admitted = false;
  bool ok = false;
  bool matches = false;
  double exec_ms = 0.0;
  double sim_ms = 0.0;
  int64_t flops = 0;
};

struct OpenLoop {
  std::vector<Sample> samples;
  double start_s = 0.0;
  int64_t lookups = 0;
  int64_t hits = 0;
  HostUsage usage;
};

/// Submits the run's requests on its Poisson schedule for `seconds`, then
/// waits until all of them have completed.
OpenLoop RunOpenLoop(const Setup& setup, uint64_t seed, bool warm,
                     double seconds) {
  OpenLoop run;
  const std::vector<double> schedule =
      PoissonSchedule(seed, ServeRate(warm), seconds);
  run.samples.resize(schedule.size());
  serve::Server& server = *setup.server;
  engine::PlanCache& cache = server.plan_cache();
  const int64_t hits_before = cache.hits();
  const int64_t lookups_before = cache.hits() + cache.misses();
  const HostUsage usage_before = HostUsage::Now();

  run.start_s = NowSeconds();
  for (size_t i = 0; i < schedule.size(); ++i) {
    Sample& sample = run.samples[i];
    sample.spec = SpecAt(setup, seed, warm, static_cast<int64_t>(i));
    sample.due_s = run.start_s + schedule[i];
    const double wait_s = sample.due_s - NowSeconds();
    if (wait_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
    }
    auto request = MakeRequest(setup, sample.spec, std::to_string(i));
    if (!request.ok()) continue;
    const Expected expected =
        setup.expected[static_cast<size_t>(sample.spec.operand)]
                      [static_cast<size_t>(sample.spec.algorithm)];
    const char* algorithm = kAlgorithms[sample.spec.algorithm];
    sample.submit_s = NowSeconds();
    const Status admitted = server.Submit(
        std::move(request).value(),
        [&sample, expected, algorithm](const engine::Response& response) {
          sample.done_s = NowSeconds();
          sample.ok = response.status.ok();
          sample.matches = response.algorithm_used == algorithm &&
                           response.flops == expected.flops &&
                           response.output_nnz == expected.output_nnz;
          sample.exec_ms = response.wall_ms;
          sample.sim_ms = response.sim_ms;
          sample.flops = response.flops;
        });
    sample.admitted = admitted.ok();
  }
  WaitIdle(server);
  run.usage = HostUsage::Now();
  run.usage.user_s -= usage_before.user_s;
  run.usage.sys_s -= usage_before.sys_s;
  run.usage.minor_faults -= usage_before.minor_faults;
  run.hits = cache.hits() - hits_before;
  run.lookups = cache.hits() + cache.misses() - lookups_before;
  return run;
}

/// What the traced replay measured, per layer call.
struct Replay {
  std::map<std::string, std::vector<double>> spans_ms;
  std::vector<double> fingerprint_ms;
  std::vector<double> lookup_us;
  std::vector<double> plan_ms;
  std::vector<double> blocks;
  std::array<std::vector<double>, 2> exec_ms;
};

/// Replays the request sequence from `first_index` on, one request at a
/// time, through the same public layer calls a serve worker makes
/// (fingerprint, plan-cache lookup, plan on a miss, simulate), each with
/// its own ExecContext. Uses the server's plan cache, so hits and misses
/// follow the traffic.
Replay RunReplay(const Setup& setup, uint64_t seed, bool warm,
                 int64_t first_index, double seconds, Outcome* outcome) {
  Replay replay;
  engine::PlanCache& cache = setup.server->plan_cache();
  const gpusim::DeviceSpec device = setup.server->options().engine.device;
  const uint64_t config_fp = core::ReorganizerConfig{}.Fingerprint();
  const Timer window;
  for (int64_t i = first_index; window.Seconds() < seconds; ++i) {
    const RequestSpec spec = SpecAt(setup, seed, warm, i);
    const sparse::CsrMatrix& a =
        *setup.operands[static_cast<size_t>(spec.operand)];
    const spgemm::SpGemmAlgorithm& algorithm =
        *setup.algorithms[static_cast<size_t>(spec.algorithm)];
    spgemm::ExecContext ctx;
    ++outcome->attempted;

    const Timer fingerprint;
    const uint64_t fp = sparse::StructuralFingerprint(a);
    replay.fingerprint_ms.push_back(fingerprint.Seconds() * 1e3);

    const Timer exec;
    const engine::PlanKey key{fp, fp, kAlgorithms[spec.algorithm],
                              spec.algorithm == kReorganizer ? config_fp : 0};
    const Timer lookup;
    std::shared_ptr<const spgemm::SpGemmPlan> plan = cache.Lookup(key, &ctx);
    replay.lookup_us.push_back(lookup.Seconds() * 1e6);
    if (plan == nullptr) {
      const Timer planning;
      auto planned = algorithm.Plan(a, a, device, &ctx);
      replay.plan_ms.push_back(planning.Seconds() * 1e3);
      if (!planned.ok()) {
        ++outcome->failed;
        continue;
      }
      plan = cache.Insert(key, std::move(planned).value(), &ctx);
    }
    auto measured = spgemm::SimulatePlan(*plan, device, &ctx);
    replay.exec_ms[static_cast<size_t>(spec.algorithm)].push_back(
        exec.Seconds() * 1e3);

    const Expected expected =
        setup.expected[static_cast<size_t>(spec.operand)]
                      [static_cast<size_t>(spec.algorithm)];
    if (!measured.ok() || measured->flops != expected.flops ||
        measured->output_nnz != expected.output_nnz) {
      ++outcome->failed;
      if (measured.ok()) outcome->correct = false;
    }
    CollectSpans(ctx, &replay.spans_ms);
    replay.blocks.push_back(
        SnapshotValue(ctx.registry.Snapshot(), "sim.blocks"));
  }
  return replay;
}

}  // namespace

double ServeRate(bool warm) { return warm ? kWarmRate : kColdRate; }

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds) {
  Rng rng(MixSeed(seed, 4));
  std::vector<double> due(static_cast<size_t>(std::llround(rate * seconds)));
  for (double& t : due) t = rng.NextDouble() * seconds;
  std::sort(due.begin(), due.end());
  return due;
}

Outcome RunServe(const RunArgs& args, bool warm) {
  Outcome outcome;
  SetGlobalThreadCount(kPoolThreads);

  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup = Setup();  // drain and release the previous repetition first
    const Timer watch;
    auto built = BuildSetup(args.seed, warm, args.trace);
    setup_s.push_back(watch.Seconds());
    if (!built.ok()) {
      outcome.correct = false;
      outcome.attempted = outcome.failed = 1;
      return outcome;
    }
    setup = std::move(built).value();
  }

  const double open_s = args.trace ? args.seconds / 2 : args.seconds;
  const OpenLoop run = RunOpenLoop(setup, args.seed, warm, open_s);
  std::array<std::vector<double>, 2> latency_ms;
  std::array<std::vector<double>, 2> exec_ms;
  std::vector<double> all_latency_ms;
  std::vector<double> all_exec_ms;
  std::vector<double> queue_ms;
  std::vector<double> lag_ms;
  std::vector<double> sim_ms;
  std::vector<double> flops;
  for (const Sample& s : run.samples) {
    ++outcome.attempted;
    if (!s.admitted || !s.ok || !s.matches) {
      ++outcome.failed;
      if (s.ok && !s.matches) outcome.correct = false;
      continue;
    }
    const auto algorithm = static_cast<size_t>(s.spec.algorithm);
    latency_ms[algorithm].push_back((s.done_s - s.due_s) * 1e3);
    all_latency_ms.push_back((s.done_s - s.due_s) * 1e3);
    exec_ms[algorithm].push_back(s.exec_ms);
    all_exec_ms.push_back(s.exec_ms);
    // Time in the server outside the engine's execute timer: queueing,
    // fingerprinting and dispatch.
    queue_ms.push_back((s.done_s - s.submit_s) * 1e3 - s.exec_ms);
    lag_ms.push_back((s.submit_s - s.due_s) * 1e3);
    sim_ms.push_back(s.sim_ms);
    flops.push_back(static_cast<double>(s.flops));
  }
  const double completed = static_cast<double>(all_latency_ms.size());
  auto& m = outcome.metrics;
  const double hit_ratio =
      run.lookups > 0 ? static_cast<double>(run.hits) /
                            static_cast<double>(run.lookups)
                      : 0.0;
  outcome.AddNote("samples.reorganizer",
                  static_cast<double>(latency_ms[kReorganizer].size()),
                  "count");
  outcome.AddNote("samples.rowproduct",
                  static_cast<double>(latency_ms[kRowProduct].size()),
                  "count");
  outcome.AddNote("latency_ms_p50", Median(all_latency_ms), "ms");
  outcome.AddNote("latency_ms_p90", Quantile(all_latency_ms, 0.9), "ms");
  outcome.AddNote("reorganizer_ms_p90",
                  Quantile(latency_ms[kReorganizer], 0.9), "ms");
  outcome.AddNote("rowproduct_ms_p90", Quantile(latency_ms[kRowProduct], 0.9),
                  "ms");
  outcome.AddNote("latency_ms_p99", Quantile(all_latency_ms, 0.99), "ms");
  if (args.trace) {
    m["latency_ms_p90"] = Quantile(all_latency_ms, 0.9);
    m["latency_ms_p99"] = Quantile(all_latency_ms, 0.99);
  }
  outcome.AddNote("sim_ms_mean", Mean(sim_ms), "ms");
  outcome.AddNote("plan_cache_hit_ratio", hit_ratio, "ratio");
  outcome.AddNote("generator_lag_ms_p99", Quantile(lag_ms, 0.99), "ms");

  if (!args.trace) {
    m["setup_s"] = Median(setup_s);
    m["peak_rss_mb"] = PeakRssMb();
    m["reorganizer_ms_p50"] = Median(latency_ms[kReorganizer]);
    m["rowproduct_ms_p50"] = Median(latency_ms[kRowProduct]);
    return outcome;
  }

  const double per_request = 1.0 / std::max(1.0, completed);
  m["host.user_cpu_s"] = run.usage.user_s * per_request;
  m["host.sys_cpu_s"] = run.usage.sys_s * per_request;
  m["host.minor_faults"] =
      static_cast<double>(run.usage.minor_faults) * per_request;
  m["datasets.generate_ms"] = setup.generate_ms;
  m["core.dominators"] = setup.dominators;
  m["core.low_performers"] = setup.low_performers;
  m["core.normals"] = setup.normals;
  m["engine.plan_cache.lookups"] = static_cast<double>(run.lookups);
  m["engine.plan_cache.hit_ratio"] = hit_ratio;
  m["engine.exec_ms_p50"] = Median(all_exec_ms);
  m["serve.queue_wait_ms_p50"] = Median(queue_ms);
  m["serve.queue_wait_ms_p99"] = Quantile(queue_ms, 0.99);
  m["serve.generator_lag_ms_p99"] = Quantile(lag_ms, 0.99);
  m["gpusim.sim_ms_mean"] = Mean(sim_ms);
  m["spgemm.flops"] = Mean(flops);
  m["spgemm.chat_bytes_computed"] =
      Mean(flops) * static_cast<double>(spgemm::kElementBytes);

  Replay replay =
      RunReplay(setup, args.seed, warm,
                static_cast<int64_t>(run.samples.size()), args.seconds / 2,
                &outcome);
  auto& spans = replay.spans_ms;
  m["sparse.fingerprint_ms"] = Median(replay.fingerprint_ms);
  m["engine.plan_cache.lookup_us"] = Median(replay.lookup_us);
  m["core.plan_ms"] = Median(replay.plan_ms);
  m["spgemm.build_workload_ms"] = Median(spans["build-workload"]);
  m["core.classify_ms"] = Median(spans["classify"]);
  m["core.split_ms"] = Median(spans["b-splitting"]);
  m["core.gather_ms"] = Median(spans["b-gathering"]);
  m["core.limit_ms"] = Median(spans["b-limiting"]);
  m["gpusim.simulate_ms"] = Median(spans["simulate"]);
  m["gpusim.blocks"] = Mean(replay.blocks);
  m["trace_overhead.reorganizer_ms_p50"] =
      Median(replay.exec_ms[kReorganizer]) - Median(exec_ms[kReorganizer]);
  m["trace_overhead.rowproduct_ms_p50"] =
      Median(replay.exec_ms[kRowProduct]) - Median(exec_ms[kRowProduct]);
  outcome.AddNote("replay.requests",
                  static_cast<double>(replay.fingerprint_ms.size()), "count");
  outcome.AddNote("replay.planning_spans",
                  static_cast<double>(spans["build-workload"].size() +
                                      replay.plan_ms.size()),
                  "count");
  return outcome;
}

}  // namespace perfbench
}  // namespace spnet
