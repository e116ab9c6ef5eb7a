// multiply-powerlaw: a closed loop with one caller computing C = A^2 on
// the host with SpGemmAlgorithm::Compute, alternating the registry's
// "reorganizer" (outer product: materializes C-hat, then merges) and
// "row-product" (Gustavson). Host expand, merge and C-hat allocation do
// nearly all the work; planning is a small share and there is no
// simulation, engine or serve work.

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/timer.h"
#include "core/block_reorganizer.h"
#include "datasets/generators.h"
#include "sparse/csr_matrix.h"
#include "sparse/reference_spgemm.h"
#include "spgemm/algorithm_registry.h"
#include "spgemm/plan.h"
#include "workloads.h"

namespace spnet {
namespace perfbench {
namespace {

// Hub-heavy power-law squares. C = A^2 has about 20M nonzeros, so one
// reorganizer call materializes roughly a quarter gigabyte of C-hat. The
// per-call time depends on where the hubs land, by up to a quarter from
// one structure to the next at the same size, so a run cycles through
// kOperands structures and reports per-operand statistics averaged over
// them.
constexpr sparse::Index kDim = 20000;
constexpr int64_t kNnz = 120000;
constexpr double kSkew = 0.8;
constexpr int kOperands = 5;
// Host pool size of the timed calls. One thread: on a 4-vCPU machine the
// 4-thread row-product repeated within 3% in some processes and took up to
// twice as long (user CPU time doubling for identical work) in others,
// while single-threaded calls repeat within a few percent. The traced run
// times one call at kParallelThreads for the parallel speedup.
constexpr int kThreads = 1;
constexpr int kParallelThreads = 4;
// Absolute per-entry tolerance against the reference: the algorithms sum
// the same products in different orders.
constexpr double kTolerance = 1e-6;

struct Setup {
  std::vector<sparse::CsrMatrix> operands;
  /// operands[0]^2, the correctness oracle.
  sparse::CsrMatrix reference;
  std::unique_ptr<spgemm::SpGemmAlgorithm> reorganizer;
  std::unique_ptr<spgemm::SpGemmAlgorithm> row_product;
  double generate_ms = 0.0;
};

Result<Setup> BuildSetup(uint64_t seed) {
  Setup setup;
  const Timer generate;
  for (int i = 0; i < kOperands; ++i) {
    datasets::PowerLawParams params;
    params.rows = kDim;
    params.cols = kDim;
    params.nnz = kNnz;
    params.row_skew = kSkew;
    params.col_skew = kSkew;
    params.seed = MixSeed(seed, static_cast<uint64_t>(i));
    SPNET_ASSIGN_OR_RETURN(sparse::CsrMatrix a,
                           datasets::GeneratePowerLaw(params));
    setup.operands.push_back(std::move(a));
  }
  setup.generate_ms = generate.Seconds() * 1e3;
  SPNET_ASSIGN_OR_RETURN(
      setup.reference,
      sparse::ReferenceSpGemm(setup.operands[0], setup.operands[0]));
  core::RegisterCoreAlgorithms();
  auto& registry = spgemm::AlgorithmRegistry::Global();
  SPNET_ASSIGN_OR_RETURN(setup.reorganizer, registry.Create("reorganizer"));
  SPNET_ASSIGN_OR_RETURN(setup.row_product, registry.Create("row-product"));
  return setup;
}

/// Call times of one algorithm, by operand.
using OperandSamples = std::vector<std::vector<double>>;

/// The q-quantile of each operand's calls, averaged over the operands.
double OperandQuantile(const OperandSamples& samples, double q) {
  std::vector<double> per_operand;
  for (const std::vector<double>& calls : samples) {
    if (!calls.empty()) per_operand.push_back(Quantile(calls, q));
  }
  return Mean(per_operand);
}

/// What a traced pass records besides call times.
struct TraceSink {
  std::map<std::string, std::vector<double>> spans_ms;
  std::vector<double> csc_ms;
  /// Counters and gauges of each operand's last traced reorganizer call.
  std::map<int, std::map<std::string, double>> reorganizer_counts;
};

/// The closed loop: for each operand in turn, a reorganizer call then a
/// row-product call, until `seconds` have passed. With a sink, every call
/// gets its own ExecContext. Returns the number of calls made; failures
/// are counted in `outcome`.
int64_t RunLoop(const Setup& setup, double seconds, TraceSink* sink,
                OperandSamples* reorganizer_ms, OperandSamples* row_product_ms,
                Outcome* outcome) {
  reorganizer_ms->assign(kOperands, {});
  row_product_ms->assign(kOperands, {});
  int64_t calls = 0;
  const Timer window;
  for (int step = 0; window.Seconds() < seconds; ++step) {
    const int operand = step % kOperands;
    const sparse::CsrMatrix& a = setup.operands[static_cast<size_t>(operand)];
    for (const bool reorg : {true, false}) {
      const spgemm::SpGemmAlgorithm& algorithm =
          reorg ? *setup.reorganizer : *setup.row_product;
      std::unique_ptr<spgemm::ExecContext> ctx;
      if (sink != nullptr) ctx = std::make_unique<spgemm::ExecContext>();
      const Timer call;
      auto c = algorithm.Compute(a, a, ctx.get());
      const double ms = call.Seconds() * 1e3;
      ++calls;
      ++outcome->attempted;
      if (!c.ok()) {
        ++outcome->failed;
        continue;
      }
      (*(reorg ? reorganizer_ms : row_product_ms))[static_cast<size_t>(operand)]
          .push_back(ms);
      if (sink == nullptr) continue;
      CollectSpans(*ctx, &sink->spans_ms);
      if (reorg) {
        sink->reorganizer_counts[operand] = ctx->registry.Snapshot();
        // CSC conversion of A, the reorganizer's column-side input, timed
        // on its own through the public sparse call.
        const Timer csc;
        const sparse::CscMatrix a_csc = sparse::CscMatrix::FromCsr(a);
        sink->csc_ms.push_back(csc.Seconds() * 1e3);
      }
    }
  }
  return calls;
}

/// Runs each algorithm once on the first operand, untimed, and compares
/// its output against the reference computed in set-up. This also
/// finishes lazy set-up (allocator growth) before anything is timed.
void CheckOutputs(const Setup& setup, Outcome* outcome) {
  const sparse::CsrMatrix& a = setup.operands[0];
  for (const spgemm::SpGemmAlgorithm* algorithm :
       {setup.reorganizer.get(), setup.row_product.get()}) {
    ++outcome->attempted;
    auto c = algorithm->Compute(a, a);
    const bool match = c.ok() && c->nnz() == setup.reference.nnz() &&
                       sparse::CsrApproxEqual(*c, setup.reference, kTolerance);
    if (!match) {
      ++outcome->failed;
      outcome->correct = false;
    }
  }
}

}  // namespace

Outcome RunMultiply(const RunArgs& args) {
  Outcome outcome;
  SetGlobalThreadCount(kThreads);

  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup = Setup();  // release the previous repetition first
    const Timer watch;
    auto built = BuildSetup(args.seed);
    setup_s.push_back(watch.Seconds());
    if (!built.ok()) {
      outcome.correct = false;
      outcome.attempted = outcome.failed = 1;
      return outcome;
    }
    setup = std::move(built).value();
  }
  CheckOutputs(setup, &outcome);

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  OperandSamples reorganizer_ms;
  OperandSamples row_product_ms;
  const HostUsage usage_before = HostUsage::Now();
  const int64_t calls = RunLoop(setup, untraced_s, nullptr, &reorganizer_ms,
                                &row_product_ms, &outcome);
  const HostUsage usage_after = HostUsage::Now();

  const double reorg_p50 = OperandQuantile(reorganizer_ms, 0.5);
  const double row_p50 = OperandQuantile(row_product_ms, 0.5);
  std::vector<double> all_ms;
  for (const OperandSamples* samples : {&reorganizer_ms, &row_product_ms}) {
    for (const std::vector<double>& calls_ms : *samples) {
      all_ms.insert(all_ms.end(), calls_ms.begin(), calls_ms.end());
    }
  }
  outcome.AddNote("calls", static_cast<double>(calls), "count");
  outcome.AddNote("latency_ms_p90", Quantile(all_ms, 0.9), "ms");
  auto& m = outcome.metrics;
  if (!args.trace) {
    m["setup_s"] = Median(setup_s);
    m["peak_rss_mb"] = PeakRssMb();
    m["reorganizer_ms_p50"] = reorg_p50;
    m["rowproduct_ms_p50"] = row_p50;
    return outcome;
  }

  // Traced run: host cost per call of the untraced half.
  const double per_call = 1.0 / static_cast<double>(calls > 0 ? calls : 1);
  m["host.user_cpu_s"] = (usage_after.user_s - usage_before.user_s) * per_call;
  m["host.sys_cpu_s"] = (usage_after.sys_s - usage_before.sys_s) * per_call;
  m["host.minor_faults"] =
      static_cast<double>(usage_after.minor_faults -
                          usage_before.minor_faults) *
      per_call;
  m["datasets.generate_ms"] = setup.generate_ms;
  m["latency_ms_p90"] = Quantile(all_ms, 0.9);
  m["latency_ms_p99"] = Quantile(all_ms, 0.99);

  // The first operand's reorganizer call on the parallel pool: its speedup
  // over that operand's single-threaded median.
  SetGlobalThreadCount(kParallelThreads);
  {
    ++outcome.attempted;
    const Timer parallel;
    auto c = setup.reorganizer->Compute(setup.operands[0], setup.operands[0]);
    const double parallel_ms = parallel.Seconds() * 1e3;
    if (!c.ok()) ++outcome.failed;
    m["host.speedup_vs_1t"] = Median(reorganizer_ms[0]) / parallel_ms;
  }
  SetGlobalThreadCount(kThreads);

  TraceSink sink;
  OperandSamples traced_reorg_ms;
  OperandSamples traced_row_ms;
  RunLoop(setup, args.seconds / 2, &sink, &traced_reorg_ms, &traced_row_ms,
          &outcome);
  auto& spans = sink.spans_ms;
  m["sparse.csc_from_csr_ms"] = Median(sink.csc_ms);
  m["spgemm.build_workload_ms"] = Median(spans["build-workload"]);
  m["spgemm.expand_ms"] = Median(spans["expand"]);
  m["spgemm.merge_ms"] = Median(spans["merge"]);
  m["spgemm.rowproduct_ms"] = Median(spans["compute:row-product"]);
  m["core.classify_ms"] = Median(spans["classify"]);
  m["core.split_ms"] = Median(spans["b-splitting"]);
  m["core.gather_ms"] = Median(spans["b-gathering"]);
  m["trace_overhead.reorganizer_ms_p50"] =
      OperandQuantile(traced_reorg_ms, 0.5) - reorg_p50;
  m["trace_overhead.rowproduct_ms_p50"] =
      OperandQuantile(traced_row_ms, 0.5) - row_p50;

  // Exact counts per operand, averaged: products (C-hat elements) and the
  // classifier's census.
  const auto per_operand = [&sink](const std::string& name) {
    std::vector<double> values;
    for (const auto& [operand, counts] : sink.reorganizer_counts) {
      values.push_back(SnapshotValue(counts, name));
    }
    return Mean(values);
  };
  const double flops = per_operand("expand.products");
  m["spgemm.flops"] = flops;
  m["spgemm.chat_bytes_computed"] =
      flops * static_cast<double>(spgemm::kElementBytes);
  m["spgemm.products_per_s"] = flops / (reorg_p50 * 1e-3);
  m["core.dominators"] = per_operand("classifier.dominators");
  m["core.low_performers"] = per_operand("classifier.low_performers");
  m["core.normals"] = per_operand("classifier.normals");

  const double call = Median(spans["compute:Block-Reorganizer"]);
  outcome.AddNote("expand_merge_share",
                  (m["spgemm.expand_ms"] + m["spgemm.merge_ms"]) / call,
                  "ratio");
  outcome.AddNote("untraced.reorganizer_ms_p50", reorg_p50, "ms");
  outcome.AddNote("untraced.rowproduct_ms_p50", row_p50, "ms");
  return outcome;
}

}  // namespace perfbench
}  // namespace spnet
