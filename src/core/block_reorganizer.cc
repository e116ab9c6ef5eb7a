#include "core/block_reorganizer.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "core/b_limiting.h"
#include "spgemm/algorithm_registry.h"
#include "spgemm/exec_context.h"
#include "spgemm/functional.h"
#include "spgemm/nnz_estimator.h"
#include "spgemm/plan.h"
#include "verify/fault_injection.h"

namespace spnet {
namespace core {

using gpusim::KernelDesc;
using gpusim::Phase;
using gpusim::ThreadBlockDesc;
using sparse::CscMatrix;
using sparse::CsrMatrix;
using sparse::Index;
using sparse::Offset;
using sparse::SpanView;
using sparse::Value;
using spgemm::kElementBytes;
using spgemm::MakePairBlock;
using spgemm::PairBlockParams;
using spgemm::SpGemmPlan;
using spgemm::Workload;

namespace {

/// One combined (gathered) block's descriptor: micro-blocks share the
/// block's warps; lanes of a warp belong to 32/micro_threads different
/// pairs, so the warp's lock-step iteration count is the longest member's
/// column length.
ThreadBlockDesc MakeGatheredBlock(const Workload& workload,
                                  const CombinedBlock& block,
                                  int block_size) {
  ThreadBlockDesc tb;
  const int64_t lanes =
      static_cast<int64_t>(block.pairs.size()) * block.micro_threads;
  tb.threads = static_cast<int>(
      std::min<int64_t>(block_size, std::max<int64_t>(32, NextPow2(lanes))));
  tb.gathered_partitions = static_cast<int>(block.pairs.size());

  const int micro_per_warp = std::max(1, 32 / block.micro_threads);
  int64_t effective = 0;
  int64_t useful = 0;
  int64_t warp_issue = 0;
  int64_t crit = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  for (size_t w = 0; w < block.pairs.size();
       w += static_cast<size_t>(micro_per_warp)) {
    const size_t w_end =
        std::min(block.pairs.size(), w + static_cast<size_t>(micro_per_warp));
    int64_t warp_max = 0;
    for (size_t k = w; k < w_end; ++k) {
      const size_t pair = static_cast<size_t>(block.pairs[k]);
      const int64_t col = workload.a_col_nnz[pair];
      const int64_t row = workload.b_row_nnz[pair];
      warp_max = std::max(warp_max, col);
      effective += row;
      useful += col * row;
      bytes_read += kElementBytes * (col + row);
      bytes_written += kElementBytes * col * row;
    }
    warp_issue += warp_max;
    crit = std::max(crit, warp_max);
  }
  tb.effective_threads =
      static_cast<int>(std::min<int64_t>(effective, tb.threads));
  tb.crit_ops = crit;
  tb.warp_issue_ops = warp_issue;
  tb.useful_lane_ops = useful;
  tb.bytes_read = bytes_read;
  tb.bytes_written = bytes_written;
  tb.shared_mem_bytes = 1024;
  return tb;
}

/// The device-side pre-process: one pass computing block-wise nnz (pair
/// work) and row-wise nnz of C-hat, one pass binning the pairs.
KernelDesc BuildPreprocessKernel(const Workload& workload, int64_t nnz_a) {
  KernelDesc k;
  k.label = "reorganizer-preprocess";
  k.phase = Phase::kPreprocess;
  const int64_t pairs = static_cast<int64_t>(workload.pair_work.size());
  // One fused pass: count block-wise and row-wise nnz while binning the
  // pairs (a histogram over the CSR pointer arrays).
  spgemm::AppendBalancedStreamingBlocks(&k, nnz_a + pairs,
                                        /*bytes_per_element=*/6,
                                        /*ops_per_element=*/1.5);
  return k;
}

/// The reorder pre-pass: A's rows and B's columns are permuted by the
/// configured strategy. The inner (contraction) dimension is left alone,
/// so the pair set, the per-pair processing order, and every per-entry
/// accumulation order are unchanged — output values stay bit-identical to
/// the unpermuted baseline once the inverse permutations are applied.
struct ReorderedInputs {
  sparse::Permutation rows;  ///< applied to a's rows
  sparse::Permutation cols;  ///< applied to b's columns
  CsrMatrix a;
  CsrMatrix b;
};

Result<ReorderedInputs> BuildReorderedInputs(const CsrMatrix& a,
                                             const CsrMatrix& b,
                                             sparse::ReorderStrategy strategy,
                                             spgemm::ExecContext* ctx) {
  metrics::ScopedSpan span(spgemm::TraceOf(ctx), "reorder");
  ReorderedInputs out;
  SPNET_ASSIGN_OR_RETURN(out.rows, sparse::BuildRowPermutation(a, strategy));
  SPNET_ASSIGN_OR_RETURN(out.cols, sparse::BuildColPermutation(b, strategy));
  SPNET_ASSIGN_OR_RETURN(out.a, out.rows.ApplyToRows(a));
  SPNET_ASSIGN_OR_RETURN(out.b, out.cols.ApplyToCols(b));
  spgemm::AddCounter(ctx, "reorder.applied", 1);
  return out;
}

}  // namespace

spgemm::EstimatorOptions EstimatorFromConfig(const ReorganizerConfig& config) {
  spgemm::EstimatorOptions options;
  options.sample_fraction = config.estimator_sample_fraction;
  return options;
}

BlockReorganizerSpGemm::Prepared BlockReorganizerSpGemm::PrepareWorkload(
    const CsrMatrix& a, const CsrMatrix& b, spgemm::ExecContext* ctx) const {
  Prepared prep;
  if (config_.planning_tier != PlanningTier::kExact) {
    spgemm::EstimatedWorkload est =
        spgemm::BuildWorkloadEstimated(a, b, EstimatorFromConfig(config_), ctx);
    prep.classes = ClassifyEstimated(&est, a, b, config_, ctx);
    prep.confidence = est.confidence;
    if (config_.planning_tier == PlanningTier::kEstimated ||
        prep.confidence >= config_.min_plan_confidence) {
      prep.workload = std::move(est.workload);
      return prep;
    }
    // kAuto below the confidence floor: rebuild exactly.
    spgemm::AddCounter(ctx, "reorganizer.tier_fallback_exact", 1);
  }
  prep.workload = [&] {
    metrics::ScopedSpan span(spgemm::TraceOf(ctx), "build-workload");
    return spgemm::BuildWorkload(a, b, ctx);
  }();
  prep.classes = Classify(prep.workload, config_, ctx);
  prep.confidence = 1.0;
  return prep;
}

Classification BlockReorganizerSpGemm::ClassifyTiered(
    const CsrMatrix& a, const CsrMatrix& b, const Workload& exact,
    spgemm::ExecContext* ctx) const {
  if (config_.planning_tier != PlanningTier::kExact) {
    spgemm::EstimatedWorkload est =
        spgemm::BuildWorkloadEstimated(a, b, EstimatorFromConfig(config_), ctx);
    Classification classes = ClassifyEstimated(&est, a, b, config_, ctx);
    if (config_.planning_tier == PlanningTier::kEstimated ||
        est.confidence >= config_.min_plan_confidence) {
      return classes;
    }
  }
  return Classify(exact, config_, ctx);
}

SpGemmPlan BlockReorganizerSpGemm::BuildPlanKernels(
    const Workload& workload, const Classification& classes,
    const gpusim::DeviceSpec& device, int64_t nnz_a,
    spgemm::ExecContext* ctx) const {
  SpGemmPlan plan;
  plan.flops = workload.flops;
  plan.output_nnz = workload.output_nnz;

  plan.kernels.push_back(BuildPreprocessKernel(workload, nnz_a));

  // --- Expansion: dominator kernel (split or not). --------------------------
  KernelDesc dominators;
  dominators.label = "expansion-dominators";
  dominators.phase = Phase::kExpansion;
  int64_t copied_elements = 0;
  if (config_.enable_splitting && !classes.dominators.empty()) {
    const SplitPlan split =
        BuildSplitPlan(workload, classes.dominators, config_, device, ctx);
    copied_elements = split.copied_elements;
    for (const SplitVector& v : split.vectors) {
      const size_t pair = static_cast<size_t>(v.pair);
      const int64_t row_nnz = workload.b_row_nnz[pair];
      const int64_t row_bytes = kElementBytes * row_nnz;
      for (int f = 0; f < v.factor; ++f) {
        const int64_t frag_cols = v.offsets[static_cast<size_t>(f) + 1] -
                                  v.offsets[static_cast<size_t>(f)];
        if (frag_cols <= 0) continue;
        PairBlockParams p;
        p.col_nnz = frag_cols;
        p.row_nnz = row_nnz;
        p.block_size = config_.block_size;
        // All fragments after the first re-read a row vector that a
        // sibling already pulled through the L2.
        p.shared_read_bytes = f == 0 ? 0 : row_bytes;
        dominators.blocks.push_back(MakePairBlock(p));
      }
    }
  } else {
    for (Index pair : classes.dominators) {
      PairBlockParams p;
      p.col_nnz = workload.a_col_nnz[static_cast<size_t>(pair)];
      p.row_nnz = workload.b_row_nnz[static_cast<size_t>(pair)];
      p.block_size = config_.block_size;
      dominators.blocks.push_back(MakePairBlock(p));
    }
  }
  if (!dominators.blocks.empty()) {
    plan.kernels.push_back(std::move(dominators));
  }

  // --- Expansion: normal + gathered kernel. ---------------------------------
  KernelDesc expansion;
  expansion.label = "expansion-main";
  expansion.phase = Phase::kExpansion;
  expansion.flops = workload.flops;
  for (Index pair : classes.normals) {
    PairBlockParams p;
    p.col_nnz = workload.a_col_nnz[static_cast<size_t>(pair)];
    p.row_nnz = workload.b_row_nnz[static_cast<size_t>(pair)];
    p.block_size = config_.block_size;
    expansion.blocks.push_back(MakePairBlock(p));
  }
  if (config_.enable_gathering && !classes.low_performers.empty()) {
    const GatherPlan gather =
        BuildGatherPlan(workload, classes.low_performers, config_, ctx);
    for (const CombinedBlock& block : gather.blocks) {
      expansion.blocks.push_back(
          MakeGatheredBlock(workload, block, config_.block_size));
    }
    for (Index pair : gather.ungathered) {
      PairBlockParams p;
      p.col_nnz = workload.a_col_nnz[static_cast<size_t>(pair)];
      p.row_nnz = workload.b_row_nnz[static_cast<size_t>(pair)];
      p.block_size = config_.block_size;
      expansion.blocks.push_back(MakePairBlock(p));
    }
  } else {
    for (Index pair : classes.low_performers) {
      PairBlockParams p;
      p.col_nnz = workload.a_col_nnz[static_cast<size_t>(pair)];
      p.row_nnz = workload.b_row_nnz[static_cast<size_t>(pair)];
      p.block_size = config_.block_size;
      expansion.blocks.push_back(MakePairBlock(p));
    }
  }
  if (!expansion.blocks.empty()) {
    plan.kernels.push_back(std::move(expansion));
  }

  // --- Merge with B-Limiting. ------------------------------------------------
  const spgemm::MergeOptions merge =
      MakeLimitedMergeOptions(classes, config_, ctx);
  for (KernelDesc& k : spgemm::BuildMergeKernels(workload, merge)) {
    plan.kernels.push_back(std::move(k));
  }

  plan.host_seconds = spgemm::HostPreprocessSeconds(
      static_cast<int64_t>(workload.pair_work.size()), copied_elements);
  return plan;
}

Result<SpGemmPlan> BlockReorganizerSpGemm::PlanImpl(
    const CsrMatrix& a, const CsrMatrix& b, const gpusim::DeviceSpec& device,
    spgemm::ExecContext* ctx) const {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(
        "dimension mismatch in Block Reorganizer plan");
  }
  if (config_.reorder != sparse::ReorderStrategy::kNone) {
    SPNET_ASSIGN_OR_RETURN(const ReorderedInputs reordered,
                           BuildReorderedInputs(a, b, config_.reorder, ctx));
    const Prepared prep = PrepareWorkload(reordered.a, reordered.b, ctx);
    SpGemmPlan plan = BuildPlanKernels(prep.workload, prep.classes, device,
                                       reordered.a.nnz(), ctx);
    plan.confidence = prep.confidence;
    return plan;
  }
  const Prepared prep = PrepareWorkload(a, b, ctx);
  SpGemmPlan plan =
      BuildPlanKernels(prep.workload, prep.classes, device, a.nnz(), ctx);
  plan.confidence = prep.confidence;
  return plan;
}

Result<CsrMatrix> BlockReorganizerSpGemm::ComputeImpl(
    const CsrMatrix& a, const CsrMatrix& b, spgemm::ExecContext* ctx) const {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(
        "dimension mismatch in Block Reorganizer compute");
  }
  if (config_.reorder == sparse::ReorderStrategy::kNone) {
    return ComputeCore(a, b, ctx);
  }
  SPNET_ASSIGN_OR_RETURN(const ReorderedInputs reordered,
                         BuildReorderedInputs(a, b, config_.reorder, ctx));
  SPNET_ASSIGN_OR_RETURN(const CsrMatrix permuted,
                         ComputeCore(reordered.a, reordered.b, ctx));
  // Invert the pre-pass: permuted row i holds original row rows.OldOf(i)
  // and permuted column j is original column cols.OldOf(j). Values are
  // moved, never recombined, so the restored matrix matches the
  // unpermuted baseline bit for bit (within-row order aside).
  SPNET_ASSIGN_OR_RETURN(const CsrMatrix rows_restored,
                         reordered.rows.Inverse().ApplyToRows(permuted));
  return reordered.cols.Inverse().ApplyToCols(rows_restored);
}

Result<CsrMatrix> BlockReorganizerSpGemm::ComputeCore(
    const CsrMatrix& a, const CsrMatrix& b, spgemm::ExecContext* ctx) const {
  // The exact workload always backs execution: relocation cursors and
  // expansion ranges index real buffers, so an estimate must never size
  // them. The planning tier only chooses where the *classes* come from —
  // scheduling fidelity with the estimated plan, at zero correctness risk
  // (an estimated class can reorder expansion, never drop a product:
  // every pair with work is provably inside some bin, see
  // ClassifyEstimated).
  const Workload workload = [&] {
    metrics::ScopedSpan span(spgemm::TraceOf(ctx), "build-workload");
    return spgemm::BuildWorkload(a, b, ctx);
  }();
  const Classification classes = ClassifyTiered(a, b, workload, ctx);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  const SplitPlan split =
      config_.enable_splitting
          ? BuildSplitPlan(workload, classes.dominators, config_, device, ctx)
          : SplitPlan{};

  metrics::TraceRecorder* trace = spgemm::TraceOf(ctx);
  const int expand_span = trace == nullptr ? -1 : trace->Begin("expand");

  // Relocation cursors from the precalculated row-wise C-hat sizes.
  const Index rows = a.rows();
  const Index cols = b.cols();
  std::vector<Offset> chat_ptr(static_cast<size_t>(rows) + 1, 0);
  for (Index r = 0; r < rows; ++r) {
    chat_ptr[static_cast<size_t>(r) + 1] =
        SatAddI64(chat_ptr[static_cast<size_t>(r)],
                  workload.row_chat[static_cast<size_t>(r)]);
  }
  const Offset total = chat_ptr[static_cast<size_t>(rows)];
  // The Ĉ buffers are the largest transient allocation in the pipeline;
  // a fault here models expansion-phase OOM on the device.
  SPNET_RETURN_IF_ERROR(verify::MaybeInjectFault(verify::kSiteChatAlloc));
  std::vector<Index> chat_cols(static_cast<size_t>(total));
  std::vector<Value> chat_vals(static_cast<size_t>(total));
  std::vector<Offset> cursor(chat_ptr.begin(), chat_ptr.end() - 1);

  const CscMatrix a_csc = CscMatrix::FromCsr(a);
  auto expand_pair_range = [&](Index pair, int64_t col_begin,
                               int64_t col_end) {
    const SpanView acol = a_csc.Col(pair);
    const SpanView brow = b.Row(pair);
    for (int64_t k = col_begin; k < col_end; ++k) {
      const Index r = acol.indices[k];
      const Value av = acol.values[k];
      Offset& cur = cursor[static_cast<size_t>(r)];
      for (Offset l = 0; l < brow.size; ++l) {
        chat_cols[static_cast<size_t>(cur)] = brow.indices[l];
        chat_vals[static_cast<size_t>(cur)] = av * brow.values[l];
        ++cur;
      }
    }
  };

  // Dominators run through the split fragments via the mapper array —
  // exactly what the GPU kernels dispatch — so the pointer-expansion
  // transformation is exercised end to end.
  if (config_.enable_splitting) {
    const std::vector<Index> mapper = split.BuildMapper();
    size_t fragment = 0;
    for (const SplitVector& v : split.vectors) {
      for (int f = 0; f < v.factor; ++f, ++fragment) {
        const Index pair = mapper[fragment];
        expand_pair_range(pair, v.offsets[static_cast<size_t>(f)],
                          v.offsets[static_cast<size_t>(f) + 1]);
      }
    }
  } else {
    for (Index pair : classes.dominators) {
      expand_pair_range(pair, 0,
                        workload.a_col_nnz[static_cast<size_t>(pair)]);
    }
  }
  for (Index pair : classes.normals) {
    expand_pair_range(pair, 0, workload.a_col_nnz[static_cast<size_t>(pair)]);
  }
  // Gathered blocks change scheduling, not results; iterate in gather
  // order when enabled to mirror dispatch order.
  if (config_.enable_gathering) {
    const GatherPlan gather =
        BuildGatherPlan(workload, classes.low_performers, config_, ctx);
    for (const CombinedBlock& block : gather.blocks) {
      for (Index pair : block.pairs) {
        expand_pair_range(pair, 0,
                          workload.a_col_nnz[static_cast<size_t>(pair)]);
      }
    }
    for (Index pair : gather.ungathered) {
      expand_pair_range(pair, 0,
                        workload.a_col_nnz[static_cast<size_t>(pair)]);
    }
  } else {
    for (Index pair : classes.low_performers) {
      expand_pair_range(pair, 0,
                        workload.a_col_nnz[static_cast<size_t>(pair)]);
    }
  }
  if (trace != nullptr) trace->End(expand_span);
  spgemm::AddCounter(ctx, "expand.products", static_cast<int64_t>(total));
  // The merge reads every row's full C-hat region, so the dispatch order
  // must have filled each one exactly.
  for (Index r = 0; r < rows; ++r) {
    if (cursor[static_cast<size_t>(r)] != chat_ptr[static_cast<size_t>(r) + 1]) {
      return Status::Internal("expansion left C-hat row " + std::to_string(r) +
                              " partly filled");
    }
  }
  const int merge_span = trace == nullptr ? -1 : trace->Begin("merge");
  Result<CsrMatrix> c =
      spgemm::MergeChatInPlace(rows, cols, std::move(chat_ptr),
                               std::move(chat_cols), std::move(chat_vals));
  if (trace != nullptr) trace->End(merge_span);
  if (c.ok()) spgemm::AddCounter(ctx, "merge.output_nnz", c->nnz());
  return c;
}

Result<ReorganizerReport> BlockReorganizerSpGemm::Analyze(
    const CsrMatrix& a, const CsrMatrix& b, const gpusim::DeviceSpec& device,
    spgemm::ExecContext* ctx) const {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("dimension mismatch in Analyze");
  }
  metrics::ScopedSpan span(spgemm::TraceOf(ctx), "analyze:" + name());
  Prepared prep;
  if (config_.reorder != sparse::ReorderStrategy::kNone) {
    SPNET_ASSIGN_OR_RETURN(const ReorderedInputs reordered,
                           BuildReorderedInputs(a, b, config_.reorder, ctx));
    prep = PrepareWorkload(reordered.a, reordered.b, ctx);
  } else {
    prep = PrepareWorkload(a, b, ctx);
  }
  const Workload& workload = prep.workload;
  const Classification& classes = prep.classes;

  ReorganizerReport report;
  report.dominators = static_cast<int64_t>(classes.dominators.size());
  report.low_performers = static_cast<int64_t>(classes.low_performers.size());
  report.normals = static_cast<int64_t>(classes.normals.size());
  report.nonzero_pairs =
      report.dominators + report.low_performers + report.normals;
  report.limited_rows = static_cast<int64_t>(classes.limited_rows.size());
  report.dominator_threshold = classes.dominator_threshold;
  report.limit_row_threshold = classes.limit_row_threshold;

  if (config_.enable_splitting) {
    const SplitPlan split =
        BuildSplitPlan(workload, classes.dominators, config_, device, ctx);
    report.fragments = split.total_fragments;
  }
  if (config_.enable_gathering) {
    const GatherPlan gather =
        BuildGatherPlan(workload, classes.low_performers, config_, ctx);
    report.combined_blocks = static_cast<int64_t>(gather.blocks.size());
    report.gathered_pairs = gather.gathered_pairs;
  }
  return report;
}

Result<std::unique_ptr<spgemm::SpGemmAlgorithm>> MakeBlockReorganizer(
    ReorganizerConfig config, std::string display_name) {
  SPNET_RETURN_IF_ERROR(config.Validate());
  return {std::make_unique<BlockReorganizerSpGemm>(config,
                                                   std::move(display_name))};
}

void RegisterCoreAlgorithms() {
  static const bool registered = [] {
    auto& registry = spgemm::AlgorithmRegistry::Global();
    auto add = [&registry](const std::string& name, ReorganizerConfig config,
                           const std::string& display_name) {
      const Status s = registry.Register(name, [config, display_name] {
        return MakeBlockReorganizer(config, display_name);
      });
      (void)s;  // only AlreadyExists, and this block runs once
    };
    add("reorganizer", {}, "");

    ReorganizerConfig limiting_only;
    limiting_only.enable_splitting = false;
    limiting_only.enable_gathering = false;
    add("reorganizer-limiting", limiting_only, "B-Limiting");

    ReorganizerConfig splitting_only;
    splitting_only.enable_gathering = false;
    splitting_only.enable_limiting = false;
    add("reorganizer-splitting", splitting_only, "B-Splitting");

    ReorganizerConfig gathering_only;
    gathering_only.enable_splitting = false;
    gathering_only.enable_limiting = false;
    add("reorganizer-gathering", gathering_only, "B-Gathering");

    // Full reorganizer planned from the sampled estimation tier; the
    // differential sweep covers it like any other registered algorithm,
    // proving the estimated classes never change results.
    ReorganizerConfig estimated;
    estimated.planning_tier = PlanningTier::kEstimated;
    add("reorganizer-estimated", estimated, "Estimated-Planning");

    // Full reorganizer behind each reordering pre-pass; the differential
    // sweep covers every strategy against the reference, proving the
    // permute/invert round trip never changes results.
    ReorganizerConfig reorder_degree;
    reorder_degree.reorder = sparse::ReorderStrategy::kDegree;
    add("reorganizer-reorder-degree", reorder_degree, "Reorder-Degree");

    ReorganizerConfig reorder_rcm;
    reorder_rcm.reorder = sparse::ReorderStrategy::kRcm;
    add("reorganizer-reorder-rcm", reorder_rcm, "Reorder-RCM");

    ReorganizerConfig reorder_cluster;
    reorder_cluster.reorder = sparse::ReorderStrategy::kCluster;
    add("reorganizer-reorder-cluster", reorder_cluster, "Reorder-Cluster");
    return true;
  }();
  (void)registered;
}

}  // namespace core
}  // namespace spnet
