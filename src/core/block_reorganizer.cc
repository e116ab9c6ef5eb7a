#include "core/block_reorganizer.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "core/b_limiting.h"
#include "spgemm/algorithm_registry.h"
#include "spgemm/exec_context.h"
#include "spgemm/functional.h"
#include "spgemm/plan.h"
#include "verify/fault_injection.h"

namespace spnet {
namespace core {

using gpusim::KernelDesc;
using gpusim::Phase;
using gpusim::ThreadBlockDesc;
using sparse::CsrMatrix;
using sparse::Index;
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
                                  std::span<const Index> pairs,
                                  int micro_threads, int block_size) {
  ThreadBlockDesc tb;
  const int64_t lanes = static_cast<int64_t>(pairs.size()) * micro_threads;
  tb.threads = static_cast<int>(
      std::min<int64_t>(block_size, std::max<int64_t>(32, NextPow2(lanes))));

  const int micro_per_warp = std::max(1, 32 / micro_threads);
  int64_t effective = 0;
  int64_t useful = 0;
  int64_t warp_issue = 0;
  int64_t crit = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  for (size_t w = 0; w < pairs.size();
       w += static_cast<size_t>(micro_per_warp)) {
    const size_t w_end =
        std::min(pairs.size(), w + static_cast<size_t>(micro_per_warp));
    int64_t warp_max = 0;
    for (size_t k = w; k < w_end; ++k) {
      const size_t pair = static_cast<size_t>(pairs[k]);
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
KernelDesc BuildPreprocessKernel(const Workload& workload) {
  KernelDesc k;
  k.label = "reorganizer-preprocess";
  k.phase = Phase::kPreprocess;
  const int64_t pairs = static_cast<int64_t>(workload.pair_work.size());
  // Every nonzero of A lies in one column.
  const int64_t nnz_a = std::accumulate(workload.a_col_nnz.begin(),
                                        workload.a_col_nnz.end(), int64_t{0});
  // One fused pass: count block-wise and row-wise nnz while binning the
  // pairs (a histogram over the CSR pointer arrays).
  spgemm::AppendBalancedStreamingBlocks(&k, nnz_a + pairs,
                                        /*bytes_per_element=*/6,
                                        /*ops_per_element=*/1.5,
                                        /*shared_mem_bytes=*/4096);
  return k;
}

}  // namespace

BlockReorganizerSpGemm::Prepared BlockReorganizerSpGemm::Prepare(
    const Workload& workload, const gpusim::DeviceSpec* device,
    spgemm::ExecContext* ctx) const {
  Prepared prep{.workload = workload,
                .classes = Classify(workload, config_, ctx)};
  if (device != nullptr && config_.enable_splitting &&
      !prep.classes.dominators.empty()) {
    prep.split = BuildSplitPlan(workload, prep.classes.dominators, config_,
                                *device, ctx);
  }
  if (config_.enable_gathering && !prep.classes.low_performers.empty()) {
    prep.gather = BuildGatherPlan(workload, prep.classes.low_performers,
                                  config_, ctx);
  }
  return prep;
}

Result<SpGemmPlan> BlockReorganizerSpGemm::PlanImpl(
    const Workload& workload, const gpusim::DeviceSpec& device,
    spgemm::ExecContext* ctx) const {
  const Prepared prep = Prepare(workload, &device, ctx);

  SpGemmPlan plan;
  plan.kernels.push_back(BuildPreprocessKernel(workload));

  // --- Expansion: the dominator kernel, then normal + gathered. -------------
  KernelDesc dominators;
  dominators.label = "expansion-dominators";
  dominators.phase = Phase::kExpansion;
  KernelDesc expansion;
  expansion.label = "expansion-main";
  expansion.phase = Phase::kExpansion;
  expansion.flops = workload.flops;
  // Size both kernels exactly: cached plans keep any spare capacity.
  size_t dominator_blocks = 0;
  size_t main_blocks = 0;
  WalkExpansion(prep, [&](const ExpansionBlock& block) {
    ++(block.kernel == ExpansionKernel::kDominators ? dominator_blocks
                                                    : main_blocks);
  });
  dominators.blocks.reserve(dominator_blocks);
  expansion.blocks.reserve(main_blocks);
  WalkExpansion(prep, [&](const ExpansionBlock& block) {
    KernelDesc& kernel = block.kernel == ExpansionKernel::kDominators
                             ? dominators
                             : expansion;
    if (block.micro_threads > 0) {
      kernel.blocks.push_back(MakeGatheredBlock(
          workload, block.pairs, block.micro_threads, config_.block_size));
      return;
    }
    PairBlockParams p;
    p.col_nnz = block.col_end - block.col_begin;
    p.row_nnz = workload.b_row_nnz[static_cast<size_t>(block.pairs.front())];
    p.block_size = config_.block_size;
    // All fragments after the first re-read a row vector that a sibling
    // already pulled through the L2.
    p.shared_read_bytes = block.first_fragment ? 0 : kElementBytes * p.row_nnz;
    kernel.blocks.push_back(MakePairBlock(p));
  });
  if (!dominators.blocks.empty()) {
    plan.kernels.push_back(std::move(dominators));
  }
  if (!expansion.blocks.empty()) {
    plan.kernels.push_back(std::move(expansion));
  }

  // --- Merge with B-Limiting. ------------------------------------------------
  spgemm::AppendMergeKernels(
      workload, MakeLimitedMergeOptions(prep.classes, config_, ctx),
      &plan.kernels);

  plan.host_seconds = spgemm::HostPreprocessSeconds(
      static_cast<int64_t>(workload.pair_work.size()),
      prep.split ? prep.split->copied_elements : 0);
  return plan;
}

Result<CsrMatrix> BlockReorganizerSpGemm::ComputeImpl(
    const CsrMatrix& a, const CsrMatrix& b, spgemm::ExecContext* ctx) const {
  // The prepared product only orders the expansion, and it reads only the
  // pair side. Compute has no device and needs no split plan: a split
  // dominator's fragments are dispatched consecutively, in the order an
  // unsplit walk visits the whole dominators.
  const Workload workload = spgemm::BuildWorkload(a, b, ctx);
  const Prepared prep = Prepare(workload, nullptr, ctx);

  // Each output row receives a pair's products when that pair's block (or
  // its first split fragment: fragments of one column are consecutive and
  // cover disjoint rows) is dispatched. A copy of A whose rows list their
  // entries by the first dispatch rank of their column makes the row
  // kernel visit every row's pairs in that order, so the sums are the ones
  // the GPU merge computes. Walking A's columns (the rows of A^T) in rank
  // order and appending each entry to its row builds that copy; the
  // entries keep A's column labels, so B is used as it is. Pairs no bin
  // holds have no products; FirstDispatchOrder lists them last.
  CsrMatrix ordered_a;
  {
    metrics::ScopedSpan span(spgemm::TraceOf(ctx), "relabel");
    const CsrMatrix at = a.Transpose();
    std::vector<sparse::Offset> cursor(a.ptr().begin(), a.ptr().end() - 1);
    sparse::IndexArray indices(static_cast<size_t>(a.nnz()));
    sparse::ValueArray values(static_cast<size_t>(a.nnz()));
    for (const Index col : FirstDispatchOrder(prep)) {
      const sparse::SpanView entries = at.Row(col);
      for (sparse::Offset k = 0; k < entries.size; ++k) {
        const auto row = static_cast<size_t>(entries.indices[k]);
        const auto slot = static_cast<size_t>(cursor[row]++);
        indices[slot] = col;
        values[slot] = entries.values[k];
      }
    }
    for (size_t r = 0; r < cursor.size(); ++r) {
      if (cursor[r] != a.ptr()[r + 1]) {
        std::string message = "dispatch order leaves row ";
        message += std::to_string(r);
        message += " of A incomplete";
        return Status::Internal(message);
      }
    }
    SPNET_ASSIGN_OR_RETURN(
        ordered_a, CsrMatrix::FromParts(a.rows(), a.cols(), a.ptr(),
                                        std::move(indices), std::move(values)));
  }

  // The output is the largest allocation left on the host path; a fault
  // here models output-allocation OOM.
  SPNET_RETURN_IF_ERROR(verify::MaybeInjectFault(verify::kSiteChatAlloc));
  Result<CsrMatrix> c = [&] {
    metrics::ScopedSpan span(spgemm::TraceOf(ctx), "expand");
    return spgemm::RowProductExpandMerge(ordered_a, b);
  }();
  if (!c.ok()) return c;
  spgemm::AddCounter(ctx, "expand.products", workload.flops);
  spgemm::AddCounter(ctx, "merge.output_nnz", c->nnz());
  return c;
}

Result<ReorganizerReport> BlockReorganizerSpGemm::Analyze(
    const CsrMatrix& a, const CsrMatrix& b, const gpusim::DeviceSpec& device,
    spgemm::ExecContext* ctx) const {
  SPNET_RETURN_IF_ERROR(spgemm::CheckOperands(name(), a, b));
  metrics::ScopedSpan span(spgemm::TraceOf(ctx), "analyze:" + name());
  const Workload workload = spgemm::BuildWorkload(a, b, ctx);
  const Prepared prep = Prepare(workload, &device, ctx);
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
  if (prep.split) {
    report.fragments = static_cast<int64_t>(prep.split->mapper.size());
  }
  if (prep.gather) {
    report.combined_blocks = static_cast<int64_t>(prep.gather->num_blocks());
    report.gathered_pairs = prep.gather->gathered_pairs();
  }
  return report;
}

std::vector<Index> FirstDispatchOrder(
    const BlockReorganizerSpGemm::Prepared& prep) {
  const size_t pairs = prep.workload.pair_work.size();
  std::vector<Index> order;
  order.reserve(pairs);
  std::vector<uint8_t> ranked(pairs, 0);
  auto rank = [&](Index pair) {
    if (ranked[static_cast<size_t>(pair)]) return;
    ranked[static_cast<size_t>(pair)] = 1;
    order.push_back(pair);
  };
  WalkExpansion(prep, [&](const ExpansionBlock& block) {
    for (Index pair : block.pairs) rank(pair);
  });
  for (size_t pair = 0; pair < pairs; ++pair) rank(static_cast<Index>(pair));
  return order;
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

    return true;
  }();
  (void)registered;
}

}  // namespace core
}  // namespace spnet
