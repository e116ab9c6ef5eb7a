#ifndef SPNET_CORE_BLOCK_REORGANIZER_H_
#define SPNET_CORE_BLOCK_REORGANIZER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/b_gathering.h"
#include "core/b_splitting.h"
#include "core/reorganizer_config.h"
#include "core/workload_classifier.h"
#include "spgemm/algorithm.h"

namespace spnet {
namespace core {

/// Summary of one Block Reorganizer pre-process, matching the numbers the
/// paper walks through for YouTube in Section IV-E (713 dominators,
/// 362,736 low performers, 12,657 limited rows, ...).
struct ReorganizerReport {
  int64_t nonzero_pairs = 0;
  int64_t dominators = 0;
  int64_t low_performers = 0;
  int64_t normals = 0;
  int64_t limited_rows = 0;
  int64_t fragments = 0;        ///< expansion blocks created by B-Splitting
  int64_t combined_blocks = 0;  ///< blocks created by B-Gathering
  int64_t gathered_pairs = 0;   ///< micro-blocks packed into them
  int64_t dominator_threshold = 0;
  int64_t limit_row_threshold = 0;
};

/// The paper's contribution: outer-product spGEMM with the Block
/// Reorganizer optimization pass (workload classification + B-Splitting +
/// B-Gathering for expansion, B-Limiting for merge). Each technique can be
/// toggled via ReorganizerConfig for the Figure 10 ablation.
class BlockReorganizerSpGemm : public spgemm::SpGemmAlgorithm {
 public:
  explicit BlockReorganizerSpGemm(ReorganizerConfig config = {},
                                  std::string display_name = "")
      : config_(config), name_(std::move(display_name)) {}

  std::string name() const override {
    return name_.empty() ? "Block-Reorganizer" : name_;
  }

  const ReorganizerConfig& config() const { return config_; }

  /// The immutable product of the pre-process. It refers to the workload
  /// it was prepared from, which must outlive it.
  struct Prepared {
    const spgemm::Workload& workload;
    Classification classes;
    /// Built when splitting is enabled, dominators exist and Prepare was
    /// given a device.
    std::optional<SplitPlan> split = std::nullopt;
    /// Built when gathering is enabled and low performers exist.
    std::optional<GatherPlan> gather = std::nullopt;
  };

  /// The paper's one pre-process pass over the operands' workload, shared
  /// by Plan, Analyze and Compute: the bins, and the split and gather
  /// plans of non-empty bins. The split plan is sized for `device`.
  /// Compute passes no device and gets no split plan: a dominator's
  /// fragments are dispatched consecutively, in dominator order, so
  /// FirstDispatchOrder is the same without it.
  Prepared Prepare(const spgemm::Workload& workload,
                   const gpusim::DeviceSpec* device,
                   spgemm::ExecContext* ctx = nullptr) const;
  /// A prepared product of a temporary workload would dangle.
  Prepared Prepare(spgemm::Workload&& workload,
                   const gpusim::DeviceSpec* device,
                   spgemm::ExecContext* ctx = nullptr) const = delete;

  /// Runs only the pre-process and reports the bin populations.
  Result<ReorganizerReport> Analyze(const sparse::CsrMatrix& a,
                                    const sparse::CsrMatrix& b,
                                    const gpusim::DeviceSpec& device,
                                    spgemm::ExecContext* ctx = nullptr) const;

 protected:
  Result<spgemm::SpGemmPlan> PlanImpl(const spgemm::Workload& workload,
                                      const gpusim::DeviceSpec& device,
                                      spgemm::ExecContext* ctx) const override;

  /// Host execution in the prepared dispatch order: pairs are ranked by
  /// their first dispatch position, each row of a copy of A lists its
  /// entries in that rank order (keeping A's column labels), and the
  /// shared row kernel multiplies the copy with B. Each output row then
  /// sums its products in the order the GPU blocks produce them, so the
  /// output bits are those of the dispatch order. Internal if the order
  /// leaves a row of the copy incomplete.
  Result<sparse::CsrMatrix> ComputeImpl(const sparse::CsrMatrix& a,
                                        const sparse::CsrMatrix& b,
                                        spgemm::ExecContext* ctx) const override;

 private:
  ReorganizerConfig config_;
  std::string name_;
};

/// The reorganizer's two expansion kernels, in launch order.
enum class ExpansionKernel { kDominators, kMain };

/// One expansion thread block, as WalkExpansion dispatches it.
struct ExpansionBlock {
  ExpansionKernel kernel = ExpansionKernel::kMain;
  /// The block's one pair, or a gathered block's micro-blocks.
  std::span<const sparse::Index> pairs;
  /// A gathered block's lane quota per micro-block (2^n); 0 for a
  /// one-pair block.
  int micro_threads = 0;
  /// A one-pair block multiplies the elements [col_begin, col_end) of its
  /// pair's A column with the whole B row: a split fragment's range, or
  /// the whole column.
  int64_t col_begin = 0;
  int64_t col_end = 0;
  /// False only for a split fragment after its pair's first.
  bool first_fragment = true;
};

/// The expansion dispatch order, spelled out once: split dominator
/// fragments in mapper order (or whole dominators when unsplit), then
/// normals, then gathered blocks, then ungathered pairs (or every low
/// performer when ungathered). Calls `visit(const ExpansionBlock&)` once
/// per block, in that order. Plan turns each call into a thread block;
/// Compute ranks pairs by their first appearance (FirstDispatchOrder).
template <typename Visit>
void WalkExpansion(const BlockReorganizerSpGemm::Prepared& prep,
                   Visit&& visit) {
  using sparse::Index;
  auto whole = [&](ExpansionKernel kernel, const Index& pair) {
    visit(ExpansionBlock{
        .kernel = kernel,
        .pairs = {&pair, 1},
        .col_end = prep.workload.a_col_nnz[static_cast<size_t>(pair)]});
  };
  if (prep.split) {
    const SplitPlan& split = *prep.split;
    for (size_t f = 0; f < split.mapper.size(); ++f) {
      visit(ExpansionBlock{
          .kernel = ExpansionKernel::kDominators,
          .pairs = {&split.mapper[f], 1},
          .col_begin = split.col_begin[f],
          .col_end = split.col_end[f],
          .first_fragment = f == 0 || split.mapper[f - 1] != split.mapper[f]});
    }
  } else {
    for (const Index& pair : prep.classes.dominators) {
      whole(ExpansionKernel::kDominators, pair);
    }
  }
  for (const Index& pair : prep.classes.normals) {
    whole(ExpansionKernel::kMain, pair);
  }
  if (prep.gather) {
    const GatherPlan& gather = *prep.gather;
    for (size_t i = 0; i < gather.num_blocks(); ++i) {
      visit(ExpansionBlock{.kernel = ExpansionKernel::kMain,
                           .pairs = gather.block_pairs(i),
                           .micro_threads = gather.micro_threads[i]});
    }
    for (const Index& pair : gather.ungathered) {
      whole(ExpansionKernel::kMain, pair);
    }
  } else {
    for (const Index& pair : prep.classes.low_performers) {
      whole(ExpansionKernel::kMain, pair);
    }
  }
}

/// Every pair ranked by its first appearance in WalkExpansion, then the
/// zero-work pairs no bin holds, in index order: a permutation of
/// [0, pairs). Compute orders each row of A by it.
std::vector<sparse::Index> FirstDispatchOrder(
    const BlockReorganizerSpGemm::Prepared& prep);

/// Convenience factory used by the benchmark suite and the CLI. Validates
/// `config` first (see ReorganizerConfig::Validate) and refuses to build
/// an algorithm around nonsense knobs.
Result<std::unique_ptr<spgemm::SpGemmAlgorithm>> MakeBlockReorganizer(
    ReorganizerConfig config = {}, std::string display_name = "");

/// Registers the Block Reorganizer family ("reorganizer" plus the
/// single-technique ablation variants "reorganizer-limiting",
/// "reorganizer-splitting" and "reorganizer-gathering") in
/// spgemm::AlgorithmRegistry::Global(). Idempotent; call before querying
/// the registry for core-layer algorithms.
void RegisterCoreAlgorithms();

}  // namespace core
}  // namespace spnet

#endif  // SPNET_CORE_BLOCK_REORGANIZER_H_
