#ifndef SPNET_SPGEMM_WORKLOAD_MODEL_H_
#define SPNET_SPGEMM_WORKLOAD_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/math_util.h"
#include "gpusim/kernel_desc.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace spgemm {

struct ExecContext;

/// Precomputed workload view of one A*B multiplication, shared by every
/// algorithm's plan builder. All vectors are indexed by the inner dimension
/// (columns of A == rows of B) or by output row as noted.
struct Workload {
  /// nnz of each column of A (length a.cols()).
  std::vector<int64_t> a_col_nnz;
  /// nnz of each row of B (length b.rows()).
  std::vector<int64_t> b_row_nnz;
  /// Outer-product pair work: a_col_nnz[i] * b_row_nnz[i].
  std::vector<int64_t> pair_work;
  /// Intermediate elements landing in each output row (length a.rows());
  /// equals the row-product expansion work of that row.
  std::vector<int64_t> row_chat;
  /// Estimated nnz of each output row after merging.
  std::vector<int64_t> row_c_est;
  int64_t flops = 0;       ///< total multiplies == nnz(C-hat)
  int64_t output_nnz = 0;  ///< sum of row_c_est
};

/// Builds the workload view inside a `build-workload` span on `ctx`.
/// O(nnz(A) + dims). The output-row nnz is
/// EstimateMergedRowNnz of each row's C-hat population; it only shapes
/// merge timing, never functional results. Requires operands that pass
/// CheckOperands (algorithm.h): A's columns match B's rows, and
/// nnz(A) * max nnz(B row) <= kMaxProducts, which bounds every pair work,
/// row_chat, flops and output_nnz, so the plain int64 sums cannot wrap.
Workload BuildWorkload(const sparse::CsrMatrix& a, const sparse::CsrMatrix& b,
                       ExecContext* ctx = nullptr);

/// The hashing estimator of one merged output row: `chat` intermediate
/// elements over `cols` output columns leave about
/// cols * (1 - e^(-chat / cols)) distinct entries, exact in expectation
/// for independently placed products. Clamped to the hard bounds
/// [1, min(chat, cols)]; 0 when the row or the output is empty.
///
/// Fast path: when chat <= 2^30 and 2 * chat^2 <= cols it returns chat
/// without calling exp. Since 1 - e^(-x) >= x - x^2 / 2, the expected
/// collisions chat - unique are at most chat^2 / (2 * cols) <= 1/4, so
/// the closed form lies in [chat - 1/4, chat] and rounds to chat. Its
/// floating-point error is about cols * 2^-53, far below that margin for
/// any column count a matrix can have (below 2^31), so the fast path
/// returns the closed form's value bit for bit. The 2^30 bound keeps
/// 2 * chat^2 inside int64.
int64_t EstimateMergedRowNnz(int64_t chat, int64_t cols);

/// Output rows split by C-hat population into the three size classes
/// the kernel builders map to thread-, warp- and block-per-row work.
struct RowSizeClasses {
  std::vector<uint32_t> small;  ///< 0 < row_chat <= small_max
  std::vector<uint32_t> mid;    ///< small_max < row_chat <= mid_max
  std::vector<uint32_t> large;  ///< row_chat > mid_max
};

/// Splits the rows of `row_chat` (all non-negative) into size classes,
/// skipping empty rows. Rows keep their order inside each class: the
/// order of `order`, a permutation of the rows, when given, else
/// ascending. Requires small_max <= mid_max.
RowSizeClasses ClassifyRowSizes(const std::vector<int64_t>& row_chat,
                                int64_t small_max, int64_t mid_max,
                                const std::vector<int64_t>* order = nullptr);

/// How WalkRowBlocks lays out one block of rows.
enum class RowBlockKind {
  kThreadPerRow,  ///< up to block_size small rows, one lane each
  kWarpPerRow,    ///< up to block_size / 32 mid rows, one warp each
  kBlockPerRow,   ///< one large row across the whole block
};

/// One block of output rows and its lock-step accounting, in lane ops
/// (one lane op per intermediate element).
struct RowBlock {
  RowBlockKind kind = RowBlockKind::kThreadPerRow;
  std::span<const uint32_t> rows;  ///< the block's rows, in class order
  int threads = 0;
  int effective_threads = 0;
  int64_t crit_ops = 0;        ///< the slowest warp's lane ops
  int64_t warp_issue_ops = 0;  ///< summed over the block's warps
  int64_t chat = 0;            ///< row_chat summed over `rows`
};

/// The one mapping from row size classes to thread blocks, shared by the
/// row-product expansion and the merge kernels. Small rows go
/// thread-per-row, `block_size` rows a block: a lock-step warp waits for
/// its longest lane. Mid rows go warp-per-row, block_size / 32 rows a
/// block: a warp's lanes split its row. Each large row gets a whole
/// block. Calls `visit(const RowBlock&)` once per block in that order;
/// rows keep their class order. Requires block_size a multiple of 32.
template <typename Visit>
void WalkRowBlocks(const std::vector<int64_t>& row_chat,
                   const RowSizeClasses& classes, int block_size,
                   Visit&& visit) {
  const std::span<const uint32_t> small(classes.small);
  for (size_t begin = 0; begin < small.size();
       begin += static_cast<size_t>(block_size)) {
    RowBlock block;
    block.kind = RowBlockKind::kThreadPerRow;
    block.rows = small.subspan(
        begin, std::min<size_t>(static_cast<size_t>(block_size),
                                small.size() - begin));
    block.threads = block_size;
    block.effective_threads = static_cast<int>(block.rows.size());
    for (size_t w0 = 0; w0 < block.rows.size(); w0 += 32) {
      const size_t w1 = std::min(block.rows.size(), w0 + 32);
      int64_t warp_max = 0;
      for (size_t k = w0; k < w1; ++k) {
        const int64_t chat = row_chat[block.rows[k]];
        block.chat += chat;
        warp_max = std::max(warp_max, chat);
      }
      block.warp_issue_ops += warp_max;
      block.crit_ops = std::max(block.crit_ops, warp_max);
    }
    visit(block);
  }

  const std::span<const uint32_t> mid(classes.mid);
  const size_t warps = static_cast<size_t>(block_size) / 32;
  for (size_t begin = 0; begin < mid.size(); begin += warps) {
    RowBlock block;
    block.kind = RowBlockKind::kWarpPerRow;
    block.rows = mid.subspan(begin, std::min(warps, mid.size() - begin));
    block.threads = static_cast<int>(32 * block.rows.size());
    block.effective_threads = block.threads;
    for (const uint32_t r : block.rows) {
      const int64_t chat = row_chat[r];
      const int64_t lane_ops = CeilDiv(chat, 32);
      block.chat += chat;
      block.warp_issue_ops += lane_ops;
      block.crit_ops = std::max(block.crit_ops, lane_ops);
    }
    visit(block);
  }

  const std::span<const uint32_t> large(classes.large);
  for (size_t k = 0; k < large.size(); ++k) {
    RowBlock block;
    block.kind = RowBlockKind::kBlockPerRow;
    block.rows = large.subspan(k, 1);
    block.threads = block_size;
    block.effective_threads = block_size;
    block.chat = row_chat[large[k]];
    block.crit_ops = CeilDiv(block.chat, block_size);
    block.warp_issue_ops = block.crit_ops * (block_size / 32);
    visit(block);
  }
}

/// Options controlling merge-kernel construction; B-Limiting raises
/// `extra_shared_mem_bytes` for the long-row kernel.
struct MergeOptions {
  int block_size = 256;
  /// Rows whose C-hat population exceeds this get the "limited" kernel;
  /// <= 0 disables the split (single kernel, no limiting).
  int64_t limit_row_threshold = 0;
  /// Extra shared memory allocated to the limited kernel to reduce
  /// residency (the paper's limiting factor; default 4 * 6144).
  int64_t extra_shared_mem_bytes = 0;
};

/// Builds the merge-phase kernels from per-row intermediate populations
/// and appends them to `kernels`: one kernel when limiting is disabled,
/// otherwise a non-limited kernel plus a limited kernel for long rows.
void AppendMergeKernels(const Workload& workload, const MergeOptions& options,
                        std::vector<gpusim::KernelDesc>* kernels);

/// Describes one outer-product expansion block (one column/row pair or a
/// fragment of one after B-Splitting).
struct PairBlockParams {
  int64_t col_nnz = 0;  ///< per-thread loop length (column of A side)
  int64_t row_nnz = 0;  ///< effective threads (row of B side)
  int block_size = 256;
  /// Bytes of this block's reads expected L2-hot because sibling blocks
  /// share them (split fragments re-reading the same row vector).
  int64_t shared_read_bytes = 0;
};

/// Builds the ThreadBlockDesc of one outer-product pair block.
gpusim::ThreadBlockDesc MakePairBlock(const PairBlockParams& params);

/// Estimated host-preprocessing seconds for a given amount of copied
/// elements and scanned pairs (calibrated constants documented in the .cc).
double HostPreprocessSeconds(int64_t scanned_pairs, int64_t copied_elements);

/// Appends perfectly balanced streaming blocks (256 threads, full warps,
/// 8192 elements a block, `shared_mem_bytes` of staging each) that
/// collectively read and write `total_elements * bytes_per_element`,
/// `ops_per_element` ops each — the shape of scan/sort/precalculation
/// passes.
void AppendBalancedStreamingBlocks(gpusim::KernelDesc* kernel,
                                   int64_t total_elements,
                                   int64_t bytes_per_element,
                                   double ops_per_element,
                                   int64_t shared_mem_bytes);

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_WORKLOAD_MODEL_H_
