#ifndef SPNET_SPGEMM_WORKLOAD_MODEL_H_
#define SPNET_SPGEMM_WORKLOAD_MODEL_H_

#include <cstdint>
#include <vector>

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
  /// Count of accumulations that saturated instead of wrapping (adversarial
  /// nnz products overflowing int64). Zero for every realistic matrix;
  /// non-zero values mean pair_work/row_chat/flops are lower bounds.
  int64_t saturated = 0;
};

/// Builds the workload view. O(nnz(A) + dims). The output-row nnz is
/// EstimateMergedRowNnz of each row's C-hat population; it only shapes
/// merge timing, never functional results. Products and sums that would
/// overflow int64 saturate and bump the workload's `saturated` count plus
/// the `workload.saturated` counter on `ctx`.
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

/// Options controlling merge-kernel construction; B-Limiting raises
/// `extra_shared_mem_bytes` for the long-row kernel.
struct MergeOptions {
  int block_size = 256;
  /// Base shared memory per merge block (accumulator staging tile).
  int64_t base_shared_mem_bytes = 4096;
  /// Rows whose C-hat population exceeds this get the "limited" kernel;
  /// <= 0 disables the split (single kernel, no limiting).
  int64_t limit_row_threshold = 0;
  /// Extra shared memory allocated to the limited kernel to reduce
  /// residency (the paper's limiting factor; default 4 * 6144).
  int64_t extra_shared_mem_bytes = 0;
};

/// Builds the merge-phase kernels from per-row intermediate populations.
/// Returns one kernel when limiting is disabled, otherwise a non-limited
/// kernel plus a limited kernel for long rows.
std::vector<gpusim::KernelDesc> BuildMergeKernels(const Workload& workload,
                                                  const MergeOptions& options);

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

/// Appends perfectly balanced streaming blocks (256 threads, full warps)
/// that collectively read and write `total_elements * bytes_per_element`,
/// `ops_per_element` ops each — the shape of scan/sort/precalculation
/// passes.
void AppendBalancedStreamingBlocks(gpusim::KernelDesc* kernel,
                                   int64_t total_elements,
                                   int64_t bytes_per_element,
                                   double ops_per_element);

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_WORKLOAD_MODEL_H_
