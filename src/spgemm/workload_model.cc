#include "spgemm/workload_model.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/math_util.h"
#include "common/parallel.h"
#include "spgemm/exec_context.h"
#include "spgemm/plan.h"

namespace spnet {
namespace spgemm {

using gpusim::KernelDesc;
using gpusim::Phase;
using gpusim::ThreadBlockDesc;
using sparse::CsrMatrix;
using sparse::Index;
using sparse::Offset;
using sparse::SpanView;

int64_t EstimateMergedRowNnz(int64_t chat, int64_t cols) {
  // A 0-column B would divide by zero (NaN rows), so it short-circuits.
  if (chat <= 0 || cols <= 0) return 0;
  // Under a quarter of a collision expected: the closed form rounds to
  // chat (see the header).
  if (chat <= (int64_t{1} << 30) && 2 * chat * chat <= cols) return chat;
  const double f = static_cast<double>(chat);
  const double c = static_cast<double>(cols);
  const double unique = std::min(c * (1.0 - std::exp(-f / c)), f);
  const int64_t est = std::max<int64_t>(1, std::llround(unique));
  return std::min(est, std::min(chat, cols));
}

namespace {

/// Sizes and fills `w->b_row_nnz` from B's row pointers.
void FillBRowNnz(const CsrMatrix& b, Workload* w) {
  ThreadPool& pool = GlobalThreadPool();
  w->b_row_nnz.assign(static_cast<size_t>(b.rows()), 0);
  SPNET_CHECK_OK(pool.ParallelFor(0, b.rows(),
                   GrainForItems(b.rows(), pool.threads()),
                   [&](int64_t begin, int64_t end, int) {
                     for (int64_t r = begin; r < end; ++r) {
                       w->b_row_nnz[static_cast<size_t>(r)] =
                           b.RowNnz(static_cast<Index>(r));
                     }
                     return Status::Ok();
                   }));
}

/// Sets pair_work and flops from a_col_nnz and b_row_nnz.
void FillPairWork(Workload* w) {
  ThreadPool& pool = GlobalThreadPool();
  const int64_t pairs = static_cast<int64_t>(w->a_col_nnz.size());
  w->pair_work.assign(static_cast<size_t>(pairs), 0);
  w->flops = pool.ParallelReduce(
      0, pairs, GrainForItems(pairs, pool.threads()), int64_t{0},
      [&](int64_t begin, int64_t end, int) {
        int64_t sum = 0;
        for (int64_t i = begin; i < end; ++i) {
          const size_t ii = static_cast<size_t>(i);
          w->pair_work[ii] = w->a_col_nnz[ii] * w->b_row_nnz[ii];
          sum += w->pair_work[ii];
        }
        return sum;
      },
      std::plus<int64_t>());
}

}  // namespace

Workload BuildWorkload(const CsrMatrix& a, const CsrMatrix& b,
                       ExecContext* ctx) {
  metrics::ScopedSpan span(TraceOf(ctx), "build-workload");
  Workload w;
  ThreadPool& pool = GlobalThreadPool();
  const int threads = pool.threads();

  // Block-wise precalculation: nnz per column of A. A scatter over the
  // index array, parallelized as chunked histograms summed column-wise
  // (integer adds, so any combination order gives the serial counts).
  w.a_col_nnz.assign(static_cast<size_t>(a.cols()), 0);
  const int64_t nnz = static_cast<int64_t>(a.indices().size());
  if (threads == 1 || nnz == 0) {
    for (Index c : a.indices()) w.a_col_nnz[static_cast<size_t>(c)]++;
  } else {
    const int64_t hist_grain = GrainForChunkPerThread(nnz, threads);
    const int64_t num_chunks = CeilDiv(nnz, hist_grain);
    std::vector<std::vector<int64_t>> hist(static_cast<size_t>(num_chunks));
    SPNET_CHECK_OK(pool.ParallelFor(0, nnz, hist_grain,
                     [&](int64_t begin, int64_t end, int) {
                       std::vector<int64_t>& h =
                           hist[static_cast<size_t>(begin / hist_grain)];
                       h.assign(static_cast<size_t>(a.cols()), 0);
                       for (int64_t k = begin; k < end; ++k) {
                         h[static_cast<size_t>(
                             a.indices()[static_cast<size_t>(k)])]++;
                       }
                       return Status::Ok();
                     }));
    SPNET_CHECK_OK(pool.ParallelFor(0, a.cols(), GrainForItems(a.cols(), threads),
                     [&](int64_t begin, int64_t end, int) {
                       for (int64_t c = begin; c < end; ++c) {
                         int64_t sum = 0;
                         for (const auto& h : hist) {
                           sum += h[static_cast<size_t>(c)];
                         }
                         w.a_col_nnz[static_cast<size_t>(c)] = sum;
                       }
                       return Status::Ok();
                     }));
  }

  FillBRowNnz(b, &w);
  FillPairWork(&w);

  // Row-wise precalculation: nnz(C-hat) per output row, and its merged
  // estimate. Each row is independent; only the int64 total crosses rows.
  w.row_chat.assign(static_cast<size_t>(a.rows()), 0);
  w.row_c_est.assign(static_cast<size_t>(a.rows()), 0);
  w.output_nnz = pool.ParallelReduce(
      0, a.rows(), GrainForItems(a.rows(), threads), int64_t{0},
      [&](int64_t begin, int64_t end, int) {
        int64_t sum = 0;
        for (int64_t r = begin; r < end; ++r) {
          const SpanView row = a.Row(static_cast<Index>(r));
          int64_t f = 0;
          for (Offset k = 0; k < row.size; ++k) {
            f += w.b_row_nnz[static_cast<size_t>(row.indices[k])];
          }
          const int64_t est = EstimateMergedRowNnz(f, b.cols());
          w.row_chat[static_cast<size_t>(r)] = f;
          w.row_c_est[static_cast<size_t>(r)] = est;
          sum += est;
        }
        return sum;
      },
      std::plus<int64_t>());
  return w;
}

RowSizeClasses ClassifyRowSizes(const std::vector<int64_t>& row_chat,
                                int64_t small_max, int64_t mid_max,
                                const std::vector<int64_t>* order) {
  // On skewed inputs a row's class is close to random, so the split is
  // branch-free: every row is written to all three lists, each sized
  // once, and only its own class's cursor advances.
  const size_t rows = row_chat.size();
  RowSizeClasses classes;
  classes.small.resize(rows);
  classes.mid.resize(rows);
  classes.large.resize(rows);
  size_t small = 0;
  size_t mid = 0;
  size_t large = 0;
  for (size_t slot = 0; slot < rows; ++slot) {
    const auto row = static_cast<uint32_t>(
        order != nullptr ? (*order)[slot] : static_cast<int64_t>(slot));
    const int64_t chat = row_chat[row];
    classes.small[small] = row;
    classes.mid[mid] = row;
    classes.large[large] = row;
    small += static_cast<size_t>((chat > 0) & (chat <= small_max));
    mid += static_cast<size_t>((chat > small_max) & (chat <= mid_max));
    large += static_cast<size_t>(chat > mid_max);
  }
  classes.small.resize(small);
  classes.mid.resize(mid);
  classes.large.resize(large);
  return classes;
}

namespace {

// Merge rows with at most this many intermediate elements share a block
// thread-per-row; up to the warp bound, warp-per-row.
constexpr int64_t kMergeThreadRowMax = 8;
constexpr int64_t kMergeWarpRowMax = 256;
// Output rows with at most this many distinct entries keep their dense
// accumulator in shared memory.
constexpr int64_t kSharedAccumulatorEntries = 1024;
// Shared memory of every merge block (accumulator staging tile).
constexpr int64_t kMergeSharedMemBytes = 4096;

}  // namespace

void AppendMergeKernels(const Workload& workload, const MergeOptions& options,
                        std::vector<KernelDesc>* kernels) {
  KernelDesc normal;
  normal.label = "merge";
  normal.phase = Phase::kMerge;
  KernelDesc limited;
  limited.label = "merge-limited";
  limited.phase = Phase::kMerge;

  // Real merge kernels batch small rows so the block count tracks work,
  // not matrix dimension.
  const RowSizeClasses classes = ClassifyRowSizes(
      workload.row_chat, kMergeThreadRowMax, kMergeWarpRowMax);
  // WalkRowBlocks' block count, an upper bound: long rows go to `limited`.
  const int64_t block_size = options.block_size;
  normal.blocks.reserve(static_cast<size_t>(
      CeilDiv(static_cast<int64_t>(classes.small.size()), block_size) +
      CeilDiv(static_cast<int64_t>(classes.mid.size()), block_size / 32) +
      static_cast<int64_t>(classes.large.size())));
  const int64_t long_min = options.limit_row_threshold > 0
                               ? options.limit_row_threshold
                               : std::numeric_limits<int64_t>::max();

  WalkRowBlocks(workload.row_chat, classes, options.block_size,
                [&](const RowBlock& block) {
    int64_t out = 0;
    for (const uint32_t r : block.rows) out += workload.row_c_est[r];
    ThreadBlockDesc tb;
    tb.threads = block.threads;
    tb.effective_threads = block.effective_threads;
    tb.crit_ops = block.crit_ops;
    tb.warp_issue_ops = block.warp_issue_ops;
    tb.useful_lane_ops = block.chat;
    tb.bytes_read = kElementBytes * block.chat;
    tb.bytes_written = kElementBytes * out;
    tb.atomic_ops = block.chat;
    tb.shared_mem_bytes = kMergeSharedMemBytes;
    if (block.kind != RowBlockKind::kBlockPerRow) {
      // Thread- and warp-per-row accumulators fit in shared memory.
      tb.atomics_in_shared = true;
      normal.blocks.push_back(tb);
      return;
    }
    // A wide output row's accumulator no longer fits on chip: its RMWs go
    // through the L2/DRAM and suffer residency contention. Long rows are
    // the B-Limiting targets.
    tb.atomics_in_shared = out <= kSharedAccumulatorEntries;
    if (block.chat > long_min) {
      tb.shared_mem_bytes += options.extra_shared_mem_bytes;
      limited.blocks.push_back(tb);
    } else {
      normal.blocks.push_back(tb);
    }
  });

  if (!normal.blocks.empty() || limited.blocks.empty()) {
    kernels->push_back(std::move(normal));
  }
  if (!limited.blocks.empty()) {
    kernels->push_back(std::move(limited));
  }
}

ThreadBlockDesc MakePairBlock(const PairBlockParams& p) {
  ThreadBlockDesc tb;
  // Threads cover the row vector; each thread loops over the column
  // fragment. Rows wider than the block size are strip-mined.
  const int64_t rounded =
      std::min<int64_t>(p.block_size,
                        std::max<int64_t>(32, NextPow2(p.row_nnz)));
  tb.threads = static_cast<int>(rounded);
  tb.effective_threads =
      static_cast<int>(std::min<int64_t>(p.row_nnz, rounded));
  const int64_t strips = CeilDiv(p.row_nnz, rounded);
  const int64_t ops_per_thread = p.col_nnz * strips;
  tb.crit_ops = ops_per_thread;
  tb.warp_issue_ops = CeilDiv(tb.effective_threads, 32) * ops_per_thread;
  tb.useful_lane_ops = p.col_nnz * p.row_nnz;

  // Reads: the column fragment once (broadcast to the block), the row
  // elements once per strip; writes: one intermediate element per multiply
  // (coalesced along the row). The per-row relocation cursors are
  // warp-aggregated increments — negligible next to the element stores —
  // so no atomic term is charged.
  tb.bytes_read = kElementBytes * (p.col_nnz + p.row_nnz);
  tb.bytes_written = kElementBytes * p.col_nnz * p.row_nnz;
  tb.shared_read_bytes =
      std::min<int64_t>(p.shared_read_bytes, tb.bytes_read);
  tb.shared_mem_bytes = 1024;
  return tb;
}

void AppendBalancedStreamingBlocks(KernelDesc* kernel, int64_t total_elements,
                                   int64_t bytes_per_element,
                                   double ops_per_element,
                                   int64_t shared_mem_bytes) {
  constexpr int64_t kTileElements = 8192;
  if (total_elements <= 0) return;
  const int64_t tiles = CeilDiv(total_elements, kTileElements);
  for (int64_t t = 0; t < tiles; ++t) {
    const int64_t elems =
        std::min(kTileElements, total_elements - t * kTileElements);
    ThreadBlockDesc tb;
    tb.threads = 256;
    tb.effective_threads = 256;
    tb.crit_ops = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(CeilDiv(elems, 256)) *
                                ops_per_element));
    tb.warp_issue_ops = tb.crit_ops * 8;
    tb.useful_lane_ops = tb.crit_ops * 256;
    tb.bytes_read = elems * bytes_per_element;
    tb.bytes_written = elems * bytes_per_element;
    tb.shared_mem_bytes = shared_mem_bytes;
    kernel->blocks.push_back(tb);
  }
}

double HostPreprocessSeconds(int64_t scanned_pairs, int64_t copied_elements) {
  // The paper performs all preprocessing on the GPU except B-Splitting
  // (Section V), so the host side carries only the driver/alloc overhead
  // of the extra passes (~25 us), a light O(pairs) result read-back
  // (~0.02 ns/pair), and the B-Splitting vector copies (~2.5 ns/element).
  return 25e-6 + 0.02e-9 * static_cast<double>(scanned_pairs) +
         2.5e-9 * static_cast<double>(copied_elements);
}

}  // namespace spgemm
}  // namespace spnet
