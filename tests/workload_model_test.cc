#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "spgemm/row_product.h"
#include "spgemm/workload_model.h"
#include "sparse/reference_spgemm.h"
#include "sparse/stats.h"
#include "tests/test_util.h"

namespace spnet {
namespace spgemm {
namespace {

using sparse::CsrMatrix;

TEST(WorkloadTest, MatchesSparseStats) {
  const CsrMatrix a = testing_util::SkewedMatrix(128, 64, 3);
  const CsrMatrix b = testing_util::SkewedMatrix(128, 64, 4);
  const Workload w = BuildWorkload(a, b);
  EXPECT_EQ(w.flops, sparse::SpGemmFlops(a, b));
  const auto pair_work = sparse::OuterProductPairWork(a, b);
  ASSERT_EQ(w.pair_work.size(), pair_work.size());
  for (size_t i = 0; i < pair_work.size(); ++i) {
    EXPECT_EQ(w.pair_work[i], pair_work[i]) << "pair " << i;
  }
  const auto row_flops = sparse::SpGemmRowFlops(a, b);
  for (size_t r = 0; r < row_flops.size(); ++r) {
    EXPECT_EQ(w.row_chat[r], row_flops[r]) << "row " << r;
  }
}

TEST(WorkloadTest, RowChatSumsToFlops) {
  const CsrMatrix a = testing_util::RandomMatrix(90, 110, 0.05, 5);
  const CsrMatrix b = testing_util::RandomMatrix(110, 70, 0.05, 6);
  const Workload w = BuildWorkload(a, b);
  const int64_t sum =
      std::accumulate(w.row_chat.begin(), w.row_chat.end(), int64_t{0});
  EXPECT_EQ(sum, w.flops);
}

TEST(WorkloadTest, OutputEstimateBracketsExact) {
  const CsrMatrix a = testing_util::SkewedMatrix(200, 100, 9);
  const Workload w = BuildWorkload(a, a);
  auto exact = sparse::SpGemmExactOutputNnz(a, a);
  ASSERT_TRUE(exact.ok());
  // The hashing estimator should be within a factor of ~2 of truth and
  // never exceed flops.
  EXPECT_LE(w.output_nnz, w.flops);
  EXPECT_GT(w.output_nnz, exact.value() / 2);
  EXPECT_LT(w.output_nnz, exact.value() * 2);
}

TEST(WorkloadTest, ZeroColumnBProducesZeroEstimatesNotNaN) {
  // Regression: the merge estimator cols * (1 - exp(-flops_r / cols))
  // divided by cols; with a 0-column B it must short-circuit to zero
  // instead of computing exp(-inf) garbage or NaN.
  const CsrMatrix a = testing_util::SkewedMatrix(40, 20, 3);
  sparse::CooMatrix coo_b(40, 0);
  auto b = CsrMatrix::FromCoo(coo_b);
  ASSERT_TRUE(b.ok());
  const Workload w = BuildWorkload(a, *b);
  EXPECT_EQ(w.flops, 0);
  EXPECT_EQ(w.output_nnz, 0);
  for (size_t r = 0; r < w.row_c_est.size(); ++r) {
    EXPECT_EQ(w.row_c_est[r], 0) << "row " << r;
  }
}

TEST(WorkloadTest, OneColumnBClampsRowEstimateToOne) {
  // With one output column, every nonempty C row has exactly one
  // reachable slot: the estimate must clamp to min(row_chat, cols) = 1,
  // never round above it.
  sparse::CooMatrix coo_a(30, 30);
  sparse::CooMatrix coo_b(30, 1);
  for (sparse::Index r = 0; r < 30; ++r) {
    for (sparse::Index c = 0; c < 30; c += 3) coo_a.Add(r, c, 1.0);
    coo_b.Add(r, 0, 1.0);
  }
  auto a = CsrMatrix::FromCoo(coo_a);
  auto b = CsrMatrix::FromCoo(coo_b);
  ASSERT_TRUE(a.ok() && b.ok());
  const Workload w = BuildWorkload(*a, *b);
  int64_t total = 0;
  for (size_t r = 0; r < w.row_c_est.size(); ++r) {
    EXPECT_GE(w.row_c_est[r], 0) << "row " << r;
    EXPECT_LE(w.row_c_est[r], 1) << "row " << r;
    EXPECT_LE(w.row_c_est[r], w.row_chat[r]) << "row " << r;
    total += w.row_c_est[r];
  }
  EXPECT_EQ(w.output_nnz, total);
}

/// The hashing estimator's closed form, clamped as the header states.
int64_t ClosedFormEstimate(int64_t chat, int64_t cols) {
  const double f = static_cast<double>(chat);
  const double c = static_cast<double>(cols);
  const double unique = std::min(c * (1.0 - std::exp(-f / c)), f);
  const int64_t est = std::max<int64_t>(1, std::llround(unique));
  return std::min(est, std::min(chat, cols));
}

/// EstimateMergedRowNnz skips exp when 2 * chat^2 <= cols. That fast path
/// must give the closed form's value exactly: at every (chat, cols) in
/// range for cols up to 20000, and at the largest chat in range for
/// random cols up to 2^31 - 1.
TEST(WorkloadTest, EstimateFastPathIsExact) {
  for (int64_t cols = 1; cols <= 20000; ++cols) {
    for (int64_t chat = 1; 2 * chat * chat <= cols; ++chat) {
      ASSERT_EQ(EstimateMergedRowNnz(chat, cols),
                ClosedFormEstimate(chat, cols))
          << "chat " << chat << " cols " << cols;
    }
  }
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<int64_t> random_cols(1,
                                                     (int64_t{1} << 31) - 1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t cols = random_cols(rng);
    int64_t chat =
        static_cast<int64_t>(std::sqrt(static_cast<double>(cols) / 2));
    while (2 * (chat + 1) * (chat + 1) <= cols) ++chat;
    while (chat > 0 && 2 * chat * chat > cols) --chat;
    if (chat == 0) continue;
    ASSERT_EQ(EstimateMergedRowNnz(chat, cols),
              ClosedFormEstimate(chat, cols))
        << "chat " << chat << " cols " << cols;
  }
}

TEST(WorkloadTest, ClassifyRowSizesSplitsAtTheBoundsInOrder) {
  // Rows 0..7 sit on and around the class bounds 8 and 256.
  const std::vector<int64_t> row_chat = {0, 1, 8, 9, 256, 257, 0, 5};
  const RowSizeClasses ascending = ClassifyRowSizes(row_chat, 8, 256);
  EXPECT_EQ(ascending.small, (std::vector<uint32_t>{1, 2, 7}));
  EXPECT_EQ(ascending.mid, (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ(ascending.large, (std::vector<uint32_t>{5}));
  const std::vector<int64_t> order = {7, 6, 5, 4, 3, 2, 1, 0};
  const RowSizeClasses reversed = ClassifyRowSizes(row_chat, 8, 256, &order);
  EXPECT_EQ(reversed.small, (std::vector<uint32_t>{7, 2, 1}));
  EXPECT_EQ(reversed.mid, (std::vector<uint32_t>{4, 3}));
  EXPECT_EQ(reversed.large, (std::vector<uint32_t>{5}));
}

TEST(MakePairBlockTest, SmallPairGetsWarp) {
  PairBlockParams p;
  p.col_nnz = 10;
  p.row_nnz = 5;
  const auto tb = MakePairBlock(p);
  EXPECT_EQ(tb.threads, 32);
  EXPECT_EQ(tb.effective_threads, 5);
  EXPECT_EQ(tb.crit_ops, 10);
  EXPECT_EQ(tb.useful_lane_ops, 50);
  EXPECT_EQ(tb.warp_issue_ops, 10);
}

TEST(MakePairBlockTest, WideRowStripMines) {
  PairBlockParams p;
  p.col_nnz = 4;
  p.row_nnz = 1000;  // > block size 256 -> 4 strips
  const auto tb = MakePairBlock(p);
  EXPECT_EQ(tb.threads, 256);
  EXPECT_EQ(tb.effective_threads, 256);
  EXPECT_EQ(tb.crit_ops, 16);  // 4 col elements * 4 strips
  EXPECT_EQ(tb.useful_lane_ops, 4000);
  EXPECT_EQ(tb.warp_issue_ops, 8 * 16);
}

TEST(MakePairBlockTest, SharedReadClampedToReads) {
  PairBlockParams p;
  p.col_nnz = 10;
  p.row_nnz = 10;
  p.shared_read_bytes = 1 << 20;
  const auto tb = MakePairBlock(p);
  EXPECT_EQ(tb.shared_read_bytes, tb.bytes_read);
}

TEST(WalkRowBlocksTest, AccountsEachLayoutInOrder) {
  // 40 small rows (1..40 elements), an empty row, 3 mid rows and 2 large
  // rows; a 64-thread block holds 64 small rows or 2 mid rows.
  std::vector<int64_t> row_chat;
  for (int64_t c = 1; c <= 40; ++c) row_chat.push_back(c);
  row_chat.push_back(0);
  for (const int64_t c : {41, 100, 64, 1000, 257}) row_chat.push_back(c);
  const RowSizeClasses classes = ClassifyRowSizes(row_chat, 40, 256);
  std::vector<RowBlock> blocks;
  std::vector<uint32_t> seen;
  WalkRowBlocks(row_chat, classes, 64, [&](const RowBlock& block) {
    blocks.push_back(block);
    seen.insert(seen.end(), block.rows.begin(), block.rows.end());
  });
  ASSERT_EQ(blocks.size(), 5u);

  // Thread-per-row: warps of rows 1..32 and 33..40 wait for 32 and 40.
  EXPECT_EQ(blocks[0].kind, RowBlockKind::kThreadPerRow);
  EXPECT_EQ(blocks[0].threads, 64);
  EXPECT_EQ(blocks[0].effective_threads, 40);
  EXPECT_EQ(blocks[0].crit_ops, 40);
  EXPECT_EQ(blocks[0].warp_issue_ops, 32 + 40);
  EXPECT_EQ(blocks[0].chat, 40 * 41 / 2);

  // Warp-per-row: rows of 41, 100 then 64 elements, 32 lanes each.
  EXPECT_EQ(blocks[1].kind, RowBlockKind::kWarpPerRow);
  EXPECT_EQ(blocks[1].threads, 64);
  EXPECT_EQ(blocks[1].effective_threads, 64);
  EXPECT_EQ(blocks[1].crit_ops, 4);
  EXPECT_EQ(blocks[1].warp_issue_ops, 2 + 4);
  EXPECT_EQ(blocks[1].chat, 141);
  EXPECT_EQ(blocks[2].kind, RowBlockKind::kWarpPerRow);
  EXPECT_EQ(blocks[2].threads, 32);
  EXPECT_EQ(blocks[2].crit_ops, 2);
  EXPECT_EQ(blocks[2].chat, 64);

  // Block-per-row: each large row over 64 lanes in 2 warps.
  EXPECT_EQ(blocks[3].kind, RowBlockKind::kBlockPerRow);
  ASSERT_EQ(blocks[3].rows.size(), 1u);
  EXPECT_EQ(blocks[3].threads, 64);
  EXPECT_EQ(blocks[3].effective_threads, 64);
  EXPECT_EQ(blocks[3].crit_ops, 16);
  EXPECT_EQ(blocks[3].warp_issue_ops, 32);
  EXPECT_EQ(blocks[3].chat, 1000);
  EXPECT_EQ(blocks[4].kind, RowBlockKind::kBlockPerRow);
  EXPECT_EQ(blocks[4].crit_ops, 5);
  EXPECT_EQ(blocks[4].warp_issue_ops, 10);
  EXPECT_EQ(blocks[4].chat, 257);

  // Every non-empty row lands in exactly one block.
  std::sort(seen.begin(), seen.end());
  std::vector<uint32_t> expected;
  for (uint32_t r = 0; r < row_chat.size(); ++r) {
    if (row_chat[r] > 0) expected.push_back(r);
  }
  EXPECT_EQ(seen, expected);
}

TEST(MergeKernelsTest, BlocksCoverAllWork) {
  const CsrMatrix a = testing_util::SkewedMatrix(300, 150, 11);
  const Workload w = BuildWorkload(a, a);
  std::vector<gpusim::KernelDesc> kernels;
  AppendMergeKernels(w, MergeOptions{}, &kernels);
  ASSERT_EQ(kernels.size(), 1u);
  int64_t covered = 0;
  for (const auto& tb : kernels[0].blocks) covered += tb.useful_lane_ops;
  EXPECT_EQ(covered, w.flops);
}

TEST(MergeKernelsTest, LimitingSplitsLongRows) {
  const CsrMatrix a = testing_util::SkewedMatrix(300, 200, 13);
  const Workload w = BuildWorkload(a, a);
  // Threshold low enough to catch the hub rows.
  MergeOptions options;
  options.limit_row_threshold = 400;
  options.extra_shared_mem_bytes = 4 * 6144;
  std::vector<gpusim::KernelDesc> kernels;
  AppendMergeKernels(w, options, &kernels);
  ASSERT_EQ(kernels.size(), 2u);
  EXPECT_EQ(kernels[1].label, "merge-limited");
  EXPECT_FALSE(kernels[1].blocks.empty());
  for (const auto& tb : kernels[1].blocks) {
    EXPECT_GT(tb.useful_lane_ops, 400);
    EXPECT_GE(tb.shared_mem_bytes, 4 * 6144);
  }
  // Work is conserved across the two kernels.
  int64_t covered = 0;
  for (const auto& k : kernels) {
    for (const auto& tb : k.blocks) covered += tb.useful_lane_ops;
  }
  EXPECT_EQ(covered, w.flops);
}

TEST(MergeKernelsTest, SmallRowsBatchIntoFewBlocks) {
  // 10000 rows of ~4 intermediate elements: block count must track work,
  // not dimension.
  sparse::CooMatrix coo(10000, 10000);
  Rng rng(3);
  for (int r = 0; r < 10000; ++r) {
    for (int k = 0; k < 2; ++k) {
      coo.Add(r, static_cast<sparse::Index>(rng.NextBounded(10000)), 1.0);
    }
  }
  auto a = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(a.ok());
  const Workload w = BuildWorkload(*a, *a);
  std::vector<gpusim::KernelDesc> kernels;
  AppendMergeKernels(w, MergeOptions{}, &kernels);
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_LT(kernels[0].blocks.size(), 500u);
}

TEST(MergeKernelsTest, WideOutputRowsUseGlobalAtomics) {
  // A dense-ish row produces a wide output accumulator.
  sparse::CooMatrix coo(3000, 3000);
  // Row 0 is dense (wide output accumulator); the rest touch only column
  // 1, whose row has a single entry (tiny accumulators).
  for (int c = 0; c < 3000; ++c) coo.Add(0, c, 1.0);
  for (int r = 1; r < 3000; ++r) coo.Add(r, 1, 1.0);
  auto a = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(a.ok());
  const Workload w = BuildWorkload(*a, *a);
  std::vector<gpusim::KernelDesc> kernels;
  AppendMergeKernels(w, MergeOptions{}, &kernels);
  bool found_global = false;
  bool found_shared = false;
  for (const auto& k : kernels) {
    for (const auto& tb : k.blocks) {
      if (tb.atomics_in_shared) {
        found_shared = true;
      } else {
        found_global = true;
      }
    }
  }
  EXPECT_TRUE(found_global);
  EXPECT_TRUE(found_shared);
}

TEST(RowExpansionTest, CoversAllWorkOnceEach) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 300, 17);
  const Workload w = BuildWorkload(a, a);
  const auto kernel =
      BuildRowProductExpansion(w, w.row_chat, RowExpansionOptions{});
  int64_t covered = 0;
  for (const auto& tb : kernel.blocks) covered += tb.useful_lane_ops;
  EXPECT_EQ(covered, w.flops);
}

TEST(RowExpansionTest, OpsMultiplierScalesIssue) {
  const CsrMatrix a = testing_util::RandomMatrix(100, 100, 0.05, 21);
  const Workload w = BuildWorkload(a, a);
  RowExpansionOptions base;
  RowExpansionOptions doubled;
  doubled.ops_multiplier = 2.0;
  const auto k1 = BuildRowProductExpansion(w, w.row_chat, base);
  const auto k2 = BuildRowProductExpansion(w, w.row_chat, doubled);
  ASSERT_EQ(k1.blocks.size(), k2.blocks.size());
  for (size_t i = 0; i < k1.blocks.size(); ++i) {
    EXPECT_EQ(2 * k1.blocks[i].warp_issue_ops, k2.blocks[i].warp_issue_ops);
  }
}

TEST(RowExpansionTest, RowOrderPermutesAssignment) {
  const CsrMatrix a = testing_util::SkewedMatrix(256, 128, 23);
  const Workload w = BuildWorkload(a, a);
  std::vector<int64_t> order(w.row_chat.size());
  std::iota(order.begin(), order.end(), int64_t{0});
  std::sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
    return w.row_chat[static_cast<size_t>(x)] <
           w.row_chat[static_cast<size_t>(y)];
  });
  RowExpansionOptions opts;
  opts.row_order = &order;
  const auto sorted_kernel = BuildRowProductExpansion(w, w.row_chat, opts);
  const auto plain_kernel =
      BuildRowProductExpansion(w, w.row_chat, RowExpansionOptions{});
  int64_t sorted_work = 0, plain_work = 0;
  int64_t sorted_issue = 0, plain_issue = 0;
  for (const auto& tb : sorted_kernel.blocks) {
    sorted_work += tb.useful_lane_ops;
    sorted_issue += tb.warp_issue_ops;
  }
  for (const auto& tb : plain_kernel.blocks) {
    plain_work += tb.useful_lane_ops;
    plain_issue += tb.warp_issue_ops;
  }
  EXPECT_EQ(sorted_work, plain_work);
  // Sorting similar rows into the same warp reduces lock-step waste.
  EXPECT_LE(sorted_issue, plain_issue);
}

TEST(StreamingBlocksTest, BalancedAndSized) {
  gpusim::KernelDesc kernel;
  AppendBalancedStreamingBlocks(&kernel, 100000, 12, 2.0, 8192);
  ASSERT_FALSE(kernel.blocks.empty());
  int64_t bytes = 0;
  for (const auto& tb : kernel.blocks) {
    EXPECT_EQ(tb.threads, 256);
    EXPECT_EQ(tb.effective_threads, 256);
    EXPECT_EQ(tb.shared_mem_bytes, 8192);
    bytes += tb.bytes_read;
  }
  EXPECT_EQ(bytes, 100000 * 12);
}

TEST(HostPreprocessTest, MonotoneInInputs) {
  EXPECT_GT(HostPreprocessSeconds(1000, 0), HostPreprocessSeconds(0, 0));
  EXPECT_GT(HostPreprocessSeconds(0, 1000), HostPreprocessSeconds(0, 0));
  EXPECT_GT(HostPreprocessSeconds(0, 0), 0.0);
}

}  // namespace
}  // namespace spgemm
}  // namespace spnet
