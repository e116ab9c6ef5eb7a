#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/array_allocator.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/auto_tune.h"
#include "core/block_reorganizer.h"
#include "core/suite.h"
#include "datasets/generators.h"
#include "spgemm/algorithm.h"
#include "spgemm/algorithm_registry.h"
#include "spgemm/exec_context.h"
#include "spgemm/functional.h"
#include "spgemm/workload_model.h"
#include "sparse/reference_spgemm.h"
#include "sparse/stats.h"
#include "tests/test_util.h"
#include "verify/invariants.h"

namespace spnet {
namespace spgemm {
namespace {

using sparse::CsrMatrix;

// One generated input per row: the functional correctness sweep runs
// every algorithm against the reference on each of these.
struct MatrixCase {
  const char* name;
  CsrMatrix (*make)(uint64_t seed);
};

CsrMatrix MakeUniform(uint64_t seed) {
  return testing_util::RandomMatrix(120, 120, 0.04, seed);
}
CsrMatrix MakeSkewed(uint64_t seed) {
  return testing_util::SkewedMatrix(150, 90, seed);
}
CsrMatrix MakeRmat(uint64_t seed) {
  datasets::RmatParams p;
  p.scale = 8;
  p.edge_count = 1200;
  p.seed = seed;
  auto m = datasets::GenerateRmat(p);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}
CsrMatrix MakeBanded(uint64_t seed) {
  datasets::QuasiRegularParams p;
  p.n = 200;
  p.nnz = 2400;
  p.seed = seed;
  auto m = datasets::GenerateQuasiRegular(p);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}
CsrMatrix MakeEmptyRows(uint64_t seed) {
  // Half the rows empty; exercises zero-work pairs.
  Rng rng(seed);
  sparse::CooMatrix coo(100, 100);
  for (int r = 0; r < 100; r += 2) {
    for (int k = 0; k < 4; ++k) {
      coo.Add(r, static_cast<sparse::Index>(rng.NextBounded(100)), 1.0);
    }
  }
  auto m = CsrMatrix::FromCoo(coo);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}

const MatrixCase kCases[] = {
    {"uniform", MakeUniform},  {"skewed", MakeSkewed},
    {"rmat", MakeRmat},        {"banded", MakeBanded},
    {"empty_rows", MakeEmptyRows},
};

using CaseAlgParam = std::tuple<int, int>;

const char* const kAlgNames[] = {"row_product", "outer_product", "cusparse",
                                 "cusp",        "bhsparse",      "mkl",
                                 "block_reorganizer"};

class AlgorithmCorrectnessTest
    : public ::testing::TestWithParam<CaseAlgParam> {};

TEST_P(AlgorithmCorrectnessTest, SquareMatchesReference) {
  const auto [case_idx, alg_idx] = GetParam();
  const CsrMatrix a = kCases[case_idx].make(1000 + case_idx);
  const auto algorithms = core::MakeAllAlgorithms();
  ASSERT_LT(static_cast<size_t>(alg_idx), algorithms.size());
  const auto& alg = algorithms[static_cast<size_t>(alg_idx)];

  auto expected = sparse::ReferenceSpGemm(a, a);
  ASSERT_TRUE(expected.ok());
  auto got = alg->Compute(a, a);
  ASSERT_TRUE(got.ok()) << alg->name() << ": " << got.status().ToString();
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9))
      << alg->name() << " on " << kCases[case_idx].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllCases, AlgorithmCorrectnessTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 7)),
    [](const ::testing::TestParamInfo<CaseAlgParam>& param_info) {
      return std::string(kCases[std::get<0>(param_info.param)].name) + "_" +
             kAlgNames[std::get<1>(param_info.param)];
    });

class RectangularProductTest : public ::testing::TestWithParam<int> {};

TEST_P(RectangularProductTest, AbMatchesReference) {
  const CsrMatrix a = testing_util::RandomMatrix(70, 110, 0.05, 7);
  const CsrMatrix b = testing_util::RandomMatrix(110, 50, 0.06, 8);
  const auto algorithms = core::MakeAllAlgorithms();
  const auto& alg = algorithms[static_cast<size_t>(GetParam())];
  auto expected = sparse::ReferenceSpGemm(a, b);
  auto got = alg->Compute(a, b);
  ASSERT_TRUE(expected.ok() && got.ok()) << alg->name();
  EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9)) << alg->name();
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RectangularProductTest,
                         ::testing::Range(0, 7));

TEST(FunctionalTest, RowAndOuterAgreeOnEmptyMatrix) {
  sparse::CooMatrix coo(16, 16);
  auto a = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(a.ok());
  auto outer_alg = AlgorithmRegistry::Global().Create("outer-product");
  ASSERT_TRUE(outer_alg.ok());
  auto row = RowProductExpandMerge(*a, *a);
  auto outer = (*outer_alg)->Compute(*a, *a);
  ASSERT_TRUE(row.ok() && outer.ok());
  EXPECT_EQ(row->nnz(), 0);
  EXPECT_EQ(outer->nnz(), 0);
}

/// Every registered name: eight baselines, the reorganizer and its three
/// ablation variants.
std::vector<std::unique_ptr<SpGemmAlgorithm>> EveryRegisteredAlgorithm() {
  core::RegisterCoreAlgorithms();
  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();
  std::vector<std::unique_ptr<SpGemmAlgorithm>> algorithms;
  for (const std::string& name : registry.Names()) {
    auto created = registry.Create(name);
    EXPECT_TRUE(created.ok()) << name;
    if (created.ok()) algorithms.push_back(std::move(created).value());
  }
  EXPECT_EQ(algorithms.size(), 12u);
  return algorithms;
}

TEST(FunctionalTest, DimensionMismatchRejectedEverywhere) {
  const CsrMatrix a = testing_util::RandomMatrix(10, 12, 0.3, 1);
  const CsrMatrix b = testing_util::RandomMatrix(10, 12, 0.3, 2);
  for (const auto& alg : EveryRegisteredAlgorithm()) {
    EXPECT_EQ(alg->Compute(a, b).status().code(),
              StatusCode::kInvalidArgument)
        << alg->name();
    EXPECT_EQ(alg->Plan(a, b, gpusim::DeviceSpec::TitanXp()).status().code(),
              StatusCode::kInvalidArgument)
        << alg->name();
  }
}

/// The product bound as a pure function of nnz(A) and B's longest row:
/// no operand near the bound fits in memory, so it is tested on the
/// counts. Both sides of kMaxProducts = 2^47, and a pair whose product is
/// far past int64, which the check must refuse without overflowing.
TEST(OperandCheckTest, ProductBoundRefusesPastMaxProducts) {
  EXPECT_TRUE(CheckProductBound("alg", 0, 0).ok());
  EXPECT_TRUE(CheckProductBound("alg", 0, int64_t{1} << 62).ok());
  EXPECT_TRUE(CheckProductBound("alg", int64_t{1} << 62, 0).ok());
  EXPECT_TRUE(CheckProductBound("alg", kMaxProducts, 1).ok());
  EXPECT_TRUE(
      CheckProductBound("alg", int64_t{1} << 24, int64_t{1} << 23).ok());

  // 2^47 + 1 = 3 * 46912496118443.
  const Status over = CheckProductBound("alg", 3, 46912496118443);
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(over.message(),
            "alg: nnz(A) = 3 times max nnz(B row) = 46912496118443 exceeds "
            "the bound of 140737488355328 products");
  EXPECT_EQ(CheckProductBound("alg", kMaxProducts + 1, 1).code(),
            StatusCode::kInvalidArgument);

  const Status huge =
      CheckProductBound("alg", int64_t{1} << 62, (int64_t{1} << 31) - 1);
  EXPECT_EQ(huge.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(huge.message(),
            "alg: nnz(A) = 4611686018427387904 times max nnz(B row) = "
            "2147483647 exceeds the bound of 140737488355328 products");
}

/// Plan, Compute, Analyze, AutoTune and VerifyReorganizerInvariants run
/// the one operand check before any work. An operand past the product
/// bound is too large to build here, so mismatched extents, the check's
/// other half, show each entry point's refusal with the check's message.
TEST(OperandCheckTest, EveryEntryPointRunsTheOperandCheck) {
  const CsrMatrix a = testing_util::RandomMatrix(10, 12, 0.3, 1);
  const CsrMatrix b = testing_util::RandomMatrix(10, 12, 0.3, 2);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  const core::BlockReorganizerSpGemm reorganizer;
  auto refused = [](const Status& status, const std::string& who) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << who;
    std::string expected = who;
    expected += ": A has 12 columns but B has 10 rows";
    EXPECT_EQ(status.message(), expected);
  };
  refused(reorganizer.Plan(a, b, device).status(), reorganizer.name());
  refused(reorganizer.Compute(a, b).status(), reorganizer.name());
  refused(reorganizer.Analyze(a, b, device).status(), reorganizer.name());
  refused(core::AutoTune(a, b, device).status(), "AutoTune");
  refused(verify::VerifyReorganizerInvariants(a, b, {}), reorganizer.name());
}

/// Plan builds the operands' workload once, inside one `build-workload`
/// span, whichever algorithm plans, and stamps the plan's totals from it.
TEST(FunctionalTest, TracedPlanBuildsOneWorkloadEverywhere) {
  const CsrMatrix a = testing_util::SkewedMatrix(200, 120, 4);
  const Workload workload = BuildWorkload(a, a);
  for (const auto& alg : EveryRegisteredAlgorithm()) {
    ExecContext ctx;
    auto plan = alg->Plan(a, a, gpusim::DeviceSpec::TitanXp(), &ctx);
    ASSERT_TRUE(plan.ok()) << alg->name();
    int spans = 0;
    for (const auto& span : ctx.trace.spans()) {
      spans += span.name == "build-workload" ? 1 : 0;
    }
    EXPECT_EQ(spans, 1) << alg->name();
    EXPECT_EQ(plan->flops, workload.flops) << alg->name();
    EXPECT_EQ(plan->output_nnz, workload.output_nnz) << alg->name();
  }
}

/// (row, column, value bits) of every stored entry, in (row, column) order,
/// so kernels that emit rows in different column orders compare exactly.
std::vector<std::tuple<sparse::Index, sparse::Index, uint64_t>> SortedBits(
    const CsrMatrix& m) {
  std::vector<std::tuple<sparse::Index, sparse::Index, uint64_t>> entries;
  for (sparse::Index r = 0; r < m.rows(); ++r) {
    const sparse::SpanView row = m.Row(r);
    for (sparse::Offset k = 0; k < row.size; ++k) {
      uint64_t bits = 0;
      std::memcpy(&bits, &row.values[k], sizeof(bits));
      entries.emplace_back(r, row.indices[k], bits);
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

/// Sums start from +0.0, so an output entry whose products are all -0.0 is
/// +0.0, never -0.0. Every A row with r % 4 == 0 holds only -0.0 and B holds
/// no negative value, so those rows sum only -0.0 products; other rows mix
/// -0.0, +0.0 and nonzero products. The values are small dyadic numbers, so
/// every sum is exact and the kernels' different accumulation orders cannot
/// change a bit: the host kernels, at both thread counts, must equal the
/// reference exactly. A narrow B gives rows full of repeated columns; a
/// wide, sparse B gives rows where nearly every column is new, so the
/// kernel's mask select reads the +0.0 fill on both kinds of row.
TEST(FunctionalTest, NegativeZeroProductsMatchReferenceBits) {
  struct Shape {
    sparse::Index b_cols;
    uint64_t one_in;  // B's density is 1 / one_in
  };
  for (const Shape& shape : {Shape{36, 6}, Shape{2000, 64}}) {
    SCOPED_TRACE("B with " + std::to_string(shape.b_cols) + " columns");
    Rng rng(77);
    const sparse::Value a_values[] = {-0.0, 0.0, -2.0, 1.0, 0.5};
    const sparse::Value b_values[] = {0.0, 1.0, 3.0, 0.25};
    sparse::CooMatrix a_coo(48, 40);
    sparse::CooMatrix b_coo(40, shape.b_cols);
    for (sparse::Index r = 0; r < 48; ++r) {
      for (sparse::Index c = 0; c < 40; ++c) {
        if (rng.NextBounded(6) != 0) continue;
        a_coo.Add(r, c, r % 4 == 0 ? -0.0 : a_values[rng.NextBounded(5)]);
      }
    }
    for (sparse::Index r = 0; r < 40; ++r) {
      for (sparse::Index c = 0; c < shape.b_cols; ++c) {
        if (rng.NextBounded(shape.one_in) == 0) {
          b_coo.Add(r, c, b_values[rng.NextBounded(4)]);
        }
      }
    }
    auto a = CsrMatrix::FromCoo(a_coo);
    auto b = CsrMatrix::FromCoo(b_coo);
    ASSERT_TRUE(a.ok() && b.ok());

    auto expected = sparse::ReferenceSpGemm(*a, *b);
    ASSERT_TRUE(expected.ok());
    const auto expected_bits = SortedBits(*expected);
    int64_t zero_rows_entries = 0;
    for (const auto& [r, c, bits] : expected_bits) {
      if (r % 4 != 0) continue;
      ++zero_rows_entries;
      EXPECT_EQ(bits, 0u) << "(" << r << ", " << c << ")";
    }
    ASSERT_GT(zero_rows_entries, 0);

    core::RegisterCoreAlgorithms();
    for (const char* name : {"row-product", "outer-product", "reorganizer"}) {
      auto alg = AlgorithmRegistry::Global().Create(name);
      ASSERT_TRUE(alg.ok()) << name;
      for (int threads : {1, 3}) {
        SCOPED_TRACE(std::string(name) + " with " + std::to_string(threads) +
                     " threads");
        SetGlobalThreadCount(threads);
        auto got = (*alg)->Compute(*a, *b);
        SetGlobalThreadCount(0);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(SortedBits(*got), expected_bits);
      }
    }
  }
}

/// Random values in [-1, 1): non-dyadic, so a changed summation order
/// would show in the bits.
CsrMatrix FromPattern(sparse::Index rows, sparse::Index cols,
                      const std::vector<std::pair<sparse::Index,
                                                  sparse::Index>>& entries,
                      uint64_t seed) {
  Rng rng(seed);
  sparse::CooMatrix coo(rows, cols);
  for (const auto& [r, c] : entries) coo.Add(r, c, 2.0 * rng.NextDouble() - 1.0);
  auto m = CsrMatrix::FromCoo(coo);
  SPNET_CHECK(m.ok());
  return std::move(m).value();
}

/// Runs the host kernel at 1, 2 and 4 threads: every run matches the
/// reference and has exactly the 1-thread run's arrays, value bits included.
void ExpectKernelExactAcrossThreads(const CsrMatrix& a, const CsrMatrix& b) {
  auto expected = sparse::ReferenceSpGemm(a, b);
  ASSERT_TRUE(expected.ok());
  std::vector<CsrMatrix> runs;
  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    auto got = RowProductExpandMerge(a, b);
    SetGlobalThreadCount(0);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(CsrApproxEqual(*expected, *got, 1e-9))
        << threads << " threads";
    runs.push_back(std::move(got).value());
  }
  const CsrMatrix& base = runs.front();
  for (size_t i = 1; i < runs.size(); ++i) {
    const CsrMatrix& run = runs[i];
    EXPECT_EQ(run.ptr(), base.ptr()) << "run " << i;
    EXPECT_EQ(run.indices(), base.indices()) << "run " << i;
    ASSERT_EQ(run.values().size(), base.values().size()) << "run " << i;
    EXPECT_EQ(std::memcmp(run.values().data(), base.values().data(),
                          base.values().size() * sizeof(sparse::Value)),
              0)
        << "run " << i;
  }
}

/// Rows with far more products than output columns: the serial path's
/// per-row growth is clamped to cols, not to the product count.
TEST(FunctionalTest, RowWiderThanColsClampsGrowth) {
  std::vector<std::pair<sparse::Index, sparse::Index>> a_entries;
  std::vector<std::pair<sparse::Index, sparse::Index>> b_entries;
  for (sparse::Index c = 0; c < 40; ++c) {
    a_entries.emplace_back(0, c);
    a_entries.emplace_back(3, c);
    if (c % 7 == 0) a_entries.emplace_back(5, c);
  }
  a_entries.emplace_back(1, 9);
  for (sparse::Index r = 0; r < 40; ++r) {
    for (sparse::Index c = 0; c < 8; ++c) b_entries.emplace_back(r, c);
  }
  const CsrMatrix a = FromPattern(6, 40, a_entries, 31);
  const CsrMatrix b = FromPattern(40, 8, b_entries, 32);
  ASSERT_GT(a.RowNnz(0) * 8, b.cols());
  ExpectKernelExactAcrossThreads(a, b);
}

/// Every product of a row lands in one column, so the row is one entry
/// summed from many products.
TEST(FunctionalTest, AllProductsInOneColumn) {
  std::vector<std::pair<sparse::Index, sparse::Index>> a_entries;
  std::vector<std::pair<sparse::Index, sparse::Index>> b_entries;
  for (sparse::Index r = 0; r < 5; ++r) {
    if (r == 2) continue;
    for (sparse::Index c = 0; c < 50; ++c) a_entries.emplace_back(r, c);
  }
  for (sparse::Index r = 0; r < 50; ++r) b_entries.emplace_back(r, 17);
  const CsrMatrix a = FromPattern(5, 50, a_entries, 41);
  const CsrMatrix b = FromPattern(50, 30, b_entries, 42);
  ExpectKernelExactAcrossThreads(a, b);
  auto got = RowProductExpandMerge(a, b);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->nnz(), 4);
}

/// Long rows separated by runs of empty rows: each row starts where the
/// last non-empty row ended, after the previous row shrank its growth.
TEST(FunctionalTest, LongRowsBetweenEmptyRows) {
  Rng rng(51);
  std::vector<std::pair<sparse::Index, sparse::Index>> a_entries;
  std::vector<std::pair<sparse::Index, sparse::Index>> b_entries;
  for (sparse::Index r = 0; r < 80; r += 20) {
    for (sparse::Index c = 0; c < 60; ++c) {
      if (rng.NextBounded(5) != 0) a_entries.emplace_back(r, c);
    }
  }
  for (sparse::Index r = 0; r < 60; ++r) {
    for (sparse::Index c = 0; c < 70; ++c) {
      if (rng.NextBounded(3) == 0) b_entries.emplace_back(r, c);
    }
  }
  const CsrMatrix a = FromPattern(80, 60, a_entries, 52);
  const CsrMatrix b = FromPattern(60, 70, b_entries, 53);
  ExpectKernelExactAcrossThreads(a, b);
}

/// The kernel pin inputs: four families with non-dyadic values, a
/// hub-heavy power law, RMAT, a narrow quasi-regular band and
/// block-diagonal communities, each with the hash of A*A.
struct KernelPin {
  const char* input;
  Result<CsrMatrix> a;
  uint64_t hash;
};

std::vector<KernelPin> KernelPins() {
  auto power_law = [] {
    datasets::PowerLawParams p;
    p.rows = 4000;
    p.cols = 4000;
    p.nnz = 40000;
    p.row_skew = 1.0;
    p.col_skew = 1.0;
    p.seed = 61;
    return datasets::GeneratePowerLaw(p);
  };
  auto rmat = [] {
    datasets::RmatParams p;
    p.scale = 12;
    p.edge_count = 40000;
    p.seed = 62;
    return datasets::GenerateRmat(p);
  };
  auto band = [] {
    datasets::QuasiRegularParams p;
    p.n = 2000;
    p.nnz = 32000;
    p.band_frac = 0.01;
    p.seed = 63;
    return datasets::GenerateQuasiRegular(p);
  };
  auto blocks = [] {
    datasets::BlockDiagonalParams p;
    p.n = 3000;
    p.block_size = 64;
    p.fill = 0.3;
    p.seed = 64;
    return datasets::GenerateBlockDiagonal(p);
  };
  std::vector<KernelPin> pins;
  pins.push_back({"powerlaw-skew1", power_law(), 4747001641685424634ULL});
  pins.push_back({"rmat-scale12", rmat(), 2282403758975508685ULL});
  pins.push_back({"narrow-band", band(), 14696501119157934847ULL});
  pins.push_back({"block-diagonal", blocks(), 2843891872387646859ULL});
  return pins;
}

/// Pins the host kernel's ptr, indices and value bits for A*A at 1 thread
/// (the serial single pass) and at 4 (the parallel two-pass).
TEST(FunctionalTest, KernelOutputBitsArePinned) {
  for (const KernelPin& pin : KernelPins()) {
    SCOPED_TRACE(pin.input);
    ASSERT_TRUE(pin.a.ok()) << pin.a.status().ToString();
    const CsrMatrix& a = *pin.a;
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      SetGlobalThreadCount(threads);
      auto c = RowProductExpandMerge(a, a);
      SetGlobalThreadCount(0);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      EXPECT_EQ(testing_util::OutputHash(*c), pin.hash);
    }
  }
}

/// Frees an index and a value array of `n` elements each, filled with NaN,
/// -0.0 and random bit patterns, so that the next large request of each
/// type is handed that memory. Returns the value array's address.
const void* LeaveStaleBlocks(size_t n, uint64_t seed) {
  Rng rng(seed);
  sparse::IndexArray idx(n);
  sparse::ValueArray val(n);
  for (size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<sparse::Index>(rng.NextU64());
    const uint64_t bits = i % 3 == 0   ? 0x7ff8000000000000ULL  // NaN
                          : i % 3 == 1 ? 0x8000000000000000ULL  // -0.0
                                       : rng.NextU64();
    val[i] = std::bit_cast<sparse::Value>(bits);
  }
  return val.data();
}

/// Runs A*B at 1 and 4 threads, each time into memory that the last large
/// arrays left full of stale bits, and checks the output hash. Where the
/// arrays keep blocks and the value request is large, the output must
/// land in that stale memory, so the check cannot pass on fresh pages.
void ExpectStaleMemoryNeverReachesOutput(const CsrMatrix& a,
                                         const CsrMatrix& b, uint64_t hash) {
  const auto flops = static_cast<size_t>(sparse::SpGemmFlops(a, b));
  const size_t n = std::max(flops, kHugePageBytes / sizeof(sparse::Index));
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const void* stale =
        LeaveStaleBlocks(n, 71 + static_cast<uint64_t>(threads));
    SetGlobalThreadCount(threads);
    auto c = RowProductExpandMerge(a, b);
    SetGlobalThreadCount(0);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_EQ(testing_util::OutputHash(*c), hash);
    const size_t request = c->values().capacity() * sizeof(sparse::Value);
    if (kArraysKeepBlocks && request >= kHugePageBytes) {
      EXPECT_EQ(static_cast<const void*>(c->values().data()), stale);
    }
  }
}

TEST(FunctionalTest, StaleMemoryNeverReachesTheOutput) {
  for (const KernelPin& pin : KernelPins()) {
    SCOPED_TRACE(pin.input);
    ASSERT_TRUE(pin.a.ok()) << pin.a.status().ToString();
    ExpectStaleMemoryNeverReachesOutput(*pin.a, *pin.a, pin.hash);
  }
}

/// Every output entry sums only -0.0 products, (-1)(+0) then (+1)(-0), so
/// every value must come out +0.0, whatever the memory held.
TEST(FunctionalTest, NegativeZeroProductsSumToPositiveZeroOverStaleMemory) {
  constexpr sparse::Index kRows = 1000;
  constexpr sparse::Index kCols = 2000;
  std::vector<sparse::Offset> a_ptr;
  sparse::IndexArray a_idx;
  sparse::ValueArray a_val;
  for (sparse::Index r = 0; r <= kRows; ++r) a_ptr.push_back(2 * r);
  for (sparse::Index r = 0; r < kRows; ++r) {
    a_idx.insert(a_idx.end(), {0, 1});
    a_val.insert(a_val.end(), {-1.0, 1.0});
  }
  sparse::IndexArray b_idx;
  sparse::ValueArray b_val;
  for (sparse::Index row = 0; row < 2; ++row) {
    for (sparse::Index c = 0; c < kCols; ++c) {
      b_idx.push_back(c);
      b_val.push_back(row == 0 ? 0.0 : -0.0);
    }
  }
  auto a = CsrMatrix::FromParts(kRows, 2, std::move(a_ptr), std::move(a_idx),
                                std::move(a_val));
  auto b = CsrMatrix::FromParts(2, kCols, {0, kCols, 2 * kCols},
                                std::move(b_idx), std::move(b_val));
  ASSERT_TRUE(a.ok() && b.ok());
  // The expected output, built directly: row r holds columns 0..kCols-1
  // in order, each +0.0.
  std::vector<sparse::Offset> c_ptr;
  for (sparse::Index r = 0; r <= kRows; ++r) {
    c_ptr.push_back(static_cast<sparse::Offset>(r) * kCols);
  }
  sparse::IndexArray c_idx;
  for (sparse::Index r = 0; r < kRows; ++r) {
    for (sparse::Index c = 0; c < kCols; ++c) c_idx.push_back(c);
  }
  auto expected = CsrMatrix::FromParts(
      kRows, kCols, std::move(c_ptr), std::move(c_idx),
      sparse::ValueArray(static_cast<size_t>(kRows) * kCols, 0.0));
  ASSERT_TRUE(expected.ok());
  ExpectStaleMemoryNeverReachesOutput(*a, *b,
                                      testing_util::OutputHash(*expected));
}

TEST(PlanTest, AllAlgorithmsProduceConsistentFlops) {
  const CsrMatrix a = testing_util::SkewedMatrix(200, 120, 90);
  const int64_t flops = sparse::SpGemmFlops(a, a);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  for (const auto& alg : core::MakeAllAlgorithms()) {
    auto plan = alg->Plan(a, a, device);
    ASSERT_TRUE(plan.ok()) << alg->name();
    EXPECT_EQ(plan->flops, flops) << alg->name();
    EXPECT_GT(plan->output_nnz, 0) << alg->name();
  }
}

TEST(MeasureTest, ProducesPositiveTimings) {
  const CsrMatrix a = testing_util::SkewedMatrix(200, 120, 91);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  for (const auto& alg : core::MakeAllAlgorithms()) {
    auto m = Measure(*alg, a, a, device);
    ASSERT_TRUE(m.ok()) << alg->name();
    EXPECT_GT(m->total_seconds, 0.0) << alg->name();
    EXPECT_GT(m->Gflops(), 0.0) << alg->name();
    EXPECT_GE(m->total_seconds, m->stats.seconds) << alg->name();
  }
}

TEST(MeasureTest, PhaseSplitCoversDeviceTime) {
  const CsrMatrix a = testing_util::SkewedMatrix(300, 200, 92);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  const auto outer = MakeOuterProduct();
  auto m = Measure(*outer, a, a, device);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m->expansion.cycles, 0.0);
  EXPECT_GT(m->merge.cycles, 0.0);
  EXPECT_NEAR(m->expansion.cycles + m->merge.cycles, m->stats.cycles,
              1e-6 + 0.01 * m->stats.cycles);
}

}  // namespace
}  // namespace spgemm
}  // namespace spnet
