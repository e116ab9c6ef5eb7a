// Determinism suite: the parallel execution engine must produce outputs
// bit-identical to --threads=1 for every thread count, on every input
// family — skewed, banded, and degenerate. These tests drive the exact
// code paths the bench sweeps and the fuzz-agreement suite rely on.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/block_reorganizer.h"
#include "datasets/generators.h"
#include "sparse/csr_matrix.h"
#include "sparse/reference_spgemm.h"
#include "spgemm/algorithm_registry.h"
#include "spgemm/functional.h"
#include "spgemm/workload_model.h"
#include "tests/test_util.h"

namespace spnet {
namespace {

using sparse::CscMatrix;
using sparse::CsrMatrix;
using sparse::Index;
using sparse::Offset;
using sparse::Value;

/// Thread counts the suite sweeps: serial, even, odd/prime (chunks don't
/// divide evenly), and whatever this host actually has.
std::vector<int> ThreadCounts() {
  std::vector<int> counts = {1, 2, 7};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 1 && hw != 2 && hw != 7) counts.push_back(hw);
  return counts;
}

/// Restores the global pool to the hardware default after each test so
/// the suite never leaks a thread-count override.
class DeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { SetGlobalThreadCount(0); }
};

void ExpectBitIdentical(const CsrMatrix& expected, const CsrMatrix& actual,
                        const std::string& label) {
  EXPECT_EQ(expected.rows(), actual.rows()) << label;
  EXPECT_EQ(expected.cols(), actual.cols()) << label;
  EXPECT_EQ(expected.ptr(), actual.ptr()) << label << ": row pointers";
  EXPECT_EQ(expected.indices(), actual.indices()) << label << ": indices";
  // operator== on double vectors is exact comparison — bit-identical
  // values (no tolerance), which is the contract under test.
  EXPECT_EQ(expected.values(), actual.values()) << label << ": values";
}

using EngineFn = Result<CsrMatrix> (*)(const CsrMatrix&, const CsrMatrix&);

struct Engine {
  const char* name;
  EngineFn fn;
};

/// Compute of a registered algorithm, for engines behind the registry.
Result<CsrMatrix> RegistryCompute(const std::string& name, const CsrMatrix& a,
                                  const CsrMatrix& b) {
  core::RegisterCoreAlgorithms();
  SPNET_ASSIGN_OR_RETURN(auto alg,
                         spgemm::AlgorithmRegistry::Global().Create(name));
  return alg->Compute(a, b);
}

Result<CsrMatrix> OuterProductCompute(const CsrMatrix& a, const CsrMatrix& b) {
  return RegistryCompute("outer-product", a, b);
}

Result<CsrMatrix> ReorganizerCompute(const CsrMatrix& a, const CsrMatrix& b) {
  return RegistryCompute("reorganizer", a, b);
}

const Engine kEngines[] = {
    {"ReferenceSpGemm", &sparse::ReferenceSpGemm},
    {"RowProductExpandMerge", &spgemm::RowProductExpandMerge},
    {"outer-product Compute", &OuterProductCompute},
    {"reorganizer Compute", &ReorganizerCompute},
};

void CheckAllEnginesDeterministic(const CsrMatrix& a, const CsrMatrix& b,
                                  const std::string& input_label) {
  for (const Engine& engine : kEngines) {
    SetGlobalThreadCount(1);
    auto serial = engine.fn(a, b);
    ASSERT_TRUE(serial.ok())
        << engine.name << " on " << input_label << ": "
        << serial.status().ToString();
    for (int threads : ThreadCounts()) {
      SetGlobalThreadCount(threads);
      auto parallel = engine.fn(a, b);
      ASSERT_TRUE(parallel.ok())
          << engine.name << " on " << input_label << " with " << threads
          << " threads: " << parallel.status().ToString();
      ExpectBitIdentical(*serial, *parallel,
                         std::string(engine.name) + " on " + input_label +
                             " with " + std::to_string(threads) + " threads");
    }
    SetGlobalThreadCount(0);
  }
}

CsrMatrix BandedMatrix(Index n, int64_t nnz, uint64_t seed) {
  datasets::QuasiRegularParams params;
  params.n = n;
  params.nnz = nnz;
  params.seed = seed;
  auto m = datasets::GenerateQuasiRegular(params);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m).value();
}

CsrMatrix ZipfMatrix(Index n, int64_t nnz, uint64_t seed) {
  datasets::PowerLawParams params;
  params.rows = params.cols = n;
  params.nnz = nnz;
  params.seed = seed;
  auto m = datasets::GeneratePowerLaw(params);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m).value();
}

TEST_F(DeterminismTest, BandedSquare) {
  const CsrMatrix a = BandedMatrix(600, 7200, 11);
  CheckAllEnginesDeterministic(a, a, "banded 600x600");
}

TEST_F(DeterminismTest, ZipfSkewedSquare) {
  const CsrMatrix a = ZipfMatrix(800, 9000, 13);
  CheckAllEnginesDeterministic(a, a, "zipf 800x800");
}

TEST_F(DeterminismTest, ZipfTimesBanded) {
  const CsrMatrix a = ZipfMatrix(500, 6000, 17);
  const CsrMatrix b = BandedMatrix(500, 5000, 19);
  CheckAllEnginesDeterministic(a, b, "zipf x banded");
}

TEST_F(DeterminismTest, RectangularChain) {
  const CsrMatrix a = testing_util::RandomMatrix(120, 90, 0.06, 23);
  const CsrMatrix b = testing_util::RandomMatrix(90, 150, 0.05, 29);
  CheckAllEnginesDeterministic(a, b, "rectangular 120x90 * 90x150");
}

TEST_F(DeterminismTest, ZeroRowMatrix) {
  auto a = CsrMatrix::FromParts(0, 5, {0}, {}, {});
  ASSERT_TRUE(a.ok());
  auto b = CsrMatrix::FromParts(5, 4, {0, 0, 0, 0, 0, 0}, {}, {});
  ASSERT_TRUE(b.ok());
  CheckAllEnginesDeterministic(*a, *b, "0x5 * 5x4");
}

TEST_F(DeterminismTest, ZeroNnzMatrix) {
  auto a =
      CsrMatrix::FromParts(10, 8, std::vector<Offset>(11, 0), {}, {});
  ASSERT_TRUE(a.ok());
  auto b = CsrMatrix::FromParts(8, 6, std::vector<Offset>(9, 0), {}, {});
  ASSERT_TRUE(b.ok());
  CheckAllEnginesDeterministic(*a, *b, "empty 10x8 * 8x6");
}

TEST_F(DeterminismTest, OneByOneMatrix) {
  auto a = CsrMatrix::FromParts(1, 1, {0, 1}, {0}, {2.5});
  ASSERT_TRUE(a.ok());
  CheckAllEnginesDeterministic(*a, *a, "1x1");
}

TEST_F(DeterminismTest, EmptyRowsAndColumnsMix) {
  // Rows 0 and 3 empty; column 2 never touched — exercises the
  // zero-work rows inside parallel chunks.
  auto a = CsrMatrix::FromParts(4, 4, {0, 0, 2, 3, 3}, {0, 3, 1},
                                {1.0, 2.0, 3.0});
  ASSERT_TRUE(a.ok());
  CheckAllEnginesDeterministic(*a, *a, "sparse rows 4x4");
}

TEST_F(DeterminismTest, TransposeBitIdenticalAcrossThreadCounts) {
  const CsrMatrix a = ZipfMatrix(700, 8000, 31);
  SetGlobalThreadCount(1);
  const CsrMatrix serial = a.Transpose();
  for (int threads : ThreadCounts()) {
    SetGlobalThreadCount(threads);
    const CsrMatrix parallel = a.Transpose();
    ExpectBitIdentical(serial, parallel,
                       "Transpose with " + std::to_string(threads));
  }
}

TEST_F(DeterminismTest, CscFromCsrBitIdenticalAcrossThreadCounts) {
  const CsrMatrix a = BandedMatrix(500, 6000, 37);
  SetGlobalThreadCount(1);
  const CscMatrix serial = CscMatrix::FromCsr(a);
  for (int threads : ThreadCounts()) {
    SetGlobalThreadCount(threads);
    const CscMatrix parallel = CscMatrix::FromCsr(a);
    EXPECT_EQ(serial.ptr(), parallel.ptr());
    EXPECT_EQ(serial.indices(), parallel.indices());
    EXPECT_EQ(serial.values(), parallel.values());
  }
}

TEST_F(DeterminismTest, ExactOutputNnzAcrossThreadCounts) {
  const CsrMatrix a = ZipfMatrix(600, 7000, 41);
  SetGlobalThreadCount(1);
  auto serial = sparse::SpGemmExactOutputNnz(a, a);
  ASSERT_TRUE(serial.ok());
  for (int threads : ThreadCounts()) {
    SetGlobalThreadCount(threads);
    auto parallel = sparse::SpGemmExactOutputNnz(a, a);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(*serial, *parallel) << threads << " threads";
  }
}

TEST_F(DeterminismTest, BuildWorkloadAcrossThreadCounts) {
  const CsrMatrix a = ZipfMatrix(600, 7000, 43);
  const CsrMatrix b = BandedMatrix(600, 6000, 47);
  SetGlobalThreadCount(1);
  const spgemm::Workload serial = spgemm::BuildWorkload(a, b);
  for (int threads : ThreadCounts()) {
    SetGlobalThreadCount(threads);
    const spgemm::Workload parallel = spgemm::BuildWorkload(a, b);
    EXPECT_EQ(serial.a_col_nnz, parallel.a_col_nnz) << threads;
    EXPECT_EQ(serial.b_row_nnz, parallel.b_row_nnz) << threads;
    EXPECT_EQ(serial.pair_work, parallel.pair_work) << threads;
    EXPECT_EQ(serial.row_chat, parallel.row_chat) << threads;
    EXPECT_EQ(serial.row_c_est, parallel.row_c_est) << threads;
    EXPECT_EQ(serial.flops, parallel.flops) << threads;
    EXPECT_EQ(serial.output_nnz, parallel.output_nnz) << threads;
  }
}

TEST_F(DeterminismTest, ParallelOutputStillMatchesReferenceNumerically) {
  // Guard against a parallel scheme that is self-consistent but wrong:
  // the row-product and outer-product results must still agree with the
  // reference oracle (tolerant comparison, unordered rows allowed).
  const CsrMatrix a = ZipfMatrix(400, 5000, 53);
  SetGlobalThreadCount(7);
  auto reference = sparse::ReferenceSpGemm(a, a);
  ASSERT_TRUE(reference.ok());
  auto row = spgemm::RowProductExpandMerge(a, a);
  ASSERT_TRUE(row.ok());
  auto outer = OuterProductCompute(a, a);
  ASSERT_TRUE(outer.ok());
  EXPECT_TRUE(sparse::CsrApproxEqual(*reference, *row));
  EXPECT_TRUE(sparse::CsrApproxEqual(*reference, *outer));
}

}  // namespace
}  // namespace spnet
