#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "datasets/generators.h"
#include "datasets/guided_cdf.h"
#include "sparse/stats.h"
#include "tests/test_util.h"

namespace spnet {
namespace datasets {
namespace {

using sparse::CsrMatrix;

TEST(RmatTest, ProducesRequestedShape) {
  RmatParams p;
  p.scale = 10;
  p.edge_count = 4096;
  auto m = GenerateRmat(p);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->rows(), 1024);
  EXPECT_EQ(m->cols(), 1024);
  // redraw_duplicates keeps nnz close to the request.
  EXPECT_GE(m->nnz(), p.edge_count * 9 / 10);
  EXPECT_LE(m->nnz(), p.edge_count);
  EXPECT_TRUE(m->Validate().ok());
}

TEST(RmatTest, DeterministicForSeed) {
  RmatParams p;
  p.scale = 9;
  p.edge_count = 2000;
  p.seed = 7;
  auto a = GenerateRmat(p);
  auto b = GenerateRmat(p);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(CsrApproxEqual(*a, *b, 0.0));
  p.seed = 8;
  auto c = GenerateRmat(p);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(CsrApproxEqual(*a, *c, 0.0));
}

TEST(RmatTest, SkewedParamsProduceSkewedDegrees) {
  RmatParams uniform;
  uniform.scale = 12;
  uniform.edge_count = 40000;
  uniform.a = uniform.b = uniform.c = uniform.d = 0.25;
  RmatParams skewed = uniform;
  skewed.a = 0.57;
  skewed.b = skewed.c = 0.19;
  skewed.d = 0.05;
  auto mu = GenerateRmat(uniform);
  auto ms = GenerateRmat(skewed);
  ASSERT_TRUE(mu.ok() && ms.ok());
  const auto su = sparse::ComputeRowStats(*mu);
  const auto ss = sparse::ComputeRowStats(*ms);
  EXPECT_GT(ss.gini, su.gini);
  EXPECT_GT(ss.max_nnz, su.max_nnz);
}

TEST(RmatTest, RejectsBadParameters) {
  RmatParams p;
  p.scale = 0;
  EXPECT_FALSE(GenerateRmat(p).ok());
  p.scale = 10;
  p.edge_count = -1;
  EXPECT_FALSE(GenerateRmat(p).ok());
  p.edge_count = 100;
  p.a = 0.9;  // probabilities no longer sum to 1
  EXPECT_FALSE(GenerateRmat(p).ok());
}

TEST(PowerLawTest, ShapeAndDeterminism) {
  PowerLawParams p;
  p.rows = 2000;
  p.cols = 2000;
  p.nnz = 12000;
  p.row_skew = 0.9;
  p.col_skew = 0.9;
  auto a = GeneratePowerLaw(p);
  auto b = GeneratePowerLaw(p);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows(), 2000);
  EXPECT_NEAR(static_cast<double>(a->nnz()), 12000.0, 1200.0);
  EXPECT_TRUE(CsrApproxEqual(*a, *b, 0.0));
  EXPECT_TRUE(a->Validate().ok());
}

TEST(PowerLawTest, SkewControlsGini) {
  PowerLawParams flat;
  flat.rows = flat.cols = 3000;
  flat.nnz = 20000;
  flat.row_skew = flat.col_skew = 0.1;
  PowerLawParams steep = flat;
  steep.row_skew = steep.col_skew = 1.0;
  auto mf = GeneratePowerLaw(flat);
  auto ms = GeneratePowerLaw(steep);
  ASSERT_TRUE(mf.ok() && ms.ok());
  EXPECT_GT(sparse::ComputeRowStats(*ms).gini,
            sparse::ComputeRowStats(*mf).gini + 0.2);
}

TEST(PowerLawTest, AlignedHubsInflateOuterProductWork) {
  PowerLawParams p;
  p.rows = p.cols = 4000;
  p.nnz = 30000;
  p.row_skew = p.col_skew = 1.0;
  p.align_hubs = true;
  auto aligned = GeneratePowerLaw(p);
  p.align_hubs = false;
  auto unaligned = GeneratePowerLaw(p);
  ASSERT_TRUE(aligned.ok() && unaligned.ok());
  // C = A^2 work explodes when row hubs are also column hubs.
  EXPECT_GT(sparse::SpGemmFlops(*aligned, *aligned),
            2 * sparse::SpGemmFlops(*unaligned, *unaligned));
}

TEST(PowerLawTest, RejectsBadParameters) {
  PowerLawParams p;
  p.rows = 0;
  p.cols = 10;
  p.nnz = 5;
  EXPECT_FALSE(GeneratePowerLaw(p).ok());
  p.rows = 10;
  p.nnz = 101;  // > rows*cols
  EXPECT_FALSE(GeneratePowerLaw(p).ok());
}

TEST(QuasiRegularTest, ShapeDiagonalAndRegularity) {
  QuasiRegularParams p;
  p.n = 5000;
  p.nnz = 60000;
  p.degree_jitter = 0.2;
  auto m = GenerateQuasiRegular(p);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 5000);
  EXPECT_NEAR(static_cast<double>(m->nnz()), 60000.0, 6000.0);
  // Full diagonal.
  for (sparse::Index r = 0; r < 100; ++r) {
    const sparse::SpanView row = m->Row(r);
    bool has_diag = false;
    for (sparse::Offset k = 0; k < row.size; ++k) {
      if (row.indices[k] == r) has_diag = true;
    }
    EXPECT_TRUE(has_diag) << "row " << r;
  }
  // Low skew.
  EXPECT_LT(sparse::ComputeRowStats(*m).gini, 0.2);
}

TEST(QuasiRegularTest, BandRespected) {
  QuasiRegularParams p;
  p.n = 4000;
  p.nnz = 40000;
  p.band_frac = 0.01;  // band halfwidth 40
  auto m = GenerateQuasiRegular(p);
  ASSERT_TRUE(m.ok());
  const int64_t band = 40;
  for (sparse::Index r = 0; r < m->rows(); r += 97) {
    const sparse::SpanView row = m->Row(r);
    for (sparse::Offset k = 0; k < row.size; ++k) {
      EXPECT_LE(std::abs(static_cast<int64_t>(row.indices[k]) - r), band);
    }
  }
}

TEST(BlockDiagonalTest, EdgesStayInsideBlocksWithFullDiagonal) {
  BlockDiagonalParams p;
  p.n = 100;
  p.block_size = 24;
  p.fill = 0.3;
  auto m = GenerateBlockDiagonal(p);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->rows(), 100);
  EXPECT_EQ(m->cols(), 100);
  ASSERT_TRUE(m->Validate().ok());
  for (sparse::Index r = 0; r < m->rows(); ++r) {
    const sparse::Index block_begin = (r / p.block_size) * p.block_size;
    const sparse::Index block_end =
        std::min<sparse::Index>(p.n, block_begin + p.block_size);
    const sparse::SpanView row = m->Row(r);
    bool has_diag = false;
    for (sparse::Offset k = 0; k < row.size; ++k) {
      EXPECT_GE(row.indices[k], block_begin) << "row " << r;
      EXPECT_LT(row.indices[k], block_end) << "row " << r;
      if (row.indices[k] == r) has_diag = true;
    }
    EXPECT_TRUE(has_diag) << "row " << r;
  }
  // fill=0.3 over 24x24 blocks lands well above the bare diagonal.
  EXPECT_GT(m->nnz(), m->rows());
}

TEST(BlockDiagonalTest, Deterministic) {
  BlockDiagonalParams p;
  p.n = 96;
  p.block_size = 16;
  p.fill = 0.25;
  auto a = GenerateBlockDiagonal(p);
  auto b = GenerateBlockDiagonal(p);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(CsrApproxEqual(*a, *b, 0.0));
  p.seed = 43;
  auto c = GenerateBlockDiagonal(p);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(CsrApproxEqual(*a, *c, 0.0));
}

TEST(BlockDiagonalTest, RejectsBadParameters) {
  BlockDiagonalParams p;
  p.n = 0;
  EXPECT_FALSE(GenerateBlockDiagonal(p).ok());
  p.n = 10;
  p.block_size = 0;
  EXPECT_FALSE(GenerateBlockDiagonal(p).ok());
  p.block_size = 4;
  p.fill = 1.5;
  EXPECT_FALSE(GenerateBlockDiagonal(p).ok());
  p.fill = -0.1;
  EXPECT_FALSE(GenerateBlockDiagonal(p).ok());
}

TEST(BlockDiagonalTest, ZeroFillKeepsOnlyTheDiagonal) {
  BlockDiagonalParams p;
  p.n = 50;
  p.block_size = 10;
  p.fill = 0.0;
  p.weighted = false;
  auto m = GenerateBlockDiagonal(p);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->nnz(), 50);
  for (sparse::Index r = 0; r < m->rows(); ++r) {
    const sparse::SpanView row = m->Row(r);
    ASSERT_EQ(row.size, 1) << "row " << r;
    EXPECT_EQ(row.indices[0], r);
    EXPECT_EQ(row.values[0], 1.0);
  }
}

TEST(QuasiRegularTest, Deterministic) {
  QuasiRegularParams p;
  p.n = 1000;
  p.nnz = 8000;
  auto a = GenerateQuasiRegular(p);
  auto b = GenerateQuasiRegular(p);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(CsrApproxEqual(*a, *b, 0.0));
}

/// The Zipf CDF GeneratePowerLaw samples columns from.
std::vector<double> ZipfCdf(sparse::Index n, double skew) {
  std::vector<double> cdf;
  double sum = 0.0;
  for (sparse::Index j = 0; j < n; ++j) {
    sum += std::pow(static_cast<double>(j) + 1.0, -skew);
    cdf.push_back(sum);
  }
  return cdf;
}

/// An n-value CDF ending at `total` whose values sit on, and one ulp
/// either side of, its bucket edges up to about total/3. The widths are not
/// exact in binary, so a draw's quotient can land one bucket off: at
/// (1.0, 301) some draw one ulp below an edge gets the bucket above it, and
/// at (6.839128625283065, 8502) some draw one ulp above an edge gets the
/// bucket below it, each next to a CDF value that then decides the answer.
std::vector<double> EdgeHuggingCdf(double total, size_t n) {
  const double width = total / static_cast<double>(n);
  std::vector<double> cdf;
  for (int k = 1; cdf.size() + 3 < n; ++k) {
    const double edge = static_cast<double>(k) * width;
    cdf.push_back(std::nextafter(edge, 0.0));
    cdf.push_back(edge);
    cdf.push_back(std::nextafter(edge, total));
  }
  while (cdf.size() + 1 < n) cdf.push_back((cdf.back() + total) / 2);
  cdf.push_back(total);
  return cdf;
}

/// LowerBound returns std::lower_bound's index at 0, at every bucket edge
/// and CDF value and one ulp either side of each, and at and past the
/// total, on uniform, skewed, single-rank and edge-hugging CDFs.
TEST(GuidedCdfTest, LowerBoundMatchesStdLowerBound) {
  const std::vector<double> cdfs[] = {
      ZipfCdf(3000, 0.0), ZipfCdf(20000, 0.8), ZipfCdf(2000, 1.6),
      ZipfCdf(1, 0.8),    ZipfCdf(64, 2.0),
      EdgeHuggingCdf(1.0, 301), EdgeHuggingCdf(6.839128625283065, 8502),
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& values : cdfs) {
    SCOPED_TRACE(testing_util::Numbered("cdf size ", values.size()));
    const GuidedCdf cdf(values);
    const auto n = static_cast<sparse::Index>(values.size());
    std::vector<double> points = {0.0, cdf.total(),
                                  std::nextafter(cdf.total(), kInf)};
    auto add_with_neighbours = [&points](double u) {
      points.push_back(std::nextafter(u, -kInf));
      points.push_back(u);
      points.push_back(std::nextafter(u, kInf));
    };
    for (sparse::Index k = 1; k < n; ++k) {
      add_with_neighbours(static_cast<double>(k) * (cdf.total() / n));
    }
    for (double v : values) add_with_neighbours(v);
    for (double u : points) {
      const auto expected = static_cast<sparse::Index>(
          std::lower_bound(values.begin(), values.end(), u) - values.begin());
      ASSERT_EQ(cdf.LowerBound(u), expected) << "u = " << u;
    }
  }
}

/// Pins every bit (ptr, indices, value bits) the power-law and
/// quasi-regular generators produce. The cases cover weighted and
/// unweighted power-law, a rectangular one, a tiny hub-heavy one whose top
/// rows exhaust their sampling attempts and take the dense-row fallback,
/// and quasi-regular rows that stop short of their degree at the band edge.
/// The column sampler's cases stress its guide table: a uniform CDF (every
/// bucket edge is a CDF value), a skew at which rank 0 spans most buckets,
/// very wide and very narrow shapes, a single column, and a weighted
/// hub-heavy square.
TEST(GeneratorsTest, OutputBitsArePinned) {
  auto power_law = [](sparse::Index rows, sparse::Index cols, int64_t nnz,
                      double row_skew, double col_skew, bool weighted) {
    PowerLawParams p;
    p.rows = rows;
    p.cols = cols;
    p.nnz = nnz;
    p.row_skew = row_skew;
    p.col_skew = col_skew;
    p.weighted = weighted;
    p.seed = 17;
    auto m = GeneratePowerLaw(p);
    SPNET_CHECK(m.ok()) << m.status().ToString();
    return std::move(m).value();
  };
  auto quasi_regular = [](sparse::Index n, int64_t nnz, double band_frac,
                          double jitter) {
    QuasiRegularParams p;
    p.n = n;
    p.nnz = nnz;
    p.band_frac = band_frac;
    p.degree_jitter = jitter;
    p.seed = 19;
    auto m = GenerateQuasiRegular(p);
    SPNET_CHECK(m.ok()) << m.status().ToString();
    return std::move(m).value();
  };
  struct Pin {
    const char* name;
    CsrMatrix m;
    uint64_t hash;
  };
  const Pin pins[] = {
      {"powerlaw-unweighted", power_law(3000, 3000, 30000, 0.8, 0.8, false),
       17053454903603648725ULL},
      {"powerlaw-weighted", power_law(3000, 3000, 30000, 0.9, 0.7, true),
       15093739477184408602ULL},
      {"powerlaw-rectangular", power_law(400, 700, 6000, 0.8, 0.8, true),
       17527053300841039468ULL},
      {"powerlaw-hub-fallback", power_law(64, 64, 1500, 1.2, 2.0, true),
       10246315572301366142ULL},
      {"powerlaw-uniform-columns",
       power_law(2000, 2000, 20000, 0.8, 0.0, true), 10331698124499535579ULL},
      {"powerlaw-rank0-heavy", power_law(2000, 2000, 20000, 0.8, 1.6, false),
       15471471010281997150ULL},
      {"powerlaw-wide", power_law(3000, 20000, 30000, 0.8, 0.8, true),
       7112973731562957232ULL},
      {"powerlaw-narrow", power_law(20000, 64, 60000, 0.8, 0.8, false),
       17865073448577296652ULL},
      {"powerlaw-one-column", power_law(50, 1, 30, 0.8, 0.8, true),
       16561169407176368407ULL},
      {"powerlaw-weighted-hubs", power_law(500, 500, 20000, 1.2, 1.5, true),
       7629398989190918434ULL},
      {"quasi-regular", quasi_regular(3000, 30000, 0.02, 0.25),
       5520101886445167034ULL},
      {"quasi-regular-short-rows", quasi_regular(200, 3400, 0.0, 0.0),
       6008741189295246647ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    EXPECT_EQ(testing_util::OutputHash(pin.m), pin.hash);
  }
}

}  // namespace
}  // namespace datasets
}  // namespace spnet
