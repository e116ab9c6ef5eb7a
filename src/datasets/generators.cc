#include "datasets/generators.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datasets/guided_cdf.h"

namespace spnet {
namespace datasets {

using sparse::CooMatrix;
using sparse::CsrMatrix;
using sparse::Index;
using sparse::IndexArray;
using sparse::Offset;
using sparse::Value;
using sparse::ValueArray;

namespace {

// Packs an edge into one 64-bit key for dedup.
uint64_t EdgeKey(Index r, Index c) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(r)) << 32) |
         static_cast<uint32_t>(c);
}

// Draws one R-MAT edge by quadrant descent.
void RmatEdge(const RmatParams& p, Rng* rng, Index* row, Index* col) {
  Index r = 0;
  Index c = 0;
  for (int level = p.scale - 1; level >= 0; --level) {
    const double u = rng->NextDouble();
    if (u < p.a) {
      // top-left: nothing to add
    } else if (u < p.a + p.b) {
      c |= (Index{1} << level);
    } else if (u < p.a + p.b + p.c) {
      r |= (Index{1} << level);
    } else {
      r |= (Index{1} << level);
      c |= (Index{1} << level);
    }
  }
  *row = r;
  *col = c;
}

}  // namespace

Result<CsrMatrix> GenerateRmat(const RmatParams& p) {
  if (p.scale < 1 || p.scale > 30) {
    return Status::InvalidArgument("rmat scale out of range: " +
                                   std::to_string(p.scale));
  }
  if (p.edge_count < 0) {
    return Status::InvalidArgument("negative edge count");
  }
  const double prob_sum = p.a + p.b + p.c + p.d;
  if (std::fabs(prob_sum - 1.0) > 1e-6) {
    return Status::InvalidArgument("rmat probabilities must sum to 1, got " +
                                   std::to_string(prob_sum));
  }
  const Index n = Index{1} << p.scale;
  Rng rng(p.seed);

  std::unordered_set<uint64_t> seen;
  seen.reserve(static_cast<size_t>(p.edge_count) * 2);
  CooMatrix coo(n, n);
  coo.Reserve(p.edge_count);

  // With redraw_duplicates, cap total attempts so pathological parameter
  // choices (tiny matrix, huge edge count) terminate.
  const int64_t max_attempts = p.edge_count * 8 + 64;
  int64_t attempts = 0;
  int64_t accepted = 0;
  while (accepted < p.edge_count && attempts < max_attempts) {
    ++attempts;
    Index r = 0, c = 0;
    RmatEdge(p, &rng, &r, &c);
    const uint64_t key = EdgeKey(r, c);
    if (seen.count(key) > 0) {
      if (p.redraw_duplicates) continue;
      ++accepted;  // duplicate silently dropped but counted as a draw
      continue;
    }
    seen.insert(key);
    const double v = p.weighted ? (rng.NextDouble() + 1e-6) : 1.0;
    coo.Add(r, c, v);
    ++accepted;
  }
  return CsrMatrix::FromCoo(coo);
}

Result<CsrMatrix> GeneratePowerLaw(const PowerLawParams& p) {
  if (p.rows <= 0 || p.cols <= 0) {
    return Status::InvalidArgument("power-law generator needs positive dims");
  }
  if (p.nnz < 0 ||
      p.nnz > static_cast<int64_t>(p.rows) * static_cast<int64_t>(p.cols)) {
    return Status::InvalidArgument("nnz out of range");
  }
  Rng rng(p.seed);

  // --- Row degrees: Zipf over ranks, scaled to sum ~ nnz. -------------------
  // weight(rank k) = (k+1)^-row_skew; degrees rounded with a running
  // remainder so the total lands exactly on nnz.
  std::vector<double> row_weight(static_cast<size_t>(p.rows));
  double wsum = 0.0;
  for (Index i = 0; i < p.rows; ++i) {
    const double w = std::pow(static_cast<double>(i) + 1.0, -p.row_skew);
    row_weight[static_cast<size_t>(i)] = w;
    wsum += w;
  }
  std::vector<int64_t> degree(static_cast<size_t>(p.rows), 0);
  double carry = 0.0;
  int64_t assigned = 0;
  for (Index i = 0; i < p.rows; ++i) {
    const double exact =
        static_cast<double>(p.nnz) * row_weight[static_cast<size_t>(i)] / wsum +
        carry;
    int64_t d = static_cast<int64_t>(exact);
    carry = exact - static_cast<double>(d);
    d = std::min<int64_t>(d, p.cols);  // a row cannot exceed cols entries
    degree[static_cast<size_t>(i)] = d;
    assigned += d;
  }
  // Distribute any shortfall (from the per-row cap) round-robin.
  for (Index i = 0; assigned < p.nnz && p.rows > 0;
       i = (i + 1) % p.rows) {
    if (degree[static_cast<size_t>(i)] < p.cols) {
      degree[static_cast<size_t>(i)]++;
      ++assigned;
    }
  }

  // Shuffle which physical row gets which rank so hubs are not clustered
  // at index 0 (matters for banded access patterns downstream).
  std::vector<Index> row_of_rank(static_cast<size_t>(p.rows));
  for (Index i = 0; i < p.rows; ++i) row_of_rank[static_cast<size_t>(i)] = i;
  for (Index i = p.rows - 1; i > 0; --i) {
    const Index j = static_cast<Index>(rng.NextBounded(
        static_cast<uint64_t>(i) + 1));
    std::swap(row_of_rank[static_cast<size_t>(i)],
              row_of_rank[static_cast<size_t>(j)]);
  }

  // --- Column popularity: cumulative Zipf CDF, inverse-sampled. -------------
  std::vector<double> col_cdf(static_cast<size_t>(p.cols));
  double csum = 0.0;
  for (Index j = 0; j < p.cols; ++j) {
    csum += std::pow(static_cast<double>(j) + 1.0, -p.col_skew);
    col_cdf[static_cast<size_t>(j)] = csum;
  }
  const GuidedCdf col_popularity(std::move(col_cdf));
  // Mapping from popularity rank to physical column. With align_hubs the
  // row-rank permutation is reused so node i's row degree and column
  // popularity share the same rank — hub nodes are hubs on both sides.
  std::vector<Index> col_of_rank(static_cast<size_t>(p.cols));
  if (p.align_hubs && p.rows == p.cols) {
    col_of_rank = row_of_rank;
  } else {
    for (Index j = 0; j < p.cols; ++j) col_of_rank[static_cast<size_t>(j)] = j;
    for (Index j = p.cols - 1; j > 0; --j) {
      const Index k = static_cast<Index>(rng.NextBounded(
          static_cast<uint64_t>(j) + 1));
      std::swap(col_of_rank[static_cast<size_t>(j)],
                col_of_rank[static_cast<size_t>(k)]);
    }
  }

  // Rows are drawn in rank order. Every row ends with exactly its degree
  // (the fallback fills what sampling missed), so each row's slice of the
  // CSR arrays is known before any row is drawn.
  std::vector<Offset> ptr(static_cast<size_t>(p.rows) + 1, 0);
  for (Index rank = 0; rank < p.rows; ++rank) {
    ptr[static_cast<size_t>(row_of_rank[static_cast<size_t>(rank)]) + 1] =
        degree[static_cast<size_t>(rank)];
  }
  for (size_t r = 0; r < static_cast<size_t>(p.rows); ++r) {
    ptr[r + 1] += ptr[r];
  }
  IndexArray indices(static_cast<size_t>(ptr.back()));
  ValueArray values(indices.size());
  // stamp[c] == r: column c is already in row r. Each row is drawn once,
  // so the stamps never need clearing.
  std::vector<Index> stamp(static_cast<size_t>(p.cols), -1);
  std::vector<std::pair<Index, Value>> row;
  for (Index rank = 0; rank < p.rows; ++rank) {
    const Index r = row_of_rank[static_cast<size_t>(rank)];
    const int64_t d = degree[static_cast<size_t>(rank)];
    row.clear();
    int64_t emitted = 0;
    int64_t attempts = 0;
    const int64_t max_attempts = d * 16 + 16;
    while (emitted < d && attempts < max_attempts) {
      ++attempts;
      const double u = rng.NextDouble() * csum;
      Index col_rank = col_popularity.LowerBound(u);
      if (col_rank >= p.cols) col_rank = p.cols - 1;
      const Index c = col_of_rank[static_cast<size_t>(col_rank)];
      if (stamp[static_cast<size_t>(c)] == r) continue;
      stamp[static_cast<size_t>(c)] = r;
      const double v = p.weighted ? (rng.NextDouble() + 1e-6) : 1.0;
      row.emplace_back(c, v);
      ++emitted;
    }
    // Dense-row fallback: hubs that exhausted sampling get sequential fill.
    for (Index c = 0; emitted < d && c < p.cols; ++c) {
      if (stamp[static_cast<size_t>(c)] != r) {
        stamp[static_cast<size_t>(c)] = r;
        row.emplace_back(c, p.weighted ? (rng.NextDouble() + 1e-6) : 1.0);
        ++emitted;
      }
    }
    // Columns are distinct, so sorting the pairs sorts by column alone.
    std::sort(row.begin(), row.end());
    Offset k = ptr[static_cast<size_t>(r)];
    for (const auto& [c, v] : row) {
      indices[static_cast<size_t>(k)] = c;
      values[static_cast<size_t>(k)] = v;
      ++k;
    }
  }
  return CsrMatrix::FromParts(p.rows, p.cols, std::move(ptr),
                              std::move(indices), std::move(values));
}

Result<CsrMatrix> GenerateQuasiRegular(const QuasiRegularParams& p) {
  if (p.n <= 0) {
    return Status::InvalidArgument("quasi-regular generator needs n > 0");
  }
  if (p.nnz < 0 ||
      p.nnz > static_cast<int64_t>(p.n) * static_cast<int64_t>(p.n)) {
    return Status::InvalidArgument("nnz out of range");
  }
  Rng rng(p.seed);
  const double mean_deg = static_cast<double>(p.nnz) / p.n;
  const int64_t band = std::max<int64_t>(
      8, static_cast<int64_t>(p.band_frac * static_cast<double>(p.n)));

  // Rows are drawn in order, and a row may stop short of its degree when
  // its attempts run out, so each row is appended after the last.
  std::vector<Offset> ptr(static_cast<size_t>(p.n) + 1, 0);
  IndexArray indices;
  ValueArray values;
  indices.reserve(static_cast<size_t>(p.nnz));
  values.reserve(static_cast<size_t>(p.nnz));
  // stamp[c] == r: column c is already in row r (rows are drawn once).
  std::vector<Index> stamp(static_cast<size_t>(p.n), -1);
  std::vector<std::pair<Index, Value>> row;
  for (Index r = 0; r < p.n; ++r) {
    const double jitter =
        1.0 + p.degree_jitter * (2.0 * rng.NextDouble() - 1.0);
    int64_t d = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(mean_deg * jitter)));
    d = std::min<int64_t>(d, 2 * band + 1);
    row.clear();
    // Diagonal first (FEM matrices have full diagonals), then band fill.
    row.emplace_back(r, p.weighted ? (rng.NextDouble() + 1e-6) : 1.0);
    stamp[static_cast<size_t>(r)] = r;
    int64_t emitted = 1;
    int64_t attempts = 0;
    const int64_t max_attempts = d * 16 + 16;
    while (emitted < d && attempts < max_attempts) {
      ++attempts;
      const int64_t offset =
          static_cast<int64_t>(rng.NextBounded(2 * band + 1)) - band;
      const int64_t c = static_cast<int64_t>(r) + offset;
      if (c < 0 || c >= p.n) continue;
      if (stamp[static_cast<size_t>(c)] == r) continue;
      stamp[static_cast<size_t>(c)] = r;
      row.emplace_back(static_cast<Index>(c),
                       p.weighted ? (rng.NextDouble() + 1e-6) : 1.0);
      ++emitted;
    }
    // Columns are distinct, so sorting the pairs sorts by column alone.
    std::sort(row.begin(), row.end());
    for (const auto& [c, v] : row) {
      indices.push_back(c);
      values.push_back(v);
    }
    ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(indices.size());
  }
  return CsrMatrix::FromParts(p.n, p.n, std::move(ptr), std::move(indices),
                              std::move(values));
}

Result<CsrMatrix> GenerateBlockDiagonal(const BlockDiagonalParams& p) {
  if (p.n <= 0) {
    return Status::InvalidArgument("block-diagonal generator needs n > 0");
  }
  if (p.block_size <= 0) {
    return Status::InvalidArgument("block size must be positive");
  }
  if (p.fill < 0.0 || p.fill > 1.0) {
    return Status::InvalidArgument("fill must be in [0, 1], got " +
                                   std::to_string(p.fill));
  }
  Rng rng(p.seed);
  CooMatrix coo(p.n, p.n);
  for (Index begin = 0; begin < p.n; begin += p.block_size) {
    const Index end = std::min<Index>(p.n, begin + p.block_size);
    const Index width = end - begin;
    const int64_t cells =
        static_cast<int64_t>(width) * static_cast<int64_t>(width);
    int64_t target = static_cast<int64_t>(p.fill * static_cast<double>(cells));
    // A community keeps its members reachable: at least the diagonal.
    target = std::max<int64_t>(target, width);
    std::unordered_set<uint64_t> seen;
    int64_t emitted = 0;
    for (Index i = 0; i < width; ++i) {
      coo.Add(begin + i, begin + i,
              p.weighted ? (rng.NextDouble() + 1e-6) : 1.0);
      seen.insert(EdgeKey(i, i));
      ++emitted;
    }
    int64_t attempts = 0;
    const int64_t max_attempts = target * 16 + 16;
    while (emitted < target && attempts < max_attempts) {
      ++attempts;
      const Index i = static_cast<Index>(
          rng.NextBounded(static_cast<uint64_t>(width)));
      const Index j = static_cast<Index>(
          rng.NextBounded(static_cast<uint64_t>(width)));
      if (!seen.insert(EdgeKey(i, j)).second) continue;
      coo.Add(begin + i, begin + j,
              p.weighted ? (rng.NextDouble() + 1e-6) : 1.0);
      ++emitted;
    }
  }
  return CsrMatrix::FromCoo(coo);
}

}  // namespace datasets
}  // namespace spnet
