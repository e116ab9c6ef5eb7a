#ifndef SPNET_TESTS_TEST_UTIL_H_
#define SPNET_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "common/rng.h"
#include "sparse/coo_matrix.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace testing_util {

/// Uniform random sparse matrix with ~density fraction of nonzeros.
inline sparse::CsrMatrix RandomMatrix(sparse::Index rows, sparse::Index cols,
                                      double density, uint64_t seed) {
  Rng rng(seed);
  sparse::CooMatrix coo(rows, cols);
  for (sparse::Index r = 0; r < rows; ++r) {
    for (sparse::Index c = 0; c < cols; ++c) {
      if (rng.NextBool(density)) {
        coo.Add(r, c, rng.NextDouble() * 2.0 - 1.0);
      }
    }
  }
  auto result = sparse::CsrMatrix::FromCoo(coo);
  SPNET_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A small power-law-ish matrix: row r has ~max(1, hub_nnz / (r+1))
/// nonzeros at deterministic positions — handy for exercising the skew
/// paths without the full generators.
inline sparse::CsrMatrix SkewedMatrix(sparse::Index n, sparse::Index hub_nnz,
                                      uint64_t seed) {
  Rng rng(seed);
  sparse::CooMatrix coo(n, n);
  for (sparse::Index r = 0; r < n; ++r) {
    const sparse::Index deg =
        std::max<sparse::Index>(1, hub_nnz / (r + 1));
    for (sparse::Index k = 0; k < deg; ++k) {
      const sparse::Index c =
          static_cast<sparse::Index>(rng.NextBounded(static_cast<uint64_t>(n)));
      coo.Add(r, c, 1.0 + rng.NextDouble());
    }
  }
  coo.SortAndCombine();
  auto result = sparse::CsrMatrix::FromCoo(coo);
  SPNET_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// FNV-1a over the output's dimensions, ptr, indices and value bit
/// patterns: any change to the per-row summation order or emission order
/// changes it.
inline uint64_t OutputHash(const sparse::CsrMatrix& c) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<uint64_t>(c.rows()));
  mix(static_cast<uint64_t>(c.cols()));
  for (sparse::Offset p : c.ptr()) mix(static_cast<uint64_t>(p));
  for (sparse::Index i : c.indices()) mix(static_cast<uint64_t>(i));
  for (sparse::Value v : c.values()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  return h;
}

}  // namespace testing_util
}  // namespace spnet

#endif  // SPNET_TESTS_TEST_UTIL_H_
