#ifndef SPNET_DATASETS_GUIDED_CDF_H_
#define SPNET_DATASETS_GUIDED_CDF_H_

#include <algorithm>
#include <vector>

#include "sparse/types.h"

namespace spnet {
namespace datasets {

/// A cumulative distribution over ranks 0..n-1 with a guide table, for
/// inverse-CDF sampling (Devroye's guide-table method). [0, total) is cut
/// into n buckets of width total/n; bucket k starts at edge(k) = k·width,
/// always recomputed by that expression rather than stored, and the table
/// holds lower_bound(cdf, edge(k)) for each k, plus n for the end.
/// LowerBound(u) steps to the bucket with edge(k) <= u < edge(k+1) and
/// searches only between that bucket's two table entries. Because
/// lower_bound is monotone in u, the global answer lies in that range, so
/// the result is std::lower_bound's over the whole CDF, bit for bit.
class GuidedCdf {
 public:
  /// `cdf` must be non-empty and non-decreasing, with non-negative values
  /// and a positive last value.
  explicit GuidedCdf(std::vector<double> cdf);

  /// The last CDF value: draws are taken from [0, total()].
  double total() const { return cdf_.back(); }

  /// Index of the first CDF value >= u (the CDF's size if none is), for
  /// any u >= 0; the same index std::lower_bound returns.
  sparse::Index LowerBound(double u) const {
    const auto n = static_cast<sparse::Index>(cdf_.size());
    // The quotient picks the bucket up to rounding; the two loops settle
    // it on the bucket whose recomputed edges hold u.
    const double q = u * inverse_width_;
    sparse::Index k = q < n ? static_cast<sparse::Index>(q) : n - 1;
    while (k > 0 && u < Edge(k)) --k;
    while (k + 1 < n && u >= Edge(k + 1)) ++k;
    const auto first = cdf_.begin() + guide_[static_cast<size_t>(k)];
    const auto last = cdf_.begin() + guide_[static_cast<size_t>(k) + 1];
    return static_cast<sparse::Index>(std::lower_bound(first, last, u) -
                                      cdf_.begin());
  }

 private:
  double Edge(sparse::Index k) const {
    return static_cast<double>(k) * width_;
  }

  std::vector<double> cdf_;
  double width_;
  double inverse_width_;
  /// guide_[k] = lower_bound(cdf_, Edge(k)) for k < n; guide_[n] = n.
  std::vector<sparse::Index> guide_;
};

}  // namespace datasets
}  // namespace spnet

#endif  // SPNET_DATASETS_GUIDED_CDF_H_
