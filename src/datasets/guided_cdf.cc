#include "datasets/guided_cdf.h"

#include <utility>

namespace spnet {
namespace datasets {

GuidedCdf::GuidedCdf(std::vector<double> cdf)
    : cdf_(std::move(cdf)),
      width_(cdf_.back() / static_cast<double>(cdf_.size())),
      inverse_width_(static_cast<double>(cdf_.size()) / cdf_.back()),
      guide_(cdf_.size() + 1) {
  // Edges rise with k, so one forward walk finds every lower bound.
  const auto n = static_cast<sparse::Index>(cdf_.size());
  sparse::Index j = 0;
  for (sparse::Index k = 0; k < n; ++k) {
    const double edge = Edge(k);
    while (j < n && cdf_[static_cast<size_t>(j)] < edge) ++j;
    guide_[static_cast<size_t>(k)] = j;
  }
  guide_[static_cast<size_t>(n)] = n;
}

}  // namespace datasets
}  // namespace spnet
