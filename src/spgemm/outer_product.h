#ifndef SPNET_SPGEMM_OUTER_PRODUCT_H_
#define SPNET_SPGEMM_OUTER_PRODUCT_H_

#include "spgemm/algorithm.h"

namespace spnet {
namespace spgemm {

/// The outer-product (column-row product) baseline the Block Reorganizer
/// builds on: pair i = (column i of A) x (row i of B) forms one thread
/// block, so every thread in a block does identical work (perfect
/// thread-level balance) — but block-level workloads vary wildly on
/// power-law data, creating the overloaded/underloaded block problem the
/// paper analyzes in Section III. Pairs are dispatched in index order, so
/// the host Compute is the base row product with no relabel.
class OuterProductSpGemm : public SpGemmAlgorithm {
 public:
  std::string name() const override { return "outer-product"; }

 protected:
  Result<SpGemmPlan> PlanImpl(const sparse::CsrMatrix& a,
                              const sparse::CsrMatrix& b,
                              const gpusim::DeviceSpec& device,
                              ExecContext* ctx) const override;
};

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_OUTER_PRODUCT_H_
