#ifndef SPNET_CORE_BLOCK_REORGANIZER_H_
#define SPNET_CORE_BLOCK_REORGANIZER_H_

#include <cstdint>
#include <string>

#include "core/b_gathering.h"
#include "core/b_splitting.h"
#include "core/reorganizer_config.h"
#include "core/workload_classifier.h"
#include "spgemm/algorithm.h"

namespace spnet {
namespace core {

/// Summary of one Block Reorganizer pre-process, matching the numbers the
/// paper walks through for YouTube in Section IV-E (713 dominators,
/// 362,736 low performers, 12,657 limited rows, ...).
struct ReorganizerReport {
  int64_t nonzero_pairs = 0;
  int64_t dominators = 0;
  int64_t low_performers = 0;
  int64_t normals = 0;
  int64_t limited_rows = 0;
  int64_t fragments = 0;        ///< expansion blocks created by B-Splitting
  int64_t combined_blocks = 0;  ///< blocks created by B-Gathering
  int64_t gathered_pairs = 0;   ///< micro-blocks packed into them
  int64_t dominator_threshold = 0;
  int64_t limit_row_threshold = 0;
};

/// The paper's contribution: outer-product spGEMM with the Block
/// Reorganizer optimization pass (workload classification + B-Splitting +
/// B-Gathering for expansion, B-Limiting for merge). Each technique can be
/// toggled via ReorganizerConfig for the Figure 10 ablation.
class BlockReorganizerSpGemm : public spgemm::SpGemmAlgorithm {
 public:
  explicit BlockReorganizerSpGemm(ReorganizerConfig config = {},
                                  std::string display_name = "")
      : config_(config), name_(std::move(display_name)) {}

  std::string name() const override {
    return name_.empty() ? "Block-Reorganizer" : name_;
  }

  const ReorganizerConfig& config() const { return config_; }

  /// Runs only the pre-process and reports the bin populations.
  Result<ReorganizerReport> Analyze(const sparse::CsrMatrix& a,
                                    const sparse::CsrMatrix& b,
                                    const gpusim::DeviceSpec& device,
                                    spgemm::ExecContext* ctx = nullptr) const;

 protected:
  Result<spgemm::SpGemmPlan> PlanImpl(const sparse::CsrMatrix& a,
                                      const sparse::CsrMatrix& b,
                                      const gpusim::DeviceSpec& device,
                                      spgemm::ExecContext* ctx) const override;

  /// Host execution in the prepared dispatch order: pairs are ranked by
  /// their first dispatch position, A's columns and B's rows are relabelled
  /// by that rank, and the shared row kernel runs on the result. Each
  /// output row then sums its products in the order the GPU blocks
  /// produce them, so the output bits are those of the dispatch order.
  Result<sparse::CsrMatrix> ComputeImpl(const sparse::CsrMatrix& a,
                                        const sparse::CsrMatrix& b,
                                        spgemm::ExecContext* ctx) const override;

 private:
  /// The immutable product of the pre-process (defined in the .cc).
  struct Prepared;

  /// The paper's one pre-process pass, shared by Plan, Analyze and
  /// Compute: the exact precalculation on the operands as given, the
  /// bins, and the split and gather plans of non-empty bins.
  Prepared Prepare(const sparse::CsrMatrix& a, const sparse::CsrMatrix& b,
                   const gpusim::DeviceSpec& device,
                   spgemm::ExecContext* ctx) const;

  ReorganizerConfig config_;
  std::string name_;
};

/// Convenience factory used by the benchmark suite and the CLI. Validates
/// `config` first (see ReorganizerConfig::Validate) and refuses to build
/// an algorithm around nonsense knobs.
Result<std::unique_ptr<spgemm::SpGemmAlgorithm>> MakeBlockReorganizer(
    ReorganizerConfig config = {}, std::string display_name = "");

/// Registers the Block Reorganizer family ("reorganizer" plus the
/// single-technique ablation variants "reorganizer-limiting",
/// "reorganizer-splitting" and "reorganizer-gathering") in
/// spgemm::AlgorithmRegistry::Global(). Idempotent; call before querying
/// the registry for core-layer algorithms.
void RegisterCoreAlgorithms();

}  // namespace core
}  // namespace spnet

#endif  // SPNET_CORE_BLOCK_REORGANIZER_H_
