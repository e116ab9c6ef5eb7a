#include "core/auto_tune.h"

#include <algorithm>
#include <cstddef>
#include <cmath>
#include <vector>

#include "spgemm/algorithm.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace core {

namespace {

// Bin populations to aim for, and the clamps on the knobs that reach them
// (see the header).
constexpr double kDominatorTargetPerSm = 4.0;
constexpr double kLimitedRowFraction = 0.02;
constexpr double kMinAlpha = 4.0;
constexpr double kMaxAlpha = 256.0;
constexpr double kMinBeta = 2.0;
constexpr double kMaxBeta = 64.0;

}  // namespace

Result<ReorganizerConfig> AutoTune(const sparse::CsrMatrix& a,
                                   const sparse::CsrMatrix& b,
                                   const gpusim::DeviceSpec& device) {
  SPNET_RETURN_IF_ERROR(spgemm::CheckOperands("AutoTune", a, b));
  ReorganizerConfig config;
  const spgemm::Workload workload = spgemm::BuildWorkload(a, b);
  if (workload.flops == 0) {
    return config;
  }

  // --- alpha: make the top `target` pairs the dominators. -------------------
  std::vector<int64_t> work;
  work.reserve(workload.pair_work.size());
  for (int64_t w : workload.pair_work) {
    if (w > 0) work.push_back(w);
  }
  const size_t target = std::min(
      work.size(),
      static_cast<size_t>(std::max(1.0, kDominatorTargetPerSm * device.num_sms)));
  if (!work.empty()) {
    std::nth_element(work.begin(),
                     work.begin() + static_cast<ptrdiff_t>(target - 1),
                     work.end(), std::greater<int64_t>());
    const double threshold =
        static_cast<double>(work[target - 1]);
    const double mean = static_cast<double>(workload.flops) /
                        static_cast<double>(work.size());
    config.alpha = std::clamp(threshold / mean, kMinAlpha, kMaxAlpha);
  }

  // --- beta: limit the heaviest fraction of output rows. --------------------
  std::vector<int64_t> chat;
  chat.reserve(workload.row_chat.size());
  for (int64_t c : workload.row_chat) {
    if (c > 0) chat.push_back(c);
  }
  if (!chat.empty()) {
    const size_t limited = std::min(
        chat.size() - 1,
        static_cast<size_t>(std::max(
            1.0, kLimitedRowFraction * static_cast<double>(chat.size()))));
    std::nth_element(chat.begin(),
                     chat.begin() + static_cast<ptrdiff_t>(limited),
                     chat.end(), std::greater<int64_t>());
    const double threshold = static_cast<double>(chat[limited]);
    const double mean = static_cast<double>(workload.flops) /
                        static_cast<double>(chat.size());
    config.beta = std::clamp(threshold / mean, kMinBeta, kMaxBeta);
  }
  // The clamps above should keep the tuned knobs legal; validating here
  // turns any future clamp regression into an error instead of a silently
  // nonsensical configuration.
  SPNET_RETURN_IF_ERROR(config.Validate());
  return config;
}

}  // namespace core
}  // namespace spnet
