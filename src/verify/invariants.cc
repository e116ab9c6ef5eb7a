#include "verify/invariants.h"

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <utility>

#include "common/math_util.h"
#include "core/b_limiting.h"
#include "core/block_reorganizer.h"
#include "gpusim/device_spec.h"
#include "sparse/reference_spgemm.h"
#include "spgemm/algorithm.h"

namespace spnet {
namespace verify {

using core::Classification;
using core::GatherPlan;
using core::SplitPlan;
using sparse::Index;
using spgemm::Workload;

namespace {

std::string PairLabel(Index pair) { return "pair " + std::to_string(pair); }

Status Violation(const std::string& what) {
  return Status::FailedPrecondition("invariant violated: " + what);
}

}  // namespace

Status CheckClassification(const Workload& workload,
                           const Classification& classes) {
  if (classes.dominator_threshold < 1) {
    return Violation("dominator threshold " +
                     std::to_string(classes.dominator_threshold) +
                     " below 1");
  }
  if (classes.limit_row_threshold < 1) {
    return Violation("limiting threshold " +
                     std::to_string(classes.limit_row_threshold) +
                     " below 1");
  }

  // 0 = unseen, 1..3 = bin tag; catches duplicates across and within bins.
  const size_t pairs = workload.pair_work.size();
  std::vector<uint8_t> seen(pairs, 0);
  auto mark = [&](const std::vector<Index>& bin, uint8_t tag,
                  const char* bin_name) -> Status {
    for (Index pair : bin) {
      if (pair < 0 || static_cast<size_t>(pair) >= pairs) {
        return Violation(PairLabel(pair) + " out of range in " + bin_name);
      }
      if (seen[static_cast<size_t>(pair)] != 0) {
        return Violation(PairLabel(pair) + " classified twice (" + bin_name +
                         ")");
      }
      seen[static_cast<size_t>(pair)] = tag;
    }
    return Status::Ok();
  };
  SPNET_RETURN_IF_ERROR(mark(classes.dominators, 1, "dominators"));
  SPNET_RETURN_IF_ERROR(mark(classes.low_performers, 2, "low performers"));
  SPNET_RETURN_IF_ERROR(mark(classes.normals, 3, "normals"));

  for (size_t i = 0; i < pairs; ++i) {
    const int64_t work = workload.pair_work[i];
    const Index pair = static_cast<Index>(i);
    if (work == 0) {
      if (seen[i] != 0) {
        return Violation(PairLabel(pair) + " has zero work but was binned");
      }
      continue;
    }
    uint8_t expected;
    if (work > classes.dominator_threshold) {
      expected = 1;
    } else if (workload.b_row_nnz[i] < 32) {
      expected = 2;
    } else {
      expected = 3;
    }
    if (seen[i] == 0) {
      return Violation(PairLabel(pair) + " with work " + std::to_string(work) +
                       " was not classified");
    }
    if (seen[i] != expected) {
      return Violation(PairLabel(pair) + " landed in bin " +
                       std::to_string(seen[i]) + ", rule says " +
                       std::to_string(expected));
    }
  }

  // Limiting bin: exactly the rows whose C-hat population exceeds the
  // threshold, emitted in increasing row order (the merge kernels rely on
  // a deterministic dispatch order).
  size_t k = 0;
  for (size_t r = 0; r < workload.row_chat.size(); ++r) {
    if (workload.row_chat[r] <= classes.limit_row_threshold) continue;
    if (k >= classes.limited_rows.size() ||
        classes.limited_rows[k] != static_cast<Index>(r)) {
      return Violation("row " + std::to_string(r) + " exceeds the limiting " +
                       "threshold but is missing from limited_rows");
    }
    ++k;
  }
  if (k != classes.limited_rows.size()) {
    return Violation("limited_rows holds " +
                     std::to_string(classes.limited_rows.size()) +
                     " rows, rule selects " + std::to_string(k));
  }
  return Status::Ok();
}

Status CheckSplitPlan(const Workload& workload,
                      const std::vector<Index>& dominators,
                      const SplitPlan& split) {
  const std::vector<Index>& mapper = split.mapper;
  const size_t fragments = mapper.size();
  if (split.col_begin.size() != fragments ||
      split.col_end.size() != fragments) {
    return Violation("mapper holds " + std::to_string(fragments) +
                     " fragments, column bounds hold " +
                     std::to_string(split.col_begin.size()) + " and " +
                     std::to_string(split.col_end.size()));
  }

  // One run of equal mapper entries per split pair; a pair whose fragments
  // are not contiguous shows up as two runs, so as a duplicate below.
  std::vector<Index> got;
  for (size_t first = 0; first < fragments;) {
    const Index pair = mapper[first];
    if (pair < 0 || static_cast<size_t>(pair) >= workload.pair_work.size()) {
      return Violation("mapper fragment " + std::to_string(first) +
                       " points at " + PairLabel(pair) + ", out of range");
    }
    size_t last = first + 1;
    while (last < fragments && mapper[last] == pair) ++last;
    got.push_back(pair);

    const size_t i = static_cast<size_t>(pair);
    const int64_t col_nnz = workload.a_col_nnz[i];
    const int64_t row_nnz = workload.b_row_nnz[i];
    const int64_t factor = static_cast<int64_t>(last - first);
    if (!IsPow2(factor)) {
      return Violation(PairLabel(pair) + " has " + std::to_string(factor) +
                       " fragments, not a power of two");
    }
    if (split.col_begin[first] != 0 || split.col_end[last - 1] != col_nnz) {
      return Violation(PairLabel(pair) + " fragments span [" +
                       std::to_string(split.col_begin[first]) + ", " +
                       std::to_string(split.col_end[last - 1]) +
                       "), column holds " + std::to_string(col_nnz));
    }
    int64_t products = 0;
    for (size_t f = first; f < last; ++f) {
      const int64_t len = split.col_end[f] - split.col_begin[f];
      const bool detached =
          f > first && split.col_begin[f] != split.col_end[f - 1];
      if (len <= 0 || detached) {
        return Violation(PairLabel(pair) + " fragment " + std::to_string(f) +
                         " is empty, reversed or detached from its sibling");
      }
      products += len * row_nnz;
    }
    if (products != workload.pair_work[i]) {
      return Violation(PairLabel(pair) + " fragments produce " +
                       std::to_string(products) + " products, pair work is " +
                       std::to_string(workload.pair_work[i]));
    }
    first = last;
  }

  std::vector<Index> expected(dominators);
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  if (got != expected) {
    return Violation("fragments cover " + std::to_string(got.size()) +
                     " pair runs, dominators number " +
                     std::to_string(expected.size()) +
                     " (or the sets differ, or a pair's fragments are split)");
  }
  return Status::Ok();
}

Status CheckGatherPlan(const Workload& workload,
                       const std::vector<Index>& low_performers,
                       const GatherPlan& gather, int block_size) {
  std::vector<Index> expected(low_performers);
  // Zero-effective pairs never reach the bins; the builder silently drops
  // them, but a classification that produced one is itself invalid (zero
  // b_row_nnz means zero pair work), so require full coverage.
  std::sort(expected.begin(), expected.end());

  const std::vector<int64_t>& offsets = gather.block_offsets;
  if (offsets.size() != gather.num_blocks() + 1 || offsets.front() != 0 ||
      offsets.back() != gather.gathered_pairs() ||
      std::adjacent_find(offsets.begin(), offsets.end(),
                         std::greater_equal<>()) != offsets.end()) {
    return Violation("block offsets do not cut the gathered pairs into " +
                     std::to_string(gather.num_blocks()) + " blocks");
  }
  std::vector<Index> got(gather.ungathered);
  // Per lane quota, the pair last read: a quota's blocks, read in order,
  // run a_col_nnz non-increasing with ascending pairs on ties.
  Index last[6] = {-1, -1, -1, -1, -1, -1};
  auto order_key = [&](Index pair) {
    return std::pair(-workload.a_col_nnz[static_cast<size_t>(pair)], pair);
  };
  for (size_t i = 0; i < gather.num_blocks(); ++i) {
    const int micro_threads = gather.micro_threads[i];
    if (!IsPow2(micro_threads) || micro_threads > 32) {
      return Violation("combined block lane quota " +
                       std::to_string(micro_threads) +
                       " is not a power of two within a warp");
    }
    const int capacity = std::max(1, block_size / micro_threads);
    const int64_t size = offsets[i + 1] - offsets[i];
    if (size > capacity) {
      return Violation("combined block holds " + std::to_string(size) +
                       " micro-blocks, capacity is " +
                       std::to_string(capacity));
    }
    const std::span<const Index> pairs = gather.block_pairs(i);
    for (Index pair : pairs) {
      const int64_t eff = workload.b_row_nnz[static_cast<size_t>(pair)];
      if (eff <= 0 || NextPow2(eff) != micro_threads) {
        return Violation(PairLabel(pair) + " with " + std::to_string(eff) +
                         " effective threads packed under quota " +
                         std::to_string(micro_threads));
      }
      Index& prev = last[Log2Floor(micro_threads)];
      if (prev >= 0 && order_key(pair) <= order_key(prev)) {
        return Violation(PairLabel(pair) + " follows " + PairLabel(prev) +
                         " out of a_col_nnz order");
      }
      prev = pair;
    }
    // Launch width: lanes round up to whole warps, never past the block.
    const int64_t launch = std::min<int64_t>(
        block_size, std::max<int64_t>(32, NextPow2(size * micro_threads)));
    if (launch % 32 != 0) {
      return Violation("combined block launch width " +
                       std::to_string(launch) + " is not whole warps");
    }
    got.insert(got.end(), pairs.begin(), pairs.end());
  }
  std::sort(got.begin(), got.end());
  if (got != expected) {
    return Violation("gathered + ungathered pairs do not partition the " +
                     std::to_string(expected.size()) + " low performers (" +
                     std::to_string(got.size()) + " covered)");
  }
  return Status::Ok();
}

Status CheckLimitedMergeOptions(const Classification& classes,
                                const core::ReorganizerConfig& config,
                                const spgemm::MergeOptions& options) {
  const bool active = config.enable_limiting && !classes.limited_rows.empty();
  if (active) {
    if (options.limit_row_threshold != classes.limit_row_threshold) {
      return Violation("merge options carry limiting threshold " +
                       std::to_string(options.limit_row_threshold) +
                       ", classifier computed " +
                       std::to_string(classes.limit_row_threshold));
    }
    if (options.extra_shared_mem_bytes != config.limiting_extra_shmem) {
      return Violation("limited kernel granted " +
                       std::to_string(options.extra_shared_mem_bytes) +
                       " extra shmem bytes, configured " +
                       std::to_string(config.limiting_extra_shmem));
    }
  } else if (options.limit_row_threshold > 0) {
    return Violation("limiting threshold set with limiting inactive");
  }
  return Status::Ok();
}

Status CheckPlanStructure(const spgemm::SpGemmPlan& plan,
                          int64_t expected_flops) {
  if (plan.flops != expected_flops) {
    return Violation("plan flops " + std::to_string(plan.flops) +
                     " disagree with workload flops " +
                     std::to_string(expected_flops));
  }
  if (plan.output_nnz < 0) {
    return Violation("negative plan output nnz");
  }
  for (const gpusim::KernelDesc& kernel : plan.kernels) {
    for (size_t i = 0; i < kernel.blocks.size(); ++i) {
      const gpusim::ThreadBlockDesc& tb = kernel.blocks[i];
      const std::string where =
          "kernel '" + kernel.label + "' block " + std::to_string(i);
      if (tb.threads < 32 || tb.threads % 32 != 0) {
        return Violation(where + " launches " + std::to_string(tb.threads) +
                         " threads (not whole warps)");
      }
      if (tb.effective_threads < 0 || tb.effective_threads > tb.threads) {
        return Violation(where + " claims " +
                         std::to_string(tb.effective_threads) +
                         " effective threads of " +
                         std::to_string(tb.threads));
      }
      if (tb.crit_ops < 0 || tb.warp_issue_ops < tb.crit_ops) {
        return Violation(where + " critical path " +
                         std::to_string(tb.crit_ops) +
                         " exceeds warp issue ops " +
                         std::to_string(tb.warp_issue_ops));
      }
      if (tb.useful_lane_ops < 0 || tb.useful_lane_ops > 32 * tb.warp_issue_ops) {
        return Violation(where + " useful lane ops " +
                         std::to_string(tb.useful_lane_ops) +
                         " exceed the issued lane slots");
      }
      if (tb.bytes_read < 0 || tb.bytes_written < 0 ||
          tb.shared_read_bytes < 0 || tb.shared_read_bytes > tb.bytes_read) {
        return Violation(where + " has inconsistent memory traffic");
      }
      if (tb.shared_mem_bytes < 0) {
        return Violation(where + " requests negative shared memory");
      }
    }
  }
  return Status::Ok();
}

Status VerifyReorganizerInvariants(const sparse::CsrMatrix& a,
                                   const sparse::CsrMatrix& b,
                                   const core::ReorganizerConfig& config) {
  SPNET_RETURN_IF_ERROR(config.Validate());
  SPNET_RETURN_IF_ERROR(a.Validate());
  SPNET_RETURN_IF_ERROR(b.Validate());
  const core::BlockReorganizerSpGemm reorganizer(config);
  SPNET_RETURN_IF_ERROR(spgemm::CheckOperands(reorganizer.name(), a, b));

  // The prepared product Plan dispatches, checked against the rules.
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  const Workload workload = spgemm::BuildWorkload(a, b);
  const core::BlockReorganizerSpGemm::Prepared prep =
      reorganizer.Prepare(workload, &device);
  const Classification& classes = prep.classes;
  SPNET_RETURN_IF_ERROR(CheckClassification(workload, classes));
  const bool splits = config.enable_splitting && !classes.dominators.empty();
  if (prep.split.has_value() != splits) {
    return Violation(splits ? "dominators left unsplit"
                            : "split plan built with splitting off or no "
                              "dominators");
  }
  if (prep.split) {
    SPNET_RETURN_IF_ERROR(
        CheckSplitPlan(workload, classes.dominators, *prep.split));
  }
  const bool gathers =
      config.enable_gathering && !classes.low_performers.empty();
  if (prep.gather.has_value() != gathers) {
    return Violation(gathers ? "low performers left ungathered"
                             : "gather plan built with gathering off or no "
                               "low performers");
  }
  if (prep.gather) {
    SPNET_RETURN_IF_ERROR(CheckGatherPlan(workload, classes.low_performers,
                                          *prep.gather, config.block_size));
  }
  SPNET_RETURN_IF_ERROR(CheckLimitedMergeOptions(
      classes, config, core::MakeLimitedMergeOptions(classes, config)));

  SPNET_ASSIGN_OR_RETURN(const spgemm::SpGemmPlan plan,
                         reorganizer.Plan(a, b, device));
  SPNET_RETURN_IF_ERROR(CheckPlanStructure(plan, workload.flops));

  SPNET_ASSIGN_OR_RETURN(const sparse::CsrMatrix got,
                         reorganizer.Compute(a, b));
  SPNET_RETURN_IF_ERROR(got.Validate());
  SPNET_ASSIGN_OR_RETURN(const sparse::CsrMatrix expected,
                         sparse::ReferenceSpGemm(a, b));
  if (!sparse::CsrApproxEqual(expected, got)) {
    return Violation("reorganizer output diverges from the reference");
  }

  return Status::Ok();
}

}  // namespace verify
}  // namespace spnet
