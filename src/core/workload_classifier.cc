#include "core/workload_classifier.h"

#include <limits>

#include "common/parallel.h"
#include "spgemm/exec_context.h"

namespace spnet {
namespace core {

using sparse::Index;

namespace {

/// Per-chunk classification buckets; concatenated in chunk order so the
/// parallel classification emits pairs in exactly the serial order.
struct ChunkBuckets {
  std::vector<Index> dominators;
  std::vector<Index> low_performers;
  std::vector<Index> normals;
  std::vector<Index> limited_rows;
};

void AppendTo(std::vector<Index>* out, const std::vector<Index>& chunk) {
  out->insert(out->end(), chunk.begin(), chunk.end());
}

/// Converts `multiplier * mean` into an integer threshold, clamped to
/// [1, INT64_MAX] in the double domain. The clamp must happen before the
/// cast: double -> int64 conversion of an out-of-range value is undefined
/// behavior, and on x86 it produces INT64_MIN — which the old max(1, ...)
/// then "clamped" to 1, silently classifying nearly every pair as a
/// dominator whenever alpha (or beta) was cranked up for a sweep.
int64_t ThresholdFromMean(double multiplier, double mean) {
  const double t = multiplier * mean;
  if (!(t >= 1.0)) return 1;  // also catches NaN
  // 2^63 rounded to the nearest double below it; anything >= is saturated.
  constexpr double kMaxExact = 9223372036854774784.0;
  if (t >= kMaxExact) return std::numeric_limits<int64_t>::max();
  return static_cast<int64_t>(t);
}

int64_t CountPositive(const std::vector<int64_t>& values, ThreadPool& pool) {
  const int64_t n = static_cast<int64_t>(values.size());
  return pool.ParallelReduce(
      0, n, GrainForItems(n, pool.threads()), int64_t{0},
      [&](int64_t begin, int64_t end, int) {
        int64_t count = 0;
        for (int64_t i = begin; i < end; ++i) {
          if (values[static_cast<size_t>(i)] > 0) ++count;
        }
        return count;
      },
      [](int64_t acc, int64_t partial) { return acc + partial; });
}

double MeanOver(int64_t total, int64_t count) {
  return count > 0 ? static_cast<double>(total) / static_cast<double>(count)
                   : 0.0;
}

}  // namespace

Classification Classify(const spgemm::Workload& workload,
                        const ReorganizerConfig& config,
                        spgemm::ExecContext* ctx) {
  metrics::ScopedSpan span(spgemm::TraceOf(ctx), "classify");
  ThreadPool& pool = GlobalThreadPool();
  const int64_t nonzero_pairs = CountPositive(workload.pair_work, pool);
  Classification c;
  c.dominator_threshold = ThresholdFromMean(
      config.alpha, MeanOver(workload.flops, nonzero_pairs));
  c.limit_row_threshold = ThresholdFromMean(
      config.beta,
      MeanOver(workload.flops, CountPositive(workload.row_chat, pool)));
  const int64_t pairs = static_cast<int64_t>(workload.pair_work.size());
  const int64_t rows = static_cast<int64_t>(workload.row_chat.size());

  // Bucket the pairs and rows chunk-locally, then concatenate the chunks
  // in range order — the same sequence the serial scan produced.
  ChunkBuckets buckets = pool.ParallelReduce(
      0, pairs, GrainForItems(pairs, pool.threads()), ChunkBuckets{},
      [&](int64_t begin, int64_t end, int) {
        ChunkBuckets local;
        for (int64_t i = begin; i < end; ++i) {
          const int64_t work = workload.pair_work[static_cast<size_t>(i)];
          if (work == 0) continue;
          const Index pair = static_cast<Index>(i);
          if (work > c.dominator_threshold) {
            local.dominators.push_back(pair);
          } else if (workload.b_row_nnz[static_cast<size_t>(i)] < 32) {
            local.low_performers.push_back(pair);
          } else {
            local.normals.push_back(pair);
          }
        }
        return local;
      },
      [](ChunkBuckets acc, ChunkBuckets partial) {
        AppendTo(&acc.dominators, partial.dominators);
        AppendTo(&acc.low_performers, partial.low_performers);
        AppendTo(&acc.normals, partial.normals);
        return acc;
      });
  c.dominators = std::move(buckets.dominators);
  c.low_performers = std::move(buckets.low_performers);
  c.normals = std::move(buckets.normals);

  c.limited_rows = pool.ParallelReduce(
      0, rows, GrainForItems(rows, pool.threads()), std::vector<Index>{},
      [&](int64_t begin, int64_t end, int) {
        std::vector<Index> local;
        for (int64_t r = begin; r < end; ++r) {
          if (workload.row_chat[static_cast<size_t>(r)] >
              c.limit_row_threshold) {
            local.push_back(static_cast<Index>(r));
          }
        }
        return local;
      },
      [](std::vector<Index> acc, std::vector<Index> partial) {
        AppendTo(&acc, partial);
        return acc;
      });

  spgemm::SetGauge(ctx, "classifier.nonzero_pairs",
                   static_cast<double>(nonzero_pairs));
  spgemm::SetGauge(ctx, "classifier.dominators",
                   static_cast<double>(c.dominators.size()));
  spgemm::SetGauge(ctx, "classifier.low_performers",
                   static_cast<double>(c.low_performers.size()));
  spgemm::SetGauge(ctx, "classifier.normals",
                   static_cast<double>(c.normals.size()));
  spgemm::SetGauge(ctx, "classifier.limited_rows",
                   static_cast<double>(c.limited_rows.size()));
  spgemm::SetGauge(ctx, "classifier.dominator_threshold",
                   static_cast<double>(c.dominator_threshold));
  spgemm::SetGauge(ctx, "classifier.limit_row_threshold",
                   static_cast<double>(c.limit_row_threshold));
  return c;
}
}  // namespace core
}  // namespace spnet
