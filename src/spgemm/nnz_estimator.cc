#include "spgemm/nnz_estimator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/math_util.h"
#include "common/parallel.h"
#include "spgemm/exec_context.h"

namespace spnet {
namespace spgemm {

using sparse::CsrMatrix;
using sparse::Index;
using sparse::Offset;
using sparse::SpanView;

namespace {

/// Round-to-nearest by cast: std::llround is an errno-checking libm call,
/// and two of them per row are measurable against a scan this lean. The
/// inputs here are non-negative point estimates, where +0.5-and-truncate
/// is the same rounding.
int64_t RoundEstimate(double value) {
  constexpr double kMaxExact = 9223372036854774784.0;  // 2^63 rounded down
  if (value >= kMaxExact) return std::numeric_limits<int64_t>::max();
  return static_cast<int64_t>(value + 0.5);
}

int64_t ClampToBand(double value, int64_t lo, int64_t hi) {
  if (!(value > 0.0)) return lo;
  return std::min(hi, std::max(lo, RoundEstimate(value)));
}

/// Per-chunk partial of the fused row scan.
struct RowTotals {
  int64_t exact_mass = 0;
  int64_t output_nnz = 0;
  int64_t sampled_rows = 0;
  int64_t saturations = 0;
};

}  // namespace

EstimatedWorkload BuildWorkloadEstimated(const CsrMatrix& a,
                                         const CsrMatrix& b,
                                         const EstimatorOptions& options,
                                         ExecContext* ctx) {
  metrics::ScopedSpan span(TraceOf(ctx), "build-workload-estimated");
  EstimatedWorkload est;
  Workload& w = est.workload;
  ThreadPool& pool = GlobalThreadPool();
  const int threads = pool.threads();
  const int64_t rows_a = a.rows();
  const int64_t cols_a = a.cols();
  const int64_t rows_b = b.rows();

  // B's row sizes are free (pointer diffs) — the estimator never spends
  // them, so the "B side" of every band is exact.
  FillBRowNnz(b, &w);

  // Hub decomposition of B's rows. `hubval[j]` holds B-row j's size when
  // the row is a hub and 0 otherwise, so the scan below sums the hub
  // contribution of every A-row branchlessly through one int32 table (a
  // quarter of b_row_nnz's footprint; a predicated hub test forfeits the
  // win to branch mispredictions at skew-typical hub-hit rates). The hub
  // threshold comes from a strided sample quantile — any threshold is
  // *correct* (v_rest below is the exact maximum over the unflagged rows),
  // the quantile only keeps the flagged count near options.hub_rows.
  const int64_t hubs =
      std::min(rows_b, std::max<int64_t>(0, options.hub_rows));
  std::vector<int32_t> hubval(static_cast<size_t>(cols_a), 0);
  const int64_t table_rows = std::min(rows_b, cols_a);
  int64_t v_rest = 0;
  int64_t min_rest = 0;
  double mean_rest = 0.0;
  if (rows_b > 0) {
    const int64_t max_brow =
        *std::max_element(w.b_row_nnz.begin(), w.b_row_nnz.end());
    int64_t thr = std::numeric_limits<int64_t>::max();
    if (hubs > 0 &&
        max_brow <= std::numeric_limits<int32_t>::max()) {
      // Strided sample of B-row sizes; thr approximates the hubs-th
      // largest. Deterministic (no RNG).
      const int64_t step = std::max<int64_t>(1, rows_b / 2048);
      std::vector<int64_t> sample;
      sample.reserve(static_cast<size_t>(rows_b / step + 1));
      for (int64_t r = 0; r < rows_b; r += step) {
        sample.push_back(w.b_row_nnz[static_cast<size_t>(r)]);
      }
      const int64_t want = std::min<int64_t>(
          static_cast<int64_t>(sample.size()) - 1,
          (static_cast<int64_t>(sample.size()) * hubs) / rows_b);
      std::nth_element(sample.begin(), sample.begin() + want, sample.end(),
                       std::greater<int64_t>());
      thr = std::max<int64_t>(0, sample[static_cast<size_t>(want)]);
    }
    // Flag pass: rows above the threshold become hubs; v_rest / min_rest
    // are the exact extrema of what is left, which is what makes the
    // bands guaranteed regardless of how good the sampled threshold was.
    int64_t rest_count = 0;
    int64_t rest_mass = 0;
    min_rest = std::numeric_limits<int64_t>::max();
    for (int64_t r = 0; r < rows_b; ++r) {
      const int64_t size = w.b_row_nnz[static_cast<size_t>(r)];
      if (size > thr) {
        if (r < table_rows) {
          hubval[static_cast<size_t>(r)] = static_cast<int32_t>(size);
        }
      } else {
        ++rest_count;
        rest_mass += size;
        v_rest = std::max(v_rest, size);
        min_rest = std::min(min_rest, size);
      }
    }
    if (rest_count == 0) {
      min_rest = 0;
    } else {
      mean_rest =
          static_cast<double>(rest_mass) / static_cast<double>(rest_count);
    }
    // An A wider than B's height has entries contributing exactly 0; they
    // are counted as light entries, so the light floor must be 0. The
    // same applies to hub rows beyond the table width (cols_a < rows_b):
    // unreachable by any A index, but they were flagged out of the rest.
    if (cols_a > rows_b) min_rest = 0;
  }

  // Deterministic strided sample of A's rows: no RNG, so the same inputs
  // estimate identically on every run and thread count.
  const int64_t target = std::min(
      rows_a,
      std::max<int64_t>(
          {int64_t{1}, options.min_sample_rows,
           static_cast<int64_t>(std::llround(
               static_cast<double>(rows_a) * options.sample_fraction))}));
  const int64_t stride = rows_a > 0 ? std::max<int64_t>(1, rows_a / target) : 1;
  const int64_t phase = static_cast<int64_t>(
      options.seed % static_cast<uint64_t>(stride));
  const auto is_sampled = [stride, phase](int64_t r) {
    return r % stride == phase;
  };

  // Merge estimators for row_c_est. Exact rows get the exact tier's
  // hashing estimator; estimated rows get its second-order rational
  // approximation — same small-chat behavior, same cap, no transcendental
  // in the per-row hot path.
  const double cols_b = static_cast<double>(b.cols());
  const int64_t cols_b_i64 = b.cols();
  const auto merge_approx = [cols_b, cols_b_i64](int64_t chat) {
    const double f = static_cast<double>(chat);
    const double unique = 2.0 * cols_b * f / (2.0 * cols_b + f);
    const int64_t e = std::max<int64_t>(1, RoundEstimate(unique));
    return std::min(e, std::min(chat, cols_b_i64));
  };

  // Fused scan: one traversal of A producing the exact column histogram
  // (the pair side) and the row-side estimates together. Sampled rows
  // gather b_row_nnz exactly; every other row sums its hub hits exactly
  // and brackets its `light` remaining entries by
  // [light * min_rest, light * v_rest]. Rows with no light entries are
  // exact for free — on skewed inputs, where the hubs carry most of the
  // mass, that plus the hub share of estimated rows keeps the confidence
  // high and the bands narrow.
  w.a_col_nnz.assign(static_cast<size_t>(cols_a), 0);
  w.row_chat.assign(static_cast<size_t>(rows_a), 0);
  w.row_c_est.assign(static_cast<size_t>(rows_a), 0);
  est.row_exact.assign(static_cast<size_t>(rows_a), 0);
  est.row_chat_lo.assign(static_cast<size_t>(rows_a), 0);
  est.row_chat_hi.assign(static_cast<size_t>(rows_a), 0);
  const int64_t row_grain = GrainForChunkPerThread(rows_a, threads);
  const int64_t num_chunks = rows_a > 0 ? CeilDiv(rows_a, row_grain) : 0;
  // Chunk-local histograms keep the scatter race-free; integer adds, so
  // any chunking reproduces the serial counts. One chunk (the single-
  // thread case) scatters straight into the output.
  std::vector<std::vector<int64_t>> hist;
  if (num_chunks > 1) hist.resize(static_cast<size_t>(num_chunks));
  const RowTotals totals = pool.ParallelReduce(
      0, rows_a, row_grain, RowTotals{},
      [&](int64_t begin, int64_t end, int) {
        RowTotals t;
        std::vector<int64_t>* local = nullptr;
        if (num_chunks > 1) {
          local = &hist[static_cast<size_t>(begin / row_grain)];
          local->assign(static_cast<size_t>(cols_a), 0);
        }
        std::vector<int64_t>& acol = local != nullptr ? *local : w.a_col_nnz;
        bool sat = false;
        for (int64_t r = begin; r < end; ++r) {
          const size_t ri = static_cast<size_t>(r);
          const SpanView row = a.Row(static_cast<Index>(r));
          int64_t chat = 0;
          bool exact_row = false;
          if (is_sampled(r)) {
            for (Offset k = 0; k < row.size; ++k) {
              const Index j = row.indices[k];
              acol[static_cast<size_t>(j)]++;
              if (j < rows_b) {
                chat = SatAddI64(chat, w.b_row_nnz[static_cast<size_t>(j)],
                                 &sat);
              }
            }
            exact_row = true;
            ++t.sampled_rows;
          } else {
            int64_t hub_sum = 0;
            int64_t light = 0;
            for (Offset k = 0; k < row.size; ++k) {
              const size_t j = static_cast<size_t>(row.indices[k]);
              acol[j]++;
              const int64_t v = hubval[j];
              hub_sum += v;
              light += (v == 0);
            }
            if (light == 0) {
              chat = hub_sum;
              exact_row = true;
            } else {
              const int64_t lo =
                  SatAddI64(hub_sum, SatMulI64(light, min_rest, &sat), &sat);
              const int64_t hi =
                  SatAddI64(hub_sum, SatMulI64(light, v_rest, &sat), &sat);
              chat = ClampToBand(static_cast<double>(hub_sum) +
                                     static_cast<double>(light) * mean_rest,
                                 lo, hi);
              est.row_chat_lo[ri] = lo;
              est.row_chat_hi[ri] = hi;
              t.exact_mass = SatAddI64(t.exact_mass, hub_sum, &sat);
            }
          }
          if (exact_row) {
            est.row_exact[ri] = 1;
            est.row_chat_lo[ri] = chat;
            est.row_chat_hi[ri] = chat;
            t.exact_mass = SatAddI64(t.exact_mass, chat, &sat);
          }
          w.row_chat[ri] = chat;
          if (chat > 0 && cols_b_i64 > 0) {
            const int64_t e = exact_row ? EstimateMergedRowNnz(chat, cols_b_i64)
                                        : merge_approx(chat);
            w.row_c_est[ri] = e;
            t.output_nnz = SatAddI64(t.output_nnz, e, &sat);
          }
        }
        if (sat) ++t.saturations;
        return t;
      },
      [](RowTotals acc, RowTotals p) {
        bool sat = false;
        acc.exact_mass = SatAddI64(acc.exact_mass, p.exact_mass, &sat);
        acc.output_nnz = SatAddI64(acc.output_nnz, p.output_nnz, &sat);
        acc.sampled_rows += p.sampled_rows;
        acc.saturations += p.saturations + (sat ? 1 : 0);
        return acc;
      });
  if (num_chunks > 1) {
    SPNET_CHECK_OK(pool.ParallelFor(0, cols_a, GrainForItems(cols_a, threads),
                     [&](int64_t begin, int64_t end, int) {
                       for (int64_t c = begin; c < end; ++c) {
                         int64_t sum = 0;
                         for (const auto& h : hist) {
                           sum += h[static_cast<size_t>(c)];
                         }
                         w.a_col_nnz[static_cast<size_t>(c)] = sum;
                       }
                       return Status::Ok();
                     }));
  }
  w.output_nnz = totals.output_nnz;
  w.saturated += totals.saturations;
  est.sampled_rows = totals.sampled_rows;

  // Pair side: exact. a_col_nnz came from the fused histogram, so
  // pair_work, flops and pair classification are bit-identical to the
  // exact tier, and flops anchors both classification thresholds.
  FillPairWork(&w);

  // Confidence: the share of the (exact) intermediate mass whose row
  // attribution is known exactly. exact_mass <= flops by construction, so
  // this is a true fraction.
  est.exact_mass = totals.exact_mass;
  est.confidence =
      w.flops > 0 ? std::min(1.0, static_cast<double>(est.exact_mass) /
                                      static_cast<double>(w.flops))
                  : 1.0;
  if (w.saturated > 0) AddCounter(ctx, "workload.saturated", w.saturated);
  SetGauge(ctx, "estimator.sampled_rows",
           static_cast<double>(est.sampled_rows));
  SetGauge(ctx, "estimator.hub_rows", static_cast<double>(hubs));
  SetGauge(ctx, "estimator.confidence", est.confidence);
  return est;
}

}  // namespace spgemm
}  // namespace spnet
