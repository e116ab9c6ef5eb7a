#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>


namespace spnet {
namespace {

TEST(ThreadPoolTest, ReportsRequestedThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.threads(), 3);
  ThreadPool single(1);
  EXPECT_EQ(single.threads(), 1);
}

TEST(ThreadPoolTest, DefaultUsesHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.threads(), 1);
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const int64_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  const Status s = pool.ParallelFor(0, n, 7, [&](int64_t b, int64_t e, int) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok());
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, RangeSmallerThanGrainRunsAsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  int64_t seen_begin = -1, seen_end = -1;
  const Status s =
      pool.ParallelFor(10, 15, 1000, [&](int64_t b, int64_t e, int) {
        ++calls;
        seen_begin = b;
        seen_end = e;
        return Status::Ok();
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 10);
  EXPECT_EQ(seen_end, 15);
}

TEST(ThreadPoolTest, ZeroLengthRangeNeverInvokesChunkFn) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  EXPECT_TRUE(pool.ParallelFor(5, 5, 10, [&](int64_t, int64_t, int) {
                    ++calls;
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_TRUE(pool.ParallelFor(9, 3, 10, [&](int64_t, int64_t, int) {
                    ++calls;
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, NonPositiveGrainIsClampedToOne) {
  ThreadPool pool(2);
  std::atomic<int64_t> covered{0};
  const Status s = pool.ParallelFor(0, 64, 0, [&](int64_t b, int64_t e, int) {
    EXPECT_EQ(e, b + 1);  // grain 0 -> chunks of one element
    covered += e - b;
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(covered.load(), 64);
}

TEST(ThreadPoolTest, ThreadIndexStaysInBounds) {
  ThreadPool pool(3);
  std::atomic<bool> out_of_bounds{false};
  SPNET_CHECK_OK(
      pool.ParallelFor(0, 1000, 5, [&](int64_t, int64_t, int thread_index) {
        if (thread_index < 0 || thread_index >= 3) out_of_bounds = true;
        return Status::Ok();
      }));
  EXPECT_FALSE(out_of_bounds.load());
}

TEST(ThreadPoolTest, PropagatesChunkStatus) {
  ThreadPool pool(4);
  const Status s = pool.ParallelFor(0, 100, 10, [](int64_t b, int64_t, int) {
    if (b == 50) return Status::Internal("chunk 50 failed");
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), "chunk 50 failed");
}

TEST(ThreadPoolTest, PropagatesStatusFromSingleThreadPool) {
  ThreadPool pool(1);
  const Status s = pool.ParallelFor(0, 100, 10, [](int64_t b, int64_t, int) {
    if (b >= 30) return Status::OutOfRange("stop");
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(ThreadPoolTest, ReportsLowestFailingChunkWhenAllFail) {
  ThreadPool pool(4);
  const Status s =
      pool.ParallelFor(0, 80, 10, [](int64_t b, int64_t, int) {
        return Status::Internal("chunk at " + std::to_string(b));
      });
  ASSERT_FALSE(s.ok());
  // The reported status is the lowest-index chunk that actually ran and
  // failed; which chunks run before the failure flag stops the rest is
  // scheduling-dependent, but the status always comes from a real chunk.
  EXPECT_EQ(s.message().rfind("chunk at ", 0), 0u) << s.message();
}

TEST(ThreadPoolTest, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  for (int iter = 0; iter < 50; ++iter) {
    std::atomic<int64_t> sum{0};
    const Status s =
        pool.ParallelFor(0, 1000, 13, [&](int64_t b, int64_t e, int) {
          int64_t local = 0;
          for (int64_t i = b; i < e; ++i) local += i;
          sum += local;
          return Status::Ok();
        });
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(sum.load(), 999 * 1000 / 2);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  const Status s = pool.ParallelFor(0, 8, 1, [&](int64_t, int64_t, int) {
    return pool.ParallelFor(0, 100, 10, [&](int64_t b, int64_t e, int) {
      total += e - b;
      return Status::Ok();
    });
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPoolTest, ParallelReduceSumsRange) {
  ThreadPool pool(4);
  const int64_t sum = pool.ParallelReduce(
      0, 10000, 17, int64_t{0},
      [](int64_t b, int64_t e, int) {
        int64_t local = 0;
        for (int64_t i = b; i < e; ++i) local += i;
        return local;
      },
      [](int64_t acc, int64_t partial) { return acc + partial; });
  EXPECT_EQ(sum, 9999 * 10000 / 2);
}

TEST(ThreadPoolTest, ParallelReduceCombinesInChunkOrder) {
  // A non-commutative combine (string concatenation) exposes any ordering
  // nondeterminism; chunk-order combination must match the serial scan.
  ThreadPool pool(4);
  const std::string joined = pool.ParallelReduce(
      0, 26, 5, std::string(),
      [](int64_t b, int64_t e, int) {
        std::string s;
        for (int64_t i = b; i < e; ++i) {
          s.push_back(static_cast<char>('a' + i));
        }
        return s;
      },
      [](std::string acc, std::string partial) { return acc + partial; });
  EXPECT_EQ(joined, "abcdefghijklmnopqrstuvwxyz");
}

TEST(ThreadPoolTest, ParallelReduceEmptyRangeReturnsInit) {
  ThreadPool pool(4);
  const int64_t v = pool.ParallelReduce(
      3, 3, 10, int64_t{42}, [](int64_t, int64_t, int) { return int64_t{7}; },
      [](int64_t acc, int64_t partial) { return acc + partial; });
  EXPECT_EQ(v, 42);
}

TEST(GlobalPoolTest, SetThreadCountTakesEffect) {
  SetGlobalThreadCount(2);
  EXPECT_EQ(GlobalThreadCount(), 2);
  EXPECT_EQ(GlobalThreadPool().threads(), 2);
  SetGlobalThreadCount(0);  // restore hardware default
  EXPECT_GE(GlobalThreadCount(), 1);
}

TEST(GlobalPoolTest, FreeFunctionsUseGlobalPool) {
  SetGlobalThreadCount(2);
  std::atomic<int64_t> covered{0};
  const Status s = ParallelFor(0, 100, 9, [&](int64_t b, int64_t e, int) {
    covered += e - b;
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(covered.load(), 100);
  SetGlobalThreadCount(0);
}

TEST(GrainTest, GrainHelpersStayPositive) {
  EXPECT_EQ(GrainForItems(0, 4), 1);
  EXPECT_EQ(GrainForItems(1, 4), 1);
  EXPECT_GE(GrainForItems(1 << 20, 4), 1);
  EXPECT_EQ(GrainForChunkPerThread(0, 4), 1);
  EXPECT_EQ(GrainForChunkPerThread(100, 4), 25);
}

}  // namespace
}  // namespace spnet
