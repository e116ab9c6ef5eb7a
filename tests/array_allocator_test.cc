#include "common/array_allocator.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "datasets/generators.h"
#include "sparse/csr_matrix.h"
#include "spgemm/functional.h"

namespace spnet {
namespace {

constexpr size_t kMiB = size_t{1} << 20;

TEST(BlockSlotTest, BlocksAreHugePageAlignedAndKeepTheirContents) {
  BlockSlot slot;
  // Not a multiple of the huge page: the block is rounded up to one.
  const size_t bytes = 8 * kMiB + 12;
  auto* block = static_cast<uint32_t*>(slot.Allocate(bytes));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block) % kHugePageBytes, 0u);
  EXPECT_EQ(slot.mapped_bytes(), 10 * kMiB);
  const size_t n = bytes / sizeof(uint32_t);
  for (size_t i = 0; i < n; ++i) {
    block[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(block[i], static_cast<uint32_t>(i * 2654435761u)) << i;
  }
  slot.Deallocate(block, bytes);
  EXPECT_EQ(slot.kept_bytes(), 10 * kMiB);
}

TEST(BlockSlotTest, KeepsOnlyTheLargerOfTwoFreedBlocks) {
  for (const bool larger_first : {false, true}) {
    SCOPED_TRACE(larger_first ? "larger freed first" : "smaller freed first");
    BlockSlot slot;
    void* small = slot.Allocate(4 * kMiB);
    void* large = slot.Allocate(8 * kMiB);
    EXPECT_EQ(slot.mapped_bytes(), 12 * kMiB);
    if (larger_first) {
      slot.Deallocate(large, 8 * kMiB);
      slot.Deallocate(small, 4 * kMiB);
    } else {
      slot.Deallocate(small, 4 * kMiB);
      slot.Deallocate(large, 8 * kMiB);
    }
    EXPECT_EQ(slot.kept_bytes(), 8 * kMiB);
    EXPECT_EQ(slot.mapped_bytes(), 8 * kMiB);
    // The kept block is the larger one: a request it holds gets it back.
    EXPECT_EQ(slot.Allocate(8 * kMiB), large);
    slot.Deallocate(large, 8 * kMiB);
  }
}

TEST(BlockSlotTest, ReleasesTheKeptBlockBeforeMappingALargerOne) {
  BlockSlot slot;
  slot.Deallocate(slot.Allocate(8 * kMiB), 8 * kMiB);
  EXPECT_EQ(slot.kept_bytes(), 8 * kMiB);
  EXPECT_EQ(slot.peak_mapped_bytes(), 8 * kMiB);
  void* larger = slot.Allocate(16 * kMiB);
  EXPECT_EQ(slot.kept_bytes(), 0u);
  EXPECT_EQ(slot.mapped_bytes(), 16 * kMiB);
  // Never 24 MiB at once: the kept block went before the new one came.
  EXPECT_EQ(slot.peak_mapped_bytes(), 16 * kMiB);
  slot.Deallocate(larger, 16 * kMiB);
  EXPECT_EQ(slot.kept_bytes(), 16 * kMiB);
}

TEST(BlockSlotTest, LentBlockReturnsWithItsRealCapacity) {
  BlockSlot slot;
  void* block = slot.Allocate(16 * kMiB);
  slot.Deallocate(block, 16 * kMiB);
  // A smaller request borrows the kept block; nothing new is mapped.
  void* borrowed = slot.Allocate(3 * kMiB);
  EXPECT_EQ(borrowed, block);
  EXPECT_EQ(slot.kept_bytes(), 0u);
  EXPECT_EQ(slot.mapped_bytes(), 16 * kMiB);
  // It comes back at 16 MiB, not at the 3 MiB (4 MiB rounded) it was
  // asked for, and still serves a 16 MiB request without a new mapping.
  slot.Deallocate(borrowed, 3 * kMiB);
  EXPECT_EQ(slot.kept_bytes(), 16 * kMiB);
  EXPECT_EQ(slot.Allocate(16 * kMiB), block);
  EXPECT_EQ(slot.peak_mapped_bytes(), 16 * kMiB);
  slot.Deallocate(block, 16 * kMiB);
}

TEST(BlockSlotTest, ConcurrentUsersLeaveOneKeptBlock) {
  BlockSlot slot;
  std::vector<std::thread> users;
  for (size_t t = 0; t < 4; ++t) {
    users.emplace_back([&slot, t] {
      for (size_t round = 0; round < 50; ++round) {
        const size_t bytes = (2 + (t + round) % 4) * kMiB;
        auto* block = static_cast<unsigned char*>(slot.Allocate(bytes));
        block[0] = static_cast<unsigned char>(t);
        block[bytes - 1] = static_cast<unsigned char>(round);
        slot.Deallocate(block, bytes);
      }
    });
  }
  for (std::thread& user : users) user.join();
  // Everything came back; only the kept block is still mapped.
  EXPECT_GT(slot.kept_bytes(), 0u);
  EXPECT_EQ(slot.mapped_bytes(), slot.kept_bytes());
}

TEST(ArrayTest, SizeConstructorWritesNothingIntoAReusedBlock) {
  if (!kArraysKeepBlocks) {
    GTEST_SKIP() << "AddressSanitizer builds use std::vector, which "
                    "value-initializes and keeps no block";
  }
  const size_t n = 4 * kHugePageBytes / sizeof(sparse::Value);
  const void* first = nullptr;
  {
    sparse::ValueArray values(n, 1.5);
    first = values.data();
  }
  sparse::ValueArray reused(n);
  EXPECT_EQ(static_cast<const void*>(reused.data()), first);
  EXPECT_EQ(reused.front(), 1.5);
  EXPECT_EQ(reused.back(), 1.5);
}

TEST(ArrayTest, ReleasedTailIsNoLongerResident) {
  if (!kArraysKeepBlocks) {
    GTEST_SKIP() << "AddressSanitizer builds use std::vector, whose "
                    "blocks are not this allocator's to release";
  }
  const size_t per_mib = kMiB / sizeof(sparse::Value);
  sparse::ValueArray values(4 * per_mib, 2.5);
  values.resize(3 * per_mib);
  ReleaseUnusedTail(values);
  // The pages of the second huge page past the size are gone; the
  // elements before it are intact.
  std::vector<unsigned char> resident(kMiB / 4096);
  ASSERT_EQ(mincore(values.data() + values.size(), kMiB, resident.data()),
            0);
  for (size_t page = 0; page < resident.size(); ++page) {
    EXPECT_EQ(resident[page] & 1, 0) << page;
  }
  EXPECT_EQ(values.front(), 2.5);
  EXPECT_EQ(values.back(), 2.5);
}

// ThreadSanitizer replaces the C library's allocator with one that maps
// the kernel's other per-call buffers afresh on each call, so a TSan
// build faults for reasons that are not the arrays'.
#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// A serial product whose arrays exceed a huge page: after one warm call,
/// the next call faults in fewer than an eighth of its output's 4 KiB
/// pages. This must not depend on whether the process freed a block that
/// raises the C library's mmap threshold (up to 32 MB) before.
TEST(ArrayTest, WarmSerialProductFaultsInAlmostNoPages) {
  if (!kArraysKeepBlocks || kThreadSanitizer) {
    GTEST_SKIP() << "a sanitizer's allocator maps memory afresh per call";
  }
  datasets::PowerLawParams p;
  p.rows = 20000;
  p.cols = 20000;
  p.nnz = 110000;
  p.row_skew = 0.0;
  p.col_skew = 0.0;
  p.seed = 81;
  auto a = datasets::GeneratePowerLaw(p);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  SetGlobalThreadCount(1);
  auto expect_few_faults = [&](const std::string& when) {
    SCOPED_TRACE(when);
    ASSERT_TRUE(spgemm::RowProductExpandMerge(*a, *a).ok());  // warm call
    const int64_t before = MinorFaults();
    auto c = spgemm::RowProductExpandMerge(*a, *a);
    const int64_t faults = MinorFaults() - before;
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    ASSERT_GT(c->indices().size() * sizeof(sparse::Index), kHugePageBytes);
    const int64_t pages = static_cast<int64_t>(
        (c->indices().size() * sizeof(sparse::Index) +
         c->values().size() * sizeof(sparse::Value)) / 4096);
    EXPECT_LT(faults * 8, pages)
        << faults << " faults for " << pages << " output pages";
  };
  expect_few_faults("no large block freed before");
  {
    // 32,000,000 bytes, under glibc's 32 MiB cap on its dynamic mmap
    // threshold: the free raises the threshold to the block's size.
    std::vector<char> block(size_t{32} * 1000 * 1000, 'x');
  }
  expect_few_faults("after freeing a 32 MB block");
  SetGlobalThreadCount(0);
}

}  // namespace
}  // namespace spnet
