#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/status.h"

namespace spnet {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dims");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dims");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dims");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveExtractsValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Result<int> Doubled(Result<int> in) {
  SPNET_ASSIGN_OR_RETURN(int v, in);
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  Result<int> ok = Doubled(Result<int>(21));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err = Doubled(Result<int>(Status::Internal("boom")));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 32), 0);
  EXPECT_EQ(CeilDiv(1, 32), 1);
  EXPECT_EQ(CeilDiv(32, 32), 1);
  EXPECT_EQ(CeilDiv(33, 32), 2);
}

TEST(MathUtilTest, Pow2Helpers) {
  EXPECT_EQ(NextPow2(1), 1);
  EXPECT_EQ(NextPow2(3), 4);
  EXPECT_EQ(NextPow2(32), 32);
  EXPECT_EQ(NextPow2(33), 64);
  EXPECT_EQ(PrevPow2(1), 1);
  EXPECT_EQ(PrevPow2(3), 2);
  EXPECT_EQ(PrevPow2(32), 32);
  EXPECT_EQ(PrevPow2(63), 32);
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(48));
  EXPECT_EQ(Log2Floor(1), 0);
  EXPECT_EQ(Log2Floor(2), 1);
  EXPECT_EQ(Log2Floor(31), 4);
  EXPECT_EQ(Log2Floor(32), 5);
}

TEST(FlagsTest, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "pos1", "--alpha=3.5", "--name", "youtube",
                        "--flag"};
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(6, argv).ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 3.5);
  EXPECT_EQ(flags.GetString("name", ""), "youtube");
  EXPECT_TRUE(flags.GetBool("flag", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(flags.GetInt("n", 42), 42);
  EXPECT_FALSE(flags.Has("n"));
  EXPECT_FALSE(flags.GetBool("b", false));
}

TEST(FlagsTest, IntegerParsing) {
  const char* argv[] = {"prog", "--n=1000000", "--neg=-5"};
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_EQ(flags.GetInt("n", 0), 1000000);
  EXPECT_EQ(flags.GetInt("neg", 0), -5);
}

TEST(FlagsTest, FirstUnknownFlagNamesTheFirstUndeclaredFlag) {
  const std::set<std::string> known = {"dim", "out"};
  const char* clean[] = {"prog", "generate", "--dim=50", "--out", "a.mtx"};
  EXPECT_EQ(FirstUnknownFlag(5, clean, known), "");
  // The value of an unknown flag is not mistaken for a flag of its own.
  const char* misspelt[] = {"prog", "--dimm", "50", "--out=a.mtx",
                            "--nnz=200"};
  EXPECT_EQ(FirstUnknownFlag(5, misspelt, known), "--dimm");
  const char* with_value[] = {"prog", "--dim=50", "--nnz=200"};
  EXPECT_EQ(FirstUnknownFlag(3, with_value, known), "--nnz");
  const char* bare[] = {"prog", "--"};
  EXPECT_EQ(FirstUnknownFlag(2, bare, known), "--");
}

TEST(FlagsTest, FirstMalformedNumberNamesAValueThatDoesNotParseToItsEnd) {
  const std::set<std::string> integers = {"dim", "nnz", "threads"};
  const std::set<std::string> reals = {"skew"};
  auto check = [&](std::vector<const char*> argv) {
    FlagParser flags;
    EXPECT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
    return FirstMalformedNumber(flags, integers, reals);
  };
  EXPECT_EQ(check({"prog", "--dim", "50", "--skew=0.8", "--out", "x"}), "");
  EXPECT_EQ(check({"prog", "--nnz=-3", "--skew=1e-2"}), "");
  // GetInt would read these as 5, 2 and 0.
  EXPECT_EQ(check({"prog", "--dim", "5O", "--nnz=20"}), "--dim=5O");
  EXPECT_EQ(check({"prog", "--nnz=2.5"}), "--nnz=2.5");
  EXPECT_EQ(check({"prog", "--threads="}), "--threads=");
  EXPECT_EQ(check({"prog", "--threads"}), "--threads=true");
  EXPECT_EQ(check({"prog", "--skew=0.8x"}), "--skew=0.8x");
  EXPECT_EQ(check({"prog", "--dim=99999999999999999999"}),
            "--dim=99999999999999999999");
  // Flags outside both sets are not numbers.
  EXPECT_EQ(check({"prog", "--out=5O"}), "");
}

}  // namespace
}  // namespace spnet
