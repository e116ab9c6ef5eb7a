#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sparse/serialization.h"
#include "tests/test_util.h"

namespace spnet {
namespace sparse {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SerializationTest, RoundTripExact) {
  const CsrMatrix m = testing_util::SkewedMatrix(120, 80, 21);
  const std::string path = TempPath("roundtrip.spnb");
  ASSERT_TRUE(WriteBinary(m, path).ok());
  auto back = ReadBinary(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->rows(), m.rows());
  EXPECT_EQ(back->cols(), m.cols());
  EXPECT_EQ(back->nnz(), m.nnz());
  // Bit-exact: same arrays, not just approximate equality.
  EXPECT_EQ(back->ptr(), m.ptr());
  EXPECT_EQ(back->indices(), m.indices());
  EXPECT_EQ(back->values(), m.values());
  std::remove(path.c_str());
}

TEST(SerializationTest, EmptyMatrix) {
  CooMatrix coo(5, 7);
  auto m = CsrMatrix::FromCoo(coo);
  const std::string path = TempPath("empty.spnb");
  ASSERT_TRUE(WriteBinary(*m, path).ok());
  auto back = ReadBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows(), 5);
  EXPECT_EQ(back->cols(), 7);
  EXPECT_EQ(back->nnz(), 0);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsBadMagic) {
  const std::string path = TempPath("bad_magic.spnb");
  std::ofstream out(path, std::ios::binary);
  out << "not a matrix file at all, just text";
  out.close();
  auto r = ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsTruncatedFile) {
  const CsrMatrix m = testing_util::RandomMatrix(50, 50, 0.1, 5);
  const std::string path = TempPath("truncated.spnb");
  ASSERT_TRUE(WriteBinary(m, path).ok());
  // Chop off the tail.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() / 2));
  out.close();
  auto r = ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsCorruptedStructure) {
  const CsrMatrix m = testing_util::RandomMatrix(30, 30, 0.1, 6);
  const std::string path = TempPath("corrupt.spnb");
  ASSERT_TRUE(WriteBinary(m, path).ok());
  // Flip a pointer entry so the monotone invariant breaks.
  std::fstream f(path,
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(32 + 8);  // header (32B) + ptr[1]
  const int64_t bogus = -5;
  f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  f.close();
  EXPECT_FALSE(ReadBinary(path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, HeaderNnzBeyondTheFileFailsBeforeAllocating) {
  // A valid 2-row header that declares 2^40 nonzeros, then a few body
  // bytes. Sizing the arrays from the header would ask for 12 TB.
  const CsrMatrix m = testing_util::RandomMatrix(2, 2, 1.0, 7);
  const std::string path = TempPath("lying_nnz.spnb");
  ASSERT_TRUE(WriteBinary(m, path).ok());
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  const int64_t nnz = int64_t{1} << 40;
  f.seekp(24);  // magic, version, rows, cols, then nnz
  f.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  f.close();

  auto r = ReadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFile) {
  auto r = ReadBinary("/nonexistent/dir/matrix.spnb");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace sparse
}  // namespace spnet
