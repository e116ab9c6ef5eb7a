#include "sparse/serialization.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "verify/fault_injection.h"

namespace spnet {
namespace sparse {

namespace {

constexpr uint32_t kMagic = 0x424E5053;  // 'SPNB' little-endian
constexpr uint32_t kVersion = 1;

struct Header {
  uint32_t magic;
  uint32_t version;
  int64_t rows;
  int64_t cols;
  int64_t nnz;
};

}  // namespace

Status WriteBinary(const CsrMatrix& m, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  Header header{kMagic, kVersion, m.rows(), m.cols(), m.nnz()};
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(m.ptr().data()),
            static_cast<std::streamsize>(m.ptr().size() * sizeof(Offset)));
  out.write(reinterpret_cast<const char*>(m.indices().data()),
            static_cast<std::streamsize>(m.indices().size() * sizeof(Index)));
  out.write(reinterpret_cast<const char*>(m.values().data()),
            static_cast<std::streamsize>(m.values().size() * sizeof(Value)));
  if (!out) {
    return Status::IoError("write failed for " + path);
  }
  return Status::Ok();
}

Result<CsrMatrix> ReadBinary(const std::string& path) {
  SPNET_RETURN_IF_ERROR(verify::MaybeInjectFault(verify::kSiteLoaderRead));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  Header header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in) {
    return Status::IoError("truncated header in " + path);
  }
  if (header.magic != kMagic) {
    return Status::InvalidArgument(path + " is not an SPNB file");
  }
  if (header.version != kVersion) {
    return Status::InvalidArgument("unsupported SPNB version " +
                                   std::to_string(header.version));
  }
  if (header.rows < 0 || header.cols < 0 || header.nnz < 0) {
    return Status::InvalidArgument("negative sizes in SPNB header");
  }
  // The casts below truncate to 32-bit Index; reject headers the type
  // cannot represent instead of wrapping silently.
  constexpr int64_t kMaxIndex = std::numeric_limits<Index>::max();
  if (header.rows > kMaxIndex || header.cols > kMaxIndex) {
    return Status::OutOfRange(
        "SPNB header dimensions " + std::to_string(header.rows) + " x " +
        std::to_string(header.cols) + " exceed 32-bit index range");
  }

  // Compare the body the header implies with the bytes the file holds
  // before allocating for it: a lying nnz must not size the arrays. rows is
  // 32-bit here, so ptr_bytes cannot overflow, and nnz is bounded by
  // division.
  const std::streamoff body_start = in.tellg();
  in.seekg(0, std::ios::end);
  const auto body_bytes = static_cast<uint64_t>(in.tellg() - body_start);
  in.seekg(body_start);
  const uint64_t ptr_bytes =
      (static_cast<uint64_t>(header.rows) + 1) * sizeof(Offset);
  if (!in || body_bytes < ptr_bytes ||
      static_cast<uint64_t>(header.nnz) >
          (body_bytes - ptr_bytes) / (sizeof(Index) + sizeof(Value))) {
    return Status::IoError("truncated body in " + path + ": header declares " +
                           std::to_string(header.rows) + " rows and " +
                           std::to_string(header.nnz) +
                           " nonzeros, more than the " +
                           std::to_string(body_bytes) + " bytes after it hold");
  }

  std::vector<Offset> ptr(static_cast<size_t>(header.rows) + 1);
  std::vector<Index> idx(static_cast<size_t>(header.nnz));
  std::vector<Value> val(static_cast<size_t>(header.nnz));
  in.read(reinterpret_cast<char*>(ptr.data()),
          static_cast<std::streamsize>(ptr.size() * sizeof(Offset)));
  in.read(reinterpret_cast<char*>(idx.data()),
          static_cast<std::streamsize>(idx.size() * sizeof(Index)));
  in.read(reinterpret_cast<char*>(val.data()),
          static_cast<std::streamsize>(val.size() * sizeof(Value)));
  if (!in) {
    return Status::IoError("truncated body in " + path);
  }
  // FromParts re-validates all structural invariants, so corrupted files
  // surface as InvalidArgument instead of undefined behavior.
  return CsrMatrix::FromParts(static_cast<Index>(header.rows),
                              static_cast<Index>(header.cols), std::move(ptr),
                              std::move(idx), std::move(val));
}

}  // namespace sparse
}  // namespace spnet
