#ifndef SPNET_SPARSE_TYPES_H_
#define SPNET_SPARSE_TYPES_H_

#include <cstdint>

#include "common/array_allocator.h"

namespace spnet {
namespace sparse {

/// Row/column index. 32 bits covers every dataset in the paper
/// (largest dimension: 1.1M for youtube).
using Index = int32_t;

/// Offset into the nonzero arrays. 64 bits: intermediate products of the
/// skewed networks exceed 2^31 (e.g. loc-gowalla nnz(C-hat) = 456M at full
/// scale).
using Offset = int64_t;

/// Numeric value of a nonzero. Edge weights in the paper's workloads.
using Value = double;

/// A matrix's column indices and values: default-initialized, and reusing
/// the last freed large block of their type (common/array_allocator.h).
using IndexArray = Array<Index>;
using ValueArray = Array<Value>;

}  // namespace sparse
}  // namespace spnet

#endif  // SPNET_SPARSE_TYPES_H_
