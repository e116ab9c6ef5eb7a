#ifndef SPNET_SPARSE_FINGERPRINT_H_
#define SPNET_SPARSE_FINGERPRINT_H_

#include <cstdint>

#include "sparse/csr_matrix.h"

namespace spnet {
namespace sparse {

/// 64-bit structural fingerprint of a CSR matrix: a hash over the
/// dimensions, the row-pointer array and the column-index array. Values are
/// deliberately excluded — spGEMM planning (workload classification,
/// splitting/gathering/limiting decisions, kernel shapes) depends only on
/// the sparsity structure, so two matrices with the same structure but
/// different numerics share a plan.
///
/// Each element is hashed as one 64-bit word (the xxHash64 round over four
/// independent lanes, then its final avalanche), with each array's length
/// mixed in ahead of it. Hashing element values rather than bytes keeps
/// the result deterministic across runs, processes and host endianness.
/// The value is not persisted anywhere; tests pin it so that changing the
/// hash is a deliberate act. Two different structures colliding is
/// possible but needs ~2^32 distinct structures in one cache to become
/// likely.
uint64_t StructuralFingerprint(const CsrMatrix& m);

/// Mixes two fingerprints (or a fingerprint and a tag) into one, order
/// sensitive: Combine(a, b) != Combine(b, a). Used to key (A, B) pairs.
uint64_t CombineFingerprints(uint64_t a, uint64_t b);

}  // namespace sparse
}  // namespace spnet

#endif  // SPNET_SPARSE_FINGERPRINT_H_
