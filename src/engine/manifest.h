#ifndef SPNET_ENGINE_MANIFEST_H_
#define SPNET_ENGINE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/request.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace engine {

/// One manifest line: a matrix source, the algorithm to run, and how many
/// times to repeat the query (repeats share the loaded matrix, so they
/// exercise the plan cache the way repeated production traffic does).
struct ManifestEntry {
  /// Either a Table II dataset name ("youtube", "as-caida", ...) or a path
  /// to a .mtx / .spnb file (recognized by extension or a '/' in the
  /// token).
  std::string source;
  std::string algorithm = "reorganizer";
  int64_t repeat = 1;
};

/// Parses the batch manifest text format:
///
///   # comment (blank lines are skipped too)
///   <dataset-or-path> [algorithm] [repeat]
///
/// e.g.
///   as-caida reorganizer 8
///   emailEnron row-product
///   graphs/web.mtx outer-product 2
///
/// Unknown algorithm names are accepted here — the BatchRunner degrades
/// them to its fallback at execution time. Malformed repeats (non-numeric,
/// < 1, > 100000) are InvalidArgument.
[[nodiscard]] Result<std::vector<ManifestEntry>> ParseManifest(const std::string& content);

/// How BuildRequests materializes dataset sources.
struct ManifestLoadOptions {
  /// Scale for Table II dataset names (files load as-is).
  double scale = 0.05;
  uint64_t seed = 42;
  /// Optional on-disk .spnb cache for generated datasets (see
  /// datasets::MaterializeCached); empty = regenerate every run.
  std::string dataset_cache_dir;
  /// Per-request deadline applied to every generated request; <= 0 = none.
  double deadline_ms = 0.0;
};

/// Loads one manifest source: a path (recognized by a '/' or a .mtx/.spnb
/// extension) reads from disk; anything else resolves as a Table II
/// dataset name through the registry, scaled/seeded/cached per `options`.
/// Shared by manifest expansion and the serve MatrixStore so "what a
/// source means" has one definition.
[[nodiscard]] Result<sparse::CsrMatrix> LoadManifestSource(
    const std::string& source, const ManifestLoadOptions& options);

/// Expands manifest entries into engine::Request objects: each distinct
/// source is loaded or generated exactly once and shared across its
/// repeats. Request ids are "<source>:<algorithm>#<k>"; every request
/// carries `tenant` and `priority` (the manifest text format has no
/// per-line tenant column — a manifest is one tenant's batch). Fails if
/// any source cannot be loaded — a missing input is a manifest error, not
/// a per-request one.
[[nodiscard]] Result<std::vector<Request>> BuildRequests(
    const std::vector<ManifestEntry>& entries,
    const ManifestLoadOptions& options, const std::string& tenant = "batch",
    int priority = 0);

/// ParseManifest + BuildRequests over a manifest file on disk.
[[nodiscard]] Result<std::vector<Request>> LoadManifestRequests(
    const std::string& path, const ManifestLoadOptions& options,
    const std::string& tenant = "batch", int priority = 0);

}  // namespace engine
}  // namespace spnet

#endif  // SPNET_ENGINE_MANIFEST_H_
