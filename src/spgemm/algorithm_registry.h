#ifndef SPNET_SPGEMM_ALGORITHM_REGISTRY_H_
#define SPNET_SPGEMM_ALGORITHM_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "spgemm/algorithm.h"

namespace spnet {
namespace spgemm {

/// Central name -> factory map for spGEMM algorithms, replacing the
/// duplicated if-chains in the CLI and the suite builders. Factories
/// return Result so config-validating constructors (the Block
/// Reorganizer) can refuse to build.
///
/// Names are the CLI spellings ("row-product", "cusparse",
/// "reorganizer", ...), one per algorithm.
///
/// Fully thread-safe: registration and queries share one mutex. This
/// matters because registration is NOT confined to startup — every
/// BatchRunner constructor and the verify sweep call
/// core::RegisterCoreAlgorithms(), so a runner constructed on one thread
/// can race a query on another. (The maps used to be unsynchronized,
/// which was a data race exactly on that window; the thread-safety
/// annotation pass surfaced it.)
class AlgorithmRegistry {
 public:
  using Factory = std::function<Result<std::unique_ptr<SpGemmAlgorithm>>()>;

  /// Registers a factory; AlreadyExists if the name is taken.
  Status Register(const std::string& name, Factory factory);

  bool Contains(const std::string& name) const;

  /// Instantiates the named algorithm; NotFound lists the valid names.
  Result<std::unique_ptr<SpGemmAlgorithm>> Create(
      const std::string& name) const;

  /// Names in sorted order — help text.
  std::vector<std::string> Names() const;

  /// One sorted "a, b, c" string for error messages and --help.
  std::string NamesLine() const;

  /// The process-wide registry, pre-seeded with the eight spgemm-layer
  /// baselines. The Block Reorganizer lives in core (a higher layer), so
  /// core::RegisterCoreAlgorithms() adds it on top; the CLI and suite
  /// builders call that before querying.
  static AlgorithmRegistry& Global();

 private:
  /// Names() without the lock, for composition inside locked regions.
  std::vector<std::string> NamesLocked() const REQUIRES(mu_);
  std::string NamesLineLocked() const REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Factory> factories_ GUARDED_BY(mu_);
};

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_ALGORITHM_REGISTRY_H_
