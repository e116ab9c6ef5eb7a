#include "spgemm/algorithm_registry.h"

namespace spnet {
namespace spgemm {

Status AlgorithmRegistry::Register(const std::string& name, Factory factory) {
  MutexLock lock(&mu_);
  if (factories_.count(name) != 0) {
    return Status::AlreadyExists("algorithm already registered: " + name);
  }
  factories_[name] = std::move(factory);
  return Status::Ok();
}

bool AlgorithmRegistry::Contains(const std::string& name) const {
  MutexLock lock(&mu_);
  return factories_.count(name) != 0;
}

Result<std::unique_ptr<SpGemmAlgorithm>> AlgorithmRegistry::Create(
    const std::string& name) const {
  // The factory is copied out and invoked after the lock is dropped, so a
  // factory that itself consults the registry cannot deadlock.
  Factory factory;
  {
    MutexLock lock(&mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      return Status::NotFound("unknown algorithm: " + name +
                              " (known: " + NamesLineLocked() + ")");
    }
    factory = it->second;
  }
  return factory();
}

std::vector<std::string> AlgorithmRegistry::NamesLocked() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;  // std::map iteration order: already sorted
}

std::vector<std::string> AlgorithmRegistry::Names() const {
  MutexLock lock(&mu_);
  return NamesLocked();
}

std::string AlgorithmRegistry::NamesLineLocked() const {
  std::string line;
  for (const std::string& name : NamesLocked()) {
    if (!line.empty()) line += ", ";
    line += name;
  }
  return line;
}

std::string AlgorithmRegistry::NamesLine() const {
  MutexLock lock(&mu_);
  return NamesLineLocked();
}

AlgorithmRegistry& AlgorithmRegistry::Global() {
  static AlgorithmRegistry* registry = [] {
    // Leaked on purpose: the registry must outlive static destructors.
    auto* r = new AlgorithmRegistry();  // spnet-lint: allow(raw-new-delete)
    auto add = [r](const std::string& name,
                   std::unique_ptr<SpGemmAlgorithm> (*make)()) {
      const Status s =
          r->Register(name, [make]() -> Result<std::unique_ptr<SpGemmAlgorithm>> {
            return make();
          });
      (void)s;  // seeding a fresh registry cannot collide
    };
    add("row-product", MakeRowProduct);
    add("outer-product", MakeOuterProduct);
    add("cusparse", MakeCusparseLike);
    add("cusp", MakeCuspLike);
    add("bhsparse", MakeBhsparseLike);
    add("mkl", MakeMklLike);
    add("acspgemm", MakeAcSpGemmLike);
    add("nsparse", MakeNsparseLike);
    return r;
  }();
  return *registry;
}

}  // namespace spgemm
}  // namespace spnet
