#include "engine/manifest.h"

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "datasets/cache.h"
#include "datasets/registry.h"
#include "sparse/matrix_market.h"
#include "sparse/serialization.h"

namespace spnet {
namespace engine {

namespace {

constexpr int64_t kMaxRepeat = 100000;

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool LooksLikeFile(const std::string& source) {
  return source.find('/') != std::string::npos ||
         EndsWith(source, ".mtx") || EndsWith(source, ".spnb");
}

}  // namespace

Result<sparse::CsrMatrix> LoadManifestSource(
    const std::string& source, const ManifestLoadOptions& options) {
  if (LooksLikeFile(source)) {
    return EndsWith(source, ".spnb") ? sparse::ReadBinary(source)
                                     : sparse::ReadMatrixMarket(source);
  }
  SPNET_ASSIGN_OR_RETURN(const datasets::RealWorldSpec spec,
                         datasets::FindDataset(source));
  return datasets::MaterializeCached(spec, options.scale,
                                     options.dataset_cache_dir, options.seed);
}

Result<std::vector<ManifestEntry>> ParseManifest(const std::string& content) {
  std::vector<ManifestEntry> entries;
  std::istringstream in(content);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const size_t comment = line.find('#');
    if (comment != std::string::npos) line.resize(comment);

    std::istringstream fields(line);
    ManifestEntry entry;
    if (!(fields >> entry.source)) continue;  // blank or comment-only line
    std::string algorithm, repeat, extra;
    if (fields >> algorithm) entry.algorithm = algorithm;
    if (fields >> repeat) {
      char* end = nullptr;
      entry.repeat = std::strtoll(repeat.c_str(), &end, 10);
      if (end != repeat.c_str() + repeat.size() || entry.repeat < 1 ||
          entry.repeat > kMaxRepeat) {
        return Status::InvalidArgument(
            "manifest line " + std::to_string(line_number) +
            ": repeat must be an integer in [1, " +
            std::to_string(kMaxRepeat) + "], got '" + repeat + "'");
      }
    }
    if (fields >> extra) {
      return Status::InvalidArgument("manifest line " +
                                     std::to_string(line_number) +
                                     ": unexpected token '" + extra + "'");
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

Result<std::vector<Request>> BuildRequests(
    const std::vector<ManifestEntry>& entries,
    const ManifestLoadOptions& options, const std::string& tenant,
    int priority) {
  std::map<std::string, std::shared_ptr<const sparse::CsrMatrix>> loaded;
  std::vector<Request> requests;
  for (const ManifestEntry& entry : entries) {
    auto it = loaded.find(entry.source);
    if (it == loaded.end()) {
      auto m = LoadManifestSource(entry.source, options);
      if (!m.ok()) {
        return Status(m.status().code(), "manifest source '" + entry.source +
                                             "': " + m.status().message());
      }
      it = loaded
               .emplace(entry.source, std::make_shared<const sparse::CsrMatrix>(
                                          std::move(m).value()))
               .first;
    }
    for (int64_t k = 0; k < entry.repeat; ++k) {
      // The CLI option keeps its historical "<= 0 disables deadlines"
      // contract; only a positive value becomes a per-request budget (0 on
      // a Request now means "born expired").
      SPNET_ASSIGN_OR_RETURN(
          Request request,
          RequestBuilder()
              .Id(entry.source + ":" + entry.algorithm + "#" +
                  std::to_string(k))
              .Tenant(tenant)
              .Priority(priority)
              .Algorithm(entry.algorithm)
              .DeadlineMs(options.deadline_ms > 0.0
                              ? options.deadline_ms
                              : Request::kInheritDeadline)
              .OperandA(it->second)
              .Build());
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

Result<std::vector<Request>> LoadManifestRequests(
    const std::string& path, const ManifestLoadOptions& options,
    const std::string& tenant, int priority) {
  std::ifstream file(path);
  if (!file) {
    return Status::IoError("cannot open manifest " + path);
  }
  std::ostringstream content;
  content << file.rdbuf();
  SPNET_ASSIGN_OR_RETURN(const std::vector<ManifestEntry> entries,
                         ParseManifest(content.str()));
  return BuildRequests(entries, options, tenant, priority);
}

}  // namespace engine
}  // namespace spnet
