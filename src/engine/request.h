#ifndef SPNET_ENGINE_REQUEST_H_
#define SPNET_ENGINE_REQUEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace engine {

/// Version of the Request/Response schema this binary speaks. Bump when a
/// field changes meaning; additive fields keep the version. Producers stamp
/// it on every Request/Response and consumers reject versions they do not
/// know, so a mixed fleet fails loudly instead of misreading fields.
inline constexpr int kRequestSchemaVersion = 1;

/// One unit of work for the engine: measure C = A*B (B null means C = A^2,
/// the paper's workload) with the named algorithm. This is the single
/// request currency shared by `spnet_cli batch`, the `spnet_serve` daemon,
/// and `BatchRunner::Execute`.
///
/// Besides the operands, a Request carries the serving-layer identity
/// fields: the tenant it bills against, its scheduling priority, and a
/// deadline that survives queueing.
struct Request {
  int schema_version = kRequestSchemaVersion;
  std::string id;
  /// Tenant the request bills its quota against and whose per-tenant
  /// serve.* metrics it lands in. Offline batch paths use "batch".
  std::string tenant = "batch";
  /// Scheduling priority; higher drains first from the serve queue. Ties
  /// are FIFO. Ignored by direct Execute calls (the batch is one unit).
  int priority = 0;
  /// Sentinel for deadline_ms: inherit the executor's default deadline
  /// (BatchOptions::default_deadline_ms or ServeOptions::default_deadline_ms).
  static constexpr double kInheritDeadline = -1.0;
  /// Wall-clock budget in ms, measured from when execution starts. Negative
  /// (the default) inherits the executor default; 0 is an already-expired
  /// deadline; positive is the budget.
  double deadline_ms = kInheritDeadline;
  std::string algorithm = "reorganizer";
  std::shared_ptr<const sparse::CsrMatrix> a;
  /// Null selects A as the second operand (C = A^2).
  std::shared_ptr<const sparse::CsrMatrix> b;
};

/// Outcome of one Request. `status` is per-request: a failed or expired
/// request never fails its batch, and over the serve wire it becomes a
/// response line with "ok": false rather than a dropped connection.
struct Response {
  int schema_version = kRequestSchemaVersion;
  std::string id;
  std::string tenant;
  Status status;
  /// Algorithm that actually produced the measurement (the fallback's name
  /// when graceful degradation kicked in).
  std::string algorithm_used;
  bool plan_cache_hit = false;
  bool fallback_used = false;
  /// Host wall-clock spent executing: the plan-cache lookup, planning on
  /// a miss, and simulation. Fingerprinting happens before the timer
  /// starts.
  double wall_ms = 0.0;
  /// Simulated end-to-end seconds on the device, as milliseconds.
  double sim_ms = 0.0;
  double gflops = 0.0;
  int64_t flops = 0;
  int64_t output_nnz = 0;
};

/// Fluent constructor for Request that centralizes validation: every
/// producer (CLI manifest expansion, serve wire decoding, tests) funnels
/// through Build(), so "has an A operand, sane deadline, known schema" is
/// checked in exactly one place.
///
///   SPNET_ASSIGN_OR_RETURN(
///       engine::Request req,
///       engine::RequestBuilder()
///           .Id("as-caida:reorganizer#0")
///           .Tenant("t0")
///           .Priority(1)
///           .DeadlineMs(250.0)
///           .OperandA(matrix)
///           .Build());
class RequestBuilder {
 public:
  RequestBuilder& Id(std::string id) {
    request_.id = std::move(id);
    return *this;
  }
  RequestBuilder& Tenant(std::string tenant) {
    request_.tenant = std::move(tenant);
    return *this;
  }
  RequestBuilder& Priority(int priority) {
    request_.priority = priority;
    return *this;
  }
  RequestBuilder& DeadlineMs(double deadline_ms) {
    request_.deadline_ms = deadline_ms;
    return *this;
  }
  RequestBuilder& Algorithm(std::string algorithm) {
    request_.algorithm = std::move(algorithm);
    return *this;
  }
  RequestBuilder& OperandA(std::shared_ptr<const sparse::CsrMatrix> a) {
    request_.a = std::move(a);
    return *this;
  }
  RequestBuilder& OperandB(std::shared_ptr<const sparse::CsrMatrix> b) {
    request_.b = std::move(b);
    return *this;
  }

  /// Validates and returns the request. InvalidArgument when the id is
  /// empty (responses could not be correlated), the A operand is missing,
  /// or the algorithm name is empty. Any negative deadline normalizes to
  /// the kInheritDeadline sentinel so downstream comparisons are exact.
  [[nodiscard]] Result<Request> Build() const;

 private:
  Request request_;
};

/// Rejects Requests this binary cannot interpret. Centralized so the batch
/// and serve ingest paths agree on what "unknown schema" means.
[[nodiscard]] Status ValidateSchemaVersion(int schema_version);

}  // namespace engine
}  // namespace spnet

#endif  // SPNET_ENGINE_REQUEST_H_
