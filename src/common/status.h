#ifndef SPNET_COMMON_STATUS_H_
#define SPNET_COMMON_STATUS_H_

#include <cstdlib>
#include <cstdio>
#include <string>
#include <utility>

namespace spnet {

/// Error categories used across the library. Modeled after the
/// RocksDB/Abseil status idiom: the library is exception-free, and every
/// fallible operation reports through Status or Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
  kIoError,
  kDeadlineExceeded,
  kResourceExhausted,
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

/// A cheap value type describing the outcome of a fallible operation.
///
/// Usage:
///   Status s = DoThing();
///   if (!s.ok()) return s;
///
/// The class is [[nodiscard]]: a call site that drops a returned Status on
/// the floor is a compile error under SPNET_WERROR. Intentional drops must
/// say so with a cast: `(void)DoThing();  // why it is safe to ignore`.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  /// A bounded resource (queue slot, tenant quota) is spent; retrying
  /// later may succeed. This is the admission-control rejection code: it
  /// deliberately differs from kFailedPrecondition (the caller can fix
  /// nothing) and kDeadlineExceeded (time, not capacity, ran out).
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T> couples a Status with a value; the value is only meaningful
/// when ok(). Move-friendly, exception-free analogue of absl::StatusOr.
/// [[nodiscard]] for the same reason as Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from a value: success.
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  /// Implicit from a non-OK status: failure. Constructing from an OK
  /// status without a value is a programming error and aborts.
  Result(Status status) : status_(std::move(status)), value_() {  // NOLINT
    if (status_.ok()) {
      std::fprintf(stderr, "Result constructed from OK status without value\n");
      std::abort();
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Accessors abort when !ok(); callers must test ok() first.
  const T& value() const& {
    CheckOk();
    return value_;
  }
  T& value() & {
    CheckOk();
    return value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(value_);
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!status_.ok()) {
      std::fprintf(stderr, "Result accessed with error status: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  Status status_;
  T value_;
};

/// Propagates a non-OK status from an expression to the caller.
#define SPNET_RETURN_IF_ERROR(expr)             \
  do {                                          \
    ::spnet::Status _spnet_status = (expr);     \
    if (!_spnet_status.ok()) return _spnet_status; \
  } while (false)

/// Asserts that an operation which is infallible by construction really
/// succeeded; aborts with the status text otherwise. This is the loud
/// alternative to discarding a [[nodiscard]] Status: use it where the
/// enclosing function cannot propagate (returns a value, not Status) and
/// every failure path of `expr` is provably unreachable — e.g. a
/// ParallelFor whose chunk function always returns Ok. Never use it to
/// silence a genuinely fallible call.
#define SPNET_CHECK_OK(expr)                                          \
  do {                                                                \
    const ::spnet::Status _spnet_check_status = (expr);               \
    if (!_spnet_check_status.ok()) {                                  \
      std::fprintf(stderr, "SPNET_CHECK_OK failed at %s:%d: %s\n",    \
                   __FILE__, __LINE__,                                \
                   _spnet_check_status.ToString().c_str());           \
      std::abort();                                                   \
    }                                                                 \
  } while (false)

#define SPNET_INTERNAL_CONCAT_IMPL(a, b) a##b
#define SPNET_INTERNAL_CONCAT(a, b) SPNET_INTERNAL_CONCAT_IMPL(a, b)

#define SPNET_INTERNAL_ASSIGN_OR_RETURN(tmp, lhs, expr) \
  auto tmp = (expr);                                    \
  if (!tmp.ok()) return tmp.status();                   \
  lhs = std::move(tmp).value()

/// Evaluates a Result<T> expression; on error returns its status, otherwise
/// moves the value into `lhs` (which may be a declaration).
#define SPNET_ASSIGN_OR_RETURN(lhs, expr)                                     \
  SPNET_INTERNAL_ASSIGN_OR_RETURN(                                            \
      SPNET_INTERNAL_CONCAT(_spnet_result_, __LINE__), lhs, expr)

}  // namespace spnet

#endif  // SPNET_COMMON_STATUS_H_
