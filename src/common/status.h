// Status / StatusOr error model in the RocksDB style: library code never
// throws; fallible operations return a Status (or StatusOr<T>) that callers
// must inspect.

#ifndef MSQ_COMMON_STATUS_H_
#define MSQ_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace msq {

/// Outcome of a fallible operation. Cheap to copy when OK (no allocation).
/// [[nodiscard]]: dropping a returned Status on the floor is a warning
/// (an error under MSQ_WERROR), so an I/O failure cannot vanish silently.
class [[nodiscard]] Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kIOError,
    kCorruption,
    kNotSupported,
    kResourceExhausted,
    kInternal,
    kDeadlineExceeded,
    kUnavailable,
  };

  /// Default-constructed status is OK.
  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }
  /// A per-query deadline expired. Unlike the other codes this one can
  /// accompany usable (partial) data: the multiple-query engine returns it
  /// together with the buffered partial answers accumulated so far.
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }
  /// A server (or backend) is down. Unlike a transient kIOError — which a
  /// retry against the same server may cure — kUnavailable is deterministic
  /// until the server is restored, so retry budgets skip it and failover
  /// layers route around it instead.
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsResourceExhausted() const {
    return code_ == Code::kResourceExhausted;
  }
  bool IsInternal() const { return code_ == Code::kInternal; }
  bool IsDeadlineExceeded() const { return code_ == Code::kDeadlineExceeded; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  /// Human-readable "<CODE>: <message>" string, "OK" when ok().
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Either a value of type T or a non-OK Status explaining its absence.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, like
  // absl::StatusOr, so `return value;` and `return status;` both work.
  StatusOr(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  StatusOr(T value) : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace msq

/// Propagate a non-OK status to the caller, RocksDB-macro style.
#define MSQ_RETURN_IF_ERROR(expr)          \
  do {                                     \
    ::msq::Status _st = (expr);            \
    if (!_st.ok()) return _st;             \
  } while (0)

#endif  // MSQ_COMMON_STATUS_H_
