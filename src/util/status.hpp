// Error taxonomy shared by the user-facing library boundaries.
//
// The screening stack historically trusted its preconditions (uniform
// batch lengths, valid bases) and either asserted or ran into UB on bad
// input. `Status` names the failure classes a production screening
// pipeline has to report, and `Expected<T>` carries either a value or a
// Status across a boundary without exceptions. Boundaries keep a throwing
// convenience wrapper (`screen`, `read_fasta`, ...) next to the
// `try_`-prefixed Status-returning form; the wrapper throws StatusError,
// which derives from std::invalid_argument so pre-taxonomy callers and
// tests that catch the old exception type keep working.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace swbpbc::util {

enum class ErrorCode {
  kOk = 0,
  kInvalidInput,       // malformed batch/config handed to a boundary
  kParseError,         // malformed external data (FASTA, CLI, ...)
  kLaneCorrupt,        // a lane's score disagrees with the scalar reference
  kKernelTimeout,      // a simulated block ran past the watchdog deadline
  kResourceExhausted,  // an allocation or capacity limit was hit
  kRetryExhausted,     // recovery retries used up without success
  kCancelled,          // a cooperative cancellation request was observed
  kDeadlineExceeded,   // a wall-clock deadline expired mid-run
  kCheckpointCorrupt,  // checkpoint stream unreadable/truncated/bad checksum
  kCheckpointMismatch, // checkpoint version or batch fingerprint disagrees
  kDbCorrupt,          // database store unreadable / failed a checksum
  kDbMismatch,         // database version/lane/endianness/content disagrees
  kCallbackError,      // a user-supplied observer/callback threw
  kOverloaded,         // serving admission queue full / daemon draining
  kQuotaExceeded,      // a tenant exceeded its admission quota
  kInternal,           // invariant violation inside the library
};

/// Stable upper-case name of a code ("INVALID_INPUT", ...).
const char* error_code_name(ErrorCode code);

class [[nodiscard]] Status {
 public:
  Status() = default;  // ok
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status invalid_input(std::string m) {
    return {ErrorCode::kInvalidInput, std::move(m)};
  }
  static Status parse_error(std::string m) {
    return {ErrorCode::kParseError, std::move(m)};
  }
  static Status lane_corrupt(std::string m) {
    return {ErrorCode::kLaneCorrupt, std::move(m)};
  }
  static Status kernel_timeout(std::string m) {
    return {ErrorCode::kKernelTimeout, std::move(m)};
  }
  static Status resource_exhausted(std::string m) {
    return {ErrorCode::kResourceExhausted, std::move(m)};
  }
  static Status retry_exhausted(std::string m) {
    return {ErrorCode::kRetryExhausted, std::move(m)};
  }
  static Status cancelled(std::string m) {
    return {ErrorCode::kCancelled, std::move(m)};
  }
  static Status deadline_exceeded(std::string m) {
    return {ErrorCode::kDeadlineExceeded, std::move(m)};
  }
  static Status checkpoint_corrupt(std::string m) {
    return {ErrorCode::kCheckpointCorrupt, std::move(m)};
  }
  static Status checkpoint_mismatch(std::string m) {
    return {ErrorCode::kCheckpointMismatch, std::move(m)};
  }
  static Status db_corrupt(std::string m) {
    return {ErrorCode::kDbCorrupt, std::move(m)};
  }
  static Status db_mismatch(std::string m) {
    return {ErrorCode::kDbMismatch, std::move(m)};
  }
  static Status callback_error(std::string m) {
    return {ErrorCode::kCallbackError, std::move(m)};
  }
  static Status overloaded(std::string m) {
    return {ErrorCode::kOverloaded, std::move(m)};
  }
  static Status quota_exceeded(std::string m) {
    return {ErrorCode::kQuotaExceeded, std::move(m)};
  }
  static Status internal(std::string m) {
    return {ErrorCode::kInternal, std::move(m)};
  }

  [[nodiscard]] bool ok() const { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// "INVALID_INPUT: <message>" (or "OK").
  [[nodiscard]] std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// Thrown by the convenience wrappers around `try_` boundaries. Derives
/// from std::invalid_argument so callers of the pre-Status API (which
/// threw that type directly) need no changes.
class StatusError : public std::invalid_argument {
 public:
  // Out of line (status.cpp) so that translation units built for another
  // ISA (sw/kernel_avx2.cpp, sw/kernel_avx512.cpp) throw through the
  // baseline copy instead of emitting one of their own.
  explicit StatusError(Status status);
  ~StatusError() override;

  [[nodiscard]] const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Either a T or a non-ok Status. `value()` throws StatusError on error so
/// call sites that don't care can stay exception-based.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Expected(Status status)                          // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    if (status_.ok())
      status_ = Status::internal("Expected constructed from ok Status");
  }

  [[nodiscard]] bool has_value() const { return value_.has_value(); }
  explicit operator bool() const { return has_value(); }

  /// Ok when has_value(); the error otherwise.
  [[nodiscard]] const Status& status() const { return status_; }

  T& value() & {
    require();
    return *value_;
  }
  const T& value() const& {
    require();
    return *value_;
  }
  T&& value() && {
    require();
    return std::move(*value_);
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  void require() const {
    if (!value_.has_value()) throw StatusError(status_);
  }

  std::optional<T> value_;
  Status status_;
};

}  // namespace swbpbc::util
