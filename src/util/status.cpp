#include "util/status.hpp"

namespace swbpbc::util {

StatusError::StatusError(Status status)
    : std::invalid_argument(status.to_string()), status_(std::move(status)) {}

StatusError::~StatusError() = default;

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kInvalidInput:
      return "INVALID_INPUT";
    case ErrorCode::kParseError:
      return "PARSE_ERROR";
    case ErrorCode::kLaneCorrupt:
      return "LANE_CORRUPT";
    case ErrorCode::kKernelTimeout:
      return "KERNEL_TIMEOUT";
    case ErrorCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case ErrorCode::kRetryExhausted:
      return "RETRY_EXHAUSTED";
    case ErrorCode::kCancelled:
      return "CANCELLED";
    case ErrorCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case ErrorCode::kCheckpointCorrupt:
      return "CHECKPOINT_CORRUPT";
    case ErrorCode::kCheckpointMismatch:
      return "CHECKPOINT_MISMATCH";
    case ErrorCode::kDbCorrupt:
      return "DB_CORRUPT";
    case ErrorCode::kDbMismatch:
      return "DB_MISMATCH";
    case ErrorCode::kCallbackError:
      return "CALLBACK_ERROR";
    case ErrorCode::kOverloaded:
      return "OVERLOADED";
    case ErrorCode::kQuotaExceeded:
      return "QUOTA_EXCEEDED";
    case ErrorCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  if (ok()) return "OK";
  std::string out = error_code_name(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace swbpbc::util
