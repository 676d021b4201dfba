#include "util/cancel.hpp"

namespace swbpbc::util {

Status StopCondition::status(const std::string& where) const {
  switch (poll()) {
    case ErrorCode::kCancelled:
      return Status::cancelled("cancellation requested during " + where);
    case ErrorCode::kDeadlineExceeded:
      return Status::deadline_exceeded("deadline expired during " + where);
    default:
      return Status::internal("StopCondition::status without a trigger (" +
                              where + ")");
  }
}

}  // namespace swbpbc::util
