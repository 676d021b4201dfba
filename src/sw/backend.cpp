#include "sw/backend.hpp"

namespace swbpbc::sw {

Backend::~Backend() = default;

}  // namespace swbpbc::sw
