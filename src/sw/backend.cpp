#include "sw/backend.hpp"

namespace swbpbc::sw {

Backend::~Backend() = default;

void Backend::submit(const ChunkJob& /*job*/) {
  throw util::StatusError(util::Status::internal(
      "Backend::submit on a backend without caps().streams"));
}

ChunkResult Backend::collect() {
  throw util::StatusError(util::Status::internal(
      "Backend::collect on a backend without caps().streams"));
}

}  // namespace swbpbc::sw
