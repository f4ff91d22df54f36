#include "support/trace_shrink.h"

namespace memcim::serving {

std::optional<std::size_t> minimal_failing_trace_prefix(
    const std::vector<Request>& trace,
    const std::function<bool(const std::vector<Request>&)>& holds) {
  for (std::size_t length = 1; length <= trace.size(); ++length) {
    const std::vector<Request> prefix(trace.begin(),
                                      trace.begin() +
                                          static_cast<std::ptrdiff_t>(length));
    if (!holds(prefix)) return length;
  }
  return std::nullopt;
}

}  // namespace memcim::serving
