#include "baseline/centralized.h"

#include <variant>

namespace sensord {

void CentralizedLeafNode::OnReading(const Point& value) {
  if (parent() == kNoNode) return;
  Send(parent(), RawReadingPayload{value});
}

CentralizedRelayNode::CentralizedRelayNode(size_t window_capacity,
                                           size_t dimensions)
    : window_capacity_(window_capacity), dimensions_(dimensions) {}

SlidingWindow& CentralizedRelayNode::EnsureWindow() const {
  if (!window_.has_value()) window_.emplace(window_capacity_, dimensions_);
  return *window_;
}

void CentralizedRelayNode::HandleMessage(const Message& msg) {
  const auto* reading = std::get_if<RawReadingPayload>(&msg.payload);
  if (reading == nullptr) return;
  if (parent() == kNoNode) {
    (void)EnsureWindow().Add(reading->value);
    return;
  }
  Send(parent(), *reading);
}

}  // namespace sensord
