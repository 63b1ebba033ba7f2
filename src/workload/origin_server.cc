#include "src/workload/origin_server.h"

#include <algorithm>

namespace sns {

OriginServerProcess::OriginServerProcess(const OriginConfig& config,
                                         const ContentUniverse* universe)
    : Process("origin"), config_(config), universe_(universe), rng_(config.seed) {}

void OriginServerProcess::OnMessage(const Message& msg) {
  if (msg.type != kMsgFetchRequest) {
    return;
  }
  auto fetch = std::static_pointer_cast<const FetchRequestPayload>(msg.payload);
  double latency_s = rng_.LogNormal(config_.latency_mu, config_.latency_sigma);
  SimDuration delay = std::clamp(Seconds(latency_s), config_.min_latency, config_.max_latency);
  After(delay, [this, fetch] {
    ContentPtr content = universe_->GetContent(fetch->url);
    ++fetches_;
    bytes_ += content->size();
    auto reply = std::make_shared<FetchResponsePayload>();
    reply->op_id = fetch->op_id;
    reply->status = Status::Ok();
    reply->content = content;
    Message out;
    out.dst = fetch->reply_to;
    out.type = kMsgFetchResponse;
    out.transport = Transport::kReliable;
    out.size_bytes = 96 + content->size();
    out.payload = reply;
    Send(std::move(out));
  });
}

}  // namespace sns
