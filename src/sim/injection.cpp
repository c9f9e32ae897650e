#include "sim/injection.hpp"

#include <stdexcept>
#include <string>

namespace sim {

InjectionProcess::InjectionProcess(Network& net,
                                   patterns::TrafficSource& source,
                                   InjectionOptions opt)
    : net_(&net), src_(&source), opt_(std::move(opt)) {
  if (!opt_.adaptive && !opt_.routeSet) {
    throw std::invalid_argument(
        "InjectionProcess: need a route-set resolver unless adaptive");
  }
  net_->setSink(this);
}

void InjectionProcess::inject(const patterns::SourceMessage& m) {
  const xgft::NodeIndex src = opt_.hostOf ? opt_.hostOf(m.src) : m.src;
  const xgft::NodeIndex dst = opt_.hostOf ? opt_.hostOf(m.dst) : m.dst;
  MsgId id = 0;
  if (opt_.adaptive) {
    id = net_->addMessageAdaptive(src, dst, m.bytes);
  } else {
    const RouteSetId set = opt_.routeSet(src, dst);
    if (set == RouteStore::kUnroutable) {
      // The degraded forwarding table has no path for this pair: refuse the
      // message before it exists.  No MsgId is allocated, so the dense
      // token/latency vectors stay aligned, and closed-loop callers (which
      // would deadlock awaiting the delivery) must opt in via onDrop.
      if (!opt_.onDrop) {
        throw std::runtime_error(
            "InjectionProcess: pair " + std::to_string(src) + " -> " +
            std::to_string(dst) +
            " is unroutable and no onDrop handler is installed");
      }
      net_->noteMessageDropped();
      opt_.onDrop(m.token, m.bytes, src, dst);
      return;
    }
    id = net_->addMessageSet(src, dst, m.bytes, set, opt_.policy,
                             opt_.spraySeed);
  }
  if (id != tokenOf_.size()) {
    // Delivery lookup is a dense vector; a foreign addMessage* call in
    // between would silently misattribute completions.
    throw std::logic_error("InjectionProcess: non-dense message ids");
  }
  tokenOf_.push_back(m.token);
  injectNs_.push_back(net_->now());
  bytesOf_.push_back(m.bytes);
  net_->release(id, net_->now());
}

void InjectionProcess::pump() {
  if (exhausted_ || pendingFuture_) return;
  patterns::SourceMessage m;
  for (;;) {
    switch (src_->pull(net_->now(), m)) {
      case patterns::Pull::kMessage:
        if (m.time > net_->now()) {
          // Ask again only when its injection time is reached.
          future_ = m;
          pendingFuture_ = true;
          net_->scheduleCallback(m.time, [this] {
            pendingFuture_ = false;
            inject(future_);
            pump();
          });
          return;
        }
        inject(m);
        break;
      case patterns::Pull::kWake: {
        const std::uint64_t cookie = m.token;
        net_->scheduleCallback(m.time, [this, cookie] {
          src_->onWake(cookie, net_->now());
          pump();
        });
        break;
      }
      case patterns::Pull::kBlocked:
        return;
      case patterns::Pull::kExhausted:
        exhausted_ = true;
        return;
    }
  }
}

void InjectionProcess::onMessageDelivered(MsgId msg, TimeNs time) {
  const std::uint64_t token = tokenOf_[msg];
  if (onDelivery) onDelivery(token, bytesOf_[msg], injectNs_[msg], time);
  src_->onDelivered(token, time);
  pump();
}

void InjectionProcess::run(TimeNs until) {
  pump();
  net_->run(until);
}

}  // namespace sim
