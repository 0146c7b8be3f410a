// Demultiplexes an Endpoint's single message stream by message type.
//
// Each node wires exactly one Router onto its Endpoint; the engine runtime,
// the RPC layer, and anything else sharing the fabric register their message
// types here. Registration may happen after the transport has started (the
// engine attaches to an already-running cluster), so the table is guarded by
// a shared mutex - reads on the hot dispatch path take the shared side.
//
// A message whose type has no handler is dropped and counted in the node's
// net.unroutable counter (late frames reaching a lane whose engine has
// already unregistered, for example).
#pragma once

#include <cstdint>
#include <map>
#include <shared_mutex>
#include <stdexcept>

#include "common/metrics.h"
#include "net/message.h"

namespace hamr::net {

class Router {
 public:
  // `metrics` (optional) is the node registry that holds net.unroutable.
  explicit Router(Endpoint* ep, Metrics* metrics = nullptr)
      : ep_(ep),
        unroutable_(metrics != nullptr ? metrics->counter("net.unroutable")
                                       : nullptr) {
    ep_->set_handler([this](Message&& msg) { dispatch(std::move(msg)); });
  }

  // Registers `handler` for messages of `type`. Throws on collision.
  void register_type(uint32_t type, MessageHandler handler) {
    std::unique_lock lock(mu_);
    if (!handlers_.emplace(type, std::move(handler)).second) {
      throw std::logic_error("duplicate message type registration");
    }
  }

  // Removes the handler for `type`. Blocks until no dispatch is invoking any
  // handler, so after this returns the handler's captures may be destroyed.
  // A handler whose teardown path calls this must first unblock itself (see
  // NodeRuntime::~NodeRuntime), or the two will deadlock.
  void unregister_type(uint32_t type) {
    std::unique_lock lock(mu_);
    handlers_.erase(type);
  }

  Endpoint* endpoint() { return ep_; }

 private:
  void dispatch(Message&& msg) {
    // The shared lock is held across the handler call so unregister_type can
    // act as a barrier against in-flight dispatches. Handlers must not
    // (un)register types on their own router; sends from inside a handler are
    // fine (delivery happens on the destination's delivery thread).
    std::shared_lock lock(mu_);
    auto it = handlers_.find(msg.type);
    if (it == handlers_.end()) {
      if (unroutable_ != nullptr) unroutable_->inc();
      return;
    }
    (it->second)(std::move(msg));
  }

  Endpoint* ep_;
  Counter* unroutable_;
  std::shared_mutex mu_;
  std::map<uint32_t, MessageHandler> handlers_;
};

}  // namespace hamr::net
