#include "ir/fused.h"

#include <stdexcept>

namespace hamr::ir {

void FusedEmit::emit(uint32_t port, std::string_view key,
                     std::string_view value) {
  if (port != 0) {
    throw std::logic_error(
        "ir: fused producer emitted on port " + std::to_string(port) +
        "; fusion requires a single-out producer");
  }
  const engine::KvPair record{key, value};
  consumer_.process(record, outer_);
}

void FusedEmit::emit_to_node(uint32_t port, engine::NodeId node,
                             std::string_view key, std::string_view value) {
  (void)port;
  (void)node;
  (void)key;
  (void)value;
  throw std::logic_error(
      "ir: fused producer called emit_to_node; fusion only crosses local "
      "key-routed edges");
}

void FusedEmit::emit_broadcast(uint32_t port, std::string_view key,
                               std::string_view value) {
  (void)port;
  (void)key;
  (void)value;
  throw std::logic_error(
      "ir: fused producer called emit_broadcast; fusion only crosses local "
      "key-routed edges");
}

// Lifecycle ordering, shared by every wrapper: the consumer starts first
// (with the real context - its emissions leave the fused flowlet), so it is
// ready before the producer's start() can emit into it; at finish the
// producer flushes first (its final records still flow through the
// consumer), then the consumer flushes.

void FusedLoader::start(engine::Context& ctx) {
  consumer_->start(ctx);
  FusedEmit fused(ctx, *consumer_);
  producer_->start(fused);
}

bool FusedLoader::load_chunk(const engine::InputSplit& split, uint64_t* cursor,
                             engine::Context& ctx) {
  FusedEmit fused(ctx, *consumer_);
  return producer_->load_chunk(split, cursor, fused);
}

void FusedLoader::finish(engine::Context& ctx) {
  FusedEmit fused(ctx, *consumer_);
  producer_->finish(fused);
  consumer_->finish(ctx);
}

void FusedMap::start(engine::Context& ctx) {
  consumer_->start(ctx);
  FusedEmit fused(ctx, *consumer_);
  producer_->start(fused);
}

void FusedMap::process(const engine::KvPair& record, engine::Context& ctx) {
  FusedEmit fused(ctx, *consumer_);
  producer_->process(record, fused);
}

void FusedMap::finish(engine::Context& ctx) {
  FusedEmit fused(ctx, *consumer_);
  producer_->finish(fused);
  consumer_->finish(ctx);
}

void FusedReduce::start(engine::Context& ctx) {
  consumer_->start(ctx);
  FusedEmit fused(ctx, *consumer_);
  producer_->start(fused);
}

void FusedReduce::reduce(std::string_view key,
                         const std::vector<std::string_view>& values,
                         engine::Context& ctx) {
  FusedEmit fused(ctx, *consumer_);
  producer_->reduce(key, values, fused);
}

void FusedReduce::finish(engine::Context& ctx) {
  FusedEmit fused(ctx, *consumer_);
  producer_->finish(fused);
  consumer_->finish(ctx);
}

void FusedPartialReduce::start(engine::Context& ctx) {
  consumer_->start(ctx);
  FusedEmit fused(ctx, *consumer_);
  producer_->start(fused);
}

void FusedPartialReduce::emit_result(std::string_view key,
                                     std::string_view acc,
                                     engine::Context& ctx) {
  FusedEmit fused(ctx, *consumer_);
  producer_->emit_result(key, acc, fused);
}

void FusedPartialReduce::finish(engine::Context& ctx) {
  FusedEmit fused(ctx, *consumer_);
  producer_->finish(fused);
  consumer_->finish(ctx);
}

engine::FlowletFactory fuse_factories(engine::FlowletKind producer_kind,
                                      engine::FlowletFactory producer,
                                      engine::FlowletFactory consumer) {
  return [producer_kind, producer = std::move(producer),
          consumer = std::move(consumer)]() -> std::unique_ptr<engine::Flowlet> {
    auto consumer_map = std::unique_ptr<engine::MapFlowlet>(
        static_cast<engine::MapFlowlet*>(consumer().release()));
    switch (producer_kind) {
      case engine::FlowletKind::kLoader:
        return std::make_unique<FusedLoader>(
            std::unique_ptr<engine::LoaderFlowlet>(
                static_cast<engine::LoaderFlowlet*>(producer().release())),
            std::move(consumer_map));
      case engine::FlowletKind::kMap:
        return std::make_unique<FusedMap>(
            std::unique_ptr<engine::MapFlowlet>(
                static_cast<engine::MapFlowlet*>(producer().release())),
            std::move(consumer_map));
      case engine::FlowletKind::kReduce:
        return std::make_unique<FusedReduce>(
            std::unique_ptr<engine::ReduceFlowlet>(
                static_cast<engine::ReduceFlowlet*>(producer().release())),
            std::move(consumer_map));
      case engine::FlowletKind::kPartialReduce:
        return std::make_unique<FusedPartialReduce>(
            std::unique_ptr<engine::PartialReduceFlowlet>(
                static_cast<engine::PartialReduceFlowlet*>(
                    producer().release())),
            std::move(consumer_map));
    }
    throw std::logic_error("ir: fuse_factories on unknown flowlet kind");
  };
}

}  // namespace hamr::ir
