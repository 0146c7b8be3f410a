#include "cluster/cluster.h"

namespace hamr::cluster {

Node::Node(NodeId id, const ClusterConfig& config, net::Endpoint* endpoint)
    : id_(id),
      disk_(config.disk, &metrics_),
      store_(&disk_),
      pool_(config.threads_per_node, "node" + std::to_string(id)),
      router_(endpoint, &metrics_),
      // RPC handlers run inline on the delivery thread: every registered
      // method (kv, dfs blocks, shuffle fetch) is local-only work, and inline
      // execution makes handler starvation/deadlock behind a saturated task
      // pool impossible.
      rpc_(&router_, nullptr) {}

Cluster::Cluster(ClusterConfig config) : config_(config) {
  std::vector<Metrics*> metrics;
  nodes_.reserve(config_.num_nodes);
  // Two-phase bring-up: the fabric needs to exist before nodes can wire
  // routers onto endpoints, and metrics pointers need the nodes - so the
  // fabric is created without metrics sinks first, then nodes, then start.
  fabric_ = std::make_unique<net::InProcTransport>(config_.num_nodes, config_.net);
  for (uint32_t i = 0; i < config_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(i, config_, fabric_->endpoint(i)));
    metrics.push_back(&nodes_.back()->metrics());
  }
  fabric_->set_metrics(std::move(metrics));
  fabric_->start();
}

Cluster::~Cluster() { shutdown(); }

void Cluster::shutdown() {
  if (down_) return;
  down_ = true;
  // Order matters: stop accepting work on node pools before tearing down the
  // fabric so in-flight handlers can finish sends.
  for (auto& node : nodes_) node->pool().wait_idle();
  fabric_->stop();
  for (auto& node : nodes_) node->pool().shutdown();
}

void Cluster::aggregate_metrics(Metrics* out) const {
  for (const auto& node : nodes_) out->merge_from(node->metrics());
}

uint64_t Cluster::total_counter(const std::string& name) const {
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->metrics().value(name);
  return total;
}

void Cluster::set_fault_injector(fault::FaultInjector* injector) {
  fabric_->set_fault_injector(injector);
  for (auto& node : nodes_) {
    node->disk().set_fault_injector(injector, node->id());
  }
}

}  // namespace hamr::cluster
