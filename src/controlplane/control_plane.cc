#include "controlplane/control_plane.h"

#include <algorithm>

namespace sdw::controlplane {

int WarmPool::Acquire(int n) {
  const int granted = std::min(n, available_);
  available_ -= granted;
  return granted;
}

void WarmPool::Refill(sim::Engine* engine) {
  if (!ec2_available_ || refill_scheduled_ || available_ >= capacity_) return;
  refill_scheduled_ = true;
  engine->Schedule(refill_seconds_, [this, engine] {
    refill_scheduled_ = false;
    if (ec2_available_ && available_ < capacity_) {
      ++available_;
      Refill(engine);
    }
  });
}

void ControlPlane::Emit(const std::string& kind, double seconds,
                        const std::string& detail) {
  if (event_log_ == nullptr) return;
  event_log_->Append(obs::HealthEvent{
      .source = "control_plane", .kind = kind, .value = seconds,
      .detail = detail});
}

double ControlPlane::ParallelNodes(int nodes, double per_node) {
  // All nodes execute the step concurrently; the makespan is one
  // node's service time. Run it through the engine so concurrent
  // workflows interleave correctly.
  const double start = engine_->Now();
  double end = start;
  sim::JoinBarrier barrier(nodes, [&] { end = engine_->Now(); });
  for (int n = 0; n < nodes; ++n) {
    engine_->Schedule(per_node, [&barrier] { barrier.Arrive(); });
  }
  engine_->Run();
  return end - start;
}

OpResult ControlPlane::ProvisionCluster(int nodes) {
  OpResult result;
  result.op = "deploy";
  result.click_seconds = timings_.clicks_create;

  int warm = 0;
  if (warm_pool_ != nullptr) {
    warm = warm_pool_->Acquire(nodes);
    warm_pool_->Refill(engine_);
  }
  const int cold = nodes - warm;
  // Warm attaches and cold provisions proceed in parallel; the cold
  // path dominates when the pool runs dry.
  double makespan = 0;
  if (warm > 0) {
    makespan = std::max(makespan,
                        ParallelNodes(warm, timings_.provision_warm_node));
  }
  if (cold > 0) {
    makespan = std::max(makespan,
                        ParallelNodes(cold, timings_.provision_cold_node));
  }
  result.seconds = result.click_seconds + makespan + timings_.finalize_endpoint;
  Emit("deploy", result.seconds, std::to_string(nodes) + " nodes (" +
                                     std::to_string(warm) + " warm)");
  return result;
}

OpResult ControlPlane::Connect() {
  OpResult result;
  result.op = "connect";
  result.click_seconds = timings_.clicks_simple_op;
  result.seconds = result.click_seconds + timings_.connect;
  return result;
}

OpResult ControlPlane::Backup(int nodes, uint64_t changed_bytes_per_node) {
  OpResult result;
  result.op = "backup";
  result.click_seconds = timings_.clicks_simple_op;
  // "The time required to backup an entire cluster is proportional to
  // the data changed on a single node" (§3.2) — node-parallel upload.
  const double per_node =
      timings_.backup_node_fixed +
      cost_model_.S3Seconds(changed_bytes_per_node, 1);
  result.seconds = result.click_seconds + ParallelNodes(nodes, per_node) +
                   timings_.backup_commit;
  return result;
}

OpResult ControlPlane::Restore(int nodes) {
  OpResult result;
  result.op = "restore";
  result.click_seconds = timings_.clicks_simple_op;
  // Streaming restore: SQL opens after metadata restoration; data
  // blocks page-fault in afterwards, so cluster size barely matters.
  result.seconds = result.click_seconds + timings_.restore_metadata +
                   ParallelNodes(nodes, timings_.finalize_endpoint);
  return result;
}

OpResult ControlPlane::Resize(int from_nodes, int to_nodes,
                              uint64_t total_bytes) {
  OpResult result;
  result.op = "resize";
  result.click_seconds = timings_.clicks_simple_op;
  // Provision the target (warm-pool eligible), then node-to-node copy
  // bounded by the smaller side's aggregate bandwidth (§3.1).
  OpResult provision = ProvisionCluster(to_nodes);
  const double copy_seconds = cost_model_.NetworkSeconds(
      total_bytes, std::min(from_nodes, to_nodes));
  result.seconds = result.click_seconds + (provision.seconds -
                   provision.click_seconds) + copy_seconds +
                   timings_.finalize_endpoint;
  return result;
}

OpResult ControlPlane::Patch(int nodes, double defect_probability, Rng* rng) {
  OpResult result;
  result.op = "patch";
  result.click_seconds = 0;  // automatic, in the customer window
  double makespan = ParallelNodes(nodes, timings_.patch_node);
  makespan += timings_.patch_soak;
  if (rng->Bernoulli(defect_probability)) {
    // Telemetry shows elevated errors: automatic reversal (§5).
    makespan += ParallelNodes(nodes, timings_.patch_rollback);
    result.rolled_back = true;
  }
  result.seconds = makespan;
  Emit(result.rolled_back ? "patch_rollback" : "patch", result.seconds,
       std::to_string(nodes) + " nodes");
  return result;
}

OpResult ControlPlane::ReplaceNode() {
  OpResult result;
  result.op = "replace-node";
  result.click_seconds = 0;
  double provision = timings_.provision_cold_node;
  if (warm_pool_ != nullptr && warm_pool_->Acquire(1) == 1) {
    provision = timings_.provision_warm_node;
    warm_pool_->Refill(engine_);
  }
  result.seconds = timings_.failure_detect + provision;
  Emit("replace", result.seconds,
       provision == timings_.provision_warm_node ? "warm-pool node"
                                                 : "cold provision");
  return result;
}

bool HostManager::OnProcessCrash() {
  ++recent_crashes_;
  if (recent_crashes_ > config_.max_restarts) {
    ++escalations_;
    recent_crashes_ = 0;
    return false;
  }
  ++restarts_;
  return true;
}

}  // namespace sdw::controlplane
