#ifndef SDW_CONTROLPLANE_CONTROL_PLANE_H_
#define SDW_CONTROLPLANE_CONTROL_PLANE_H_

#include <functional>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "common/random.h"
#include "common/result.h"
#include "obs/query_log.h"
#include "sim/engine.h"

namespace sdw::controlplane {

/// Service times for the workflow steps (simulated seconds). Defaults
/// approximate the paper's reported behaviour: ~15 min cold cluster
/// creation at launch, ~3 min with preconfigured warm nodes, minutes-
/// scale backup/restore/resize initiation regardless of cluster size
/// (Figure 2).
struct WorkflowTimings {
  /// Console interaction ("time spent on clicks", Figure 2).
  double clicks_create = 40;
  double clicks_simple_op = 15;

  /// Cold EC2 instance provisioning + engine install, per node.
  double provision_cold_node = 540;
  /// Attaching a preconfigured warm-pool node (§3.1: 15 min -> 3 min).
  double provision_warm_node = 90;
  /// Cluster-level finalization: DNS, endpoint, security groups.
  double finalize_endpoint = 75;

  /// Driver handshake + auth on first connect.
  double connect = 45;

  /// Per-node fixed cost of snapshot initiation.
  double backup_node_fixed = 30;
  /// Manifest/catalog commit at the end of a backup.
  double backup_commit = 20;

  /// Restore: metadata + catalog restoration before SQL opens (§2.3).
  double restore_metadata = 100;

  /// Per-node patch apply within the maintenance window.
  double patch_node = 120;
  /// Telemetry soak time before a patch is judged good (§5).
  double patch_soak = 300;
  /// Reverting a bad patch.
  double patch_rollback = 180;

  /// Detecting a dead node and swapping in a replacement.
  double failure_detect = 60;
};

/// A pool of preconfigured standby nodes per data center (§3.1, §5:
/// "we support the ability to preconfigure nodes in each data center,
/// allowing us to continue to provision ... if there is an Amazon EC2
/// provisioning interruption").
class WarmPool {
 public:
  WarmPool(int capacity, double refill_seconds)
      : capacity_(capacity), available_(capacity),
        refill_seconds_(refill_seconds) {}

  /// Takes up to n nodes; returns how many were granted.
  int Acquire(int n);

  /// Schedules background refill on the engine.
  void Refill(sim::Engine* engine);

  int available() const { return available_; }
  int capacity() const { return capacity_; }

  /// Fault injection: EC2 interruption stops refills; the pool keeps
  /// serving until drained (degrade, don't fail).
  void set_ec2_available(bool available) { ec2_available_ = available; }

 private:
  int capacity_;
  int available_;
  double refill_seconds_;
  bool ec2_available_ = true;
  bool refill_scheduled_ = false;
};

/// Result of one admin workflow.
struct OpResult {
  std::string op;
  /// Total simulated duration, including console clicks.
  double seconds = 0;
  /// The interactive portion (Figure 2 splits "time spent on clicks").
  double click_seconds = 0;
  bool rolled_back = false;
};

/// The off-instance control-plane fleet: executes admin workflows as
/// discrete-event simulations, data-parallel within a cluster (§2.2,
/// §3.2: "operations ... as declarative as queries, with the database
/// determining parallelization"). Every workflow returns its simulated
/// duration so the Figure-2 bench can sweep cluster sizes.
class ControlPlane {
 public:
  ControlPlane(sim::Engine* engine, WorkflowTimings timings = {},
               cluster::CostModel cost_model = {})
      : engine_(engine), timings_(timings), cost_model_(cost_model) {}

  /// Attaches a warm pool (optional).
  void set_warm_pool(WarmPool* pool) { warm_pool_ = pool; }

  /// Attaches an event log (optional): every workflow records an
  /// stl_health_events row with its simulated duration.
  void set_event_log(obs::History<obs::HealthEvent>* log) { event_log_ = log; }

  /// Creates an n-node cluster: provisioning is node-parallel; warm
  /// nodes attach ~6x faster than cold EC2 provisioning.
  OpResult ProvisionCluster(int nodes);

  /// First connection to a fresh endpoint.
  OpResult Connect();

  /// Snapshot: node-parallel upload of each node's changed bytes.
  OpResult Backup(int nodes, uint64_t changed_bytes_per_node);

  /// Streaming restore: SQL opens after metadata restoration; block
  /// download continues in background (duration reported = time to
  /// first query, matching what Figure 2 charts).
  OpResult Restore(int nodes);

  /// Resize via parallel node-to-node copy; source stays readable.
  OpResult Resize(int from_nodes, int to_nodes, uint64_t total_bytes);

  /// Rolling patch of a cluster within its maintenance window; the
  /// telemetry check rolls back automatically when the error rate
  /// rises (§5). `defect_probability` is the chance this patch is bad.
  OpResult Patch(int nodes, double defect_probability, Rng* rng);

  /// Failure detection + node replacement (host manager escalation).
  OpResult ReplaceNode();

 private:
  /// Runs `per_node` seconds of work on `nodes` nodes in parallel and
  /// returns the simulated makespan.
  double ParallelNodes(int nodes, double per_node);

  /// Records a workflow event when an event log is attached.
  void Emit(const std::string& kind, double seconds,
            const std::string& detail);

  sim::Engine* engine_;
  WorkflowTimings timings_;
  cluster::CostModel cost_model_;
  WarmPool* warm_pool_ = nullptr;
  obs::History<obs::HealthEvent>* event_log_ = nullptr;
};

/// Per-node host manager: monitors the database process and restarts it
/// on failure; escalates to the control plane after repeated crashes
/// (§2.2). Used by the fleet simulator's failure model.
class HostManager {
 public:
  struct Config {
    /// Crashes within this window escalate instead of restart.
    int max_restarts = 3;
    double restart_seconds = 30;
  };

  HostManager() : config_() {}
  explicit HostManager(Config config) : config_(config) {}

  /// Reports a database-process crash. Returns true if the host
  /// manager handles it locally (restart), false if it escalates to a
  /// control-plane node replacement.
  bool OnProcessCrash();

  /// Healthy heartbeat resets the crash counter.
  void OnHeartbeat() { recent_crashes_ = 0; }

  int restarts() const { return restarts_; }
  int escalations() const { return escalations_; }

 private:
  Config config_;
  int recent_crashes_ = 0;
  int restarts_ = 0;
  int escalations_ = 0;
};

}  // namespace sdw::controlplane

#endif  // SDW_CONTROLPLANE_CONTROL_PLANE_H_
