// A11 (extension): workload management — the one engine knob Redshift
// ships with a working default (5 concurrency slots). §4: SQL's value
// grows "when computation needs to be distributed and parallelized
// across many nodes, and resources distributed across many concurrent
// queries". This ablation shows why a fixed middle-of-the-road default
// is the simplicity-friendly choice: narrow configs queue, wide configs
// starve each query of memory.

#include <cstdio>

#include "bench/bench_util.h"
#include "cluster/wlm.h"
#include "common/random.h"
#include "common/units.h"

namespace {

struct RunStats {
  double mean_latency = 0;
  double p95_latency = 0;
  double mean_queue = 0;
  double makespan = 0;
};

RunStats RunMix(int slots, uint64_t seed) {
  sdw::sim::Engine engine;
  sdw::cluster::WlmConfig config;
  config.concurrency_slots = slots;
  config.per_slot_memory_penalty = 0.04;
  sdw::cluster::WorkloadManager wlm(&engine, config);
  sdw::Rng rng(seed);
  // A BI mix: many 1-3s dashboard queries + a few 30-90s heavies,
  // Poisson arrivals over a 10-minute burst.
  double t = 0;
  for (int i = 0; i < 300; ++i) {
    t += rng.Exponential(2.0);
    const double service = rng.Bernoulli(0.08)
                               ? rng.UniformRange(30, 90)
                               : 1.0 + rng.NextDouble() * 2.0;
    engine.ScheduleAt(t, [&wlm, service] { wlm.Submit(service); });
  }
  engine.Run();
  RunStats stats;
  std::vector<double> latencies;
  for (const auto& r : wlm.reports()) {
    const double latency = r->finished_at - r->submitted_at;
    latencies.push_back(latency);
    stats.mean_latency += latency;
    stats.mean_queue += r->queued_seconds;
    stats.makespan = std::max(stats.makespan, r->finished_at);
  }
  stats.mean_latency /= latencies.size();
  stats.mean_queue /= latencies.size();
  std::sort(latencies.begin(), latencies.end());
  stats.p95_latency = latencies[latencies.size() * 95 / 100];
  return stats;
}

}  // namespace

int main() {
  benchutil::Banner(
      "A11 (extension)", "workload-management concurrency ablation",
      "1 slot queues, 50 slots starve memory; the shipped default (5) "
      "needs no tuning — the knob stays dusty");

  std::printf("\n300-query BI mix (92%% short, 8%% heavy), 30 seeds:\n");
  std::printf("\n%8s  %14s  %14s  %14s\n", "slots", "mean_latency",
              "p95_latency", "mean_queue");

  double best_mean = 1e300;
  int best_slots = 0;
  double narrow_mean = 0, wide_mean = 0, default_mean = 0;
  for (int slots : {1, 2, 5, 10, 20, 50}) {
    RunStats total{};
    const int kSeeds = 30;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      RunStats s = RunMix(slots, seed);
      total.mean_latency += s.mean_latency / kSeeds;
      total.p95_latency += s.p95_latency / kSeeds;
      total.mean_queue += s.mean_queue / kSeeds;
    }
    std::printf("%8d  %14s  %14s  %14s\n", slots,
                sdw::FormatDuration(total.mean_latency).c_str(),
                sdw::FormatDuration(total.p95_latency).c_str(),
                sdw::FormatDuration(total.mean_queue).c_str());
    if (total.mean_latency < best_mean) {
      best_mean = total.mean_latency;
      best_slots = slots;
    }
    if (slots == 1) narrow_mean = total.mean_latency;
    if (slots == 50) wide_mean = total.mean_latency;
    if (slots == 5) default_mean = total.mean_latency;
  }

  std::printf("\nbest mean latency at %d slots\n\n", best_slots);
  benchutil::Check(default_mean < narrow_mean,
                   "the default beats single-slot queueing");
  benchutil::Check(default_mean < wide_mean,
                   "the default beats memory-starved wide configs");
  benchutil::Check(best_slots >= 2 && best_slots <= 20,
                   "the sweet spot sits in the shipped-default range");
  return 0;
}
