#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/wlm.h"
#include "common/random.h"
#include "obs/history.h"

namespace sdw::cluster {
namespace {

WlmConfig Slots(int n, double penalty = 0.0) {
  WlmConfig config;
  config.concurrency_slots = n;
  config.per_slot_memory_penalty = penalty;
  return config;
}

TEST(WlmTest, SlotsBoundConcurrency) {
  sim::Engine engine;
  WorkloadManager wlm(&engine, Slots(2));
  for (int i = 0; i < 6; ++i) wlm.Submit(10.0);
  EXPECT_EQ(wlm.running(), 2);
  EXPECT_EQ(wlm.queued(), 4u);
  engine.RunUntil(15.0);
  EXPECT_EQ(wlm.running(), 2);  // next wave admitted
  engine.Run();
  EXPECT_EQ(wlm.running(), 0);
  EXPECT_EQ(wlm.reports().size(), 6u);
  // Three waves of two: completions at 10, 20, 30.
  EXPECT_DOUBLE_EQ(wlm.reports().back()->finished_at, 30.0);
}

TEST(WlmTest, FifoAdmission) {
  sim::Engine engine;
  WorkloadManager wlm(&engine, Slots(1));
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    wlm.Submit(1.0, [&order, i](const WorkloadManager::QueryReport&) {
      order.push_back(i);
    });
  }
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(WlmTest, QueueTimeAccounted) {
  sim::Engine engine;
  WorkloadManager wlm(&engine, Slots(1));
  wlm.Submit(5.0);
  wlm.Submit(5.0);
  engine.Run();
  EXPECT_DOUBLE_EQ(wlm.reports()[0]->queued_seconds, 0.0);
  EXPECT_DOUBLE_EQ(wlm.reports()[1]->queued_seconds, 5.0);
  EXPECT_DOUBLE_EQ(wlm.reports()[1]->exec_seconds, 5.0);
}

TEST(WlmTest, MemoryPenaltySlowsWideConfigs) {
  // 10 slots with a 4% per-slot penalty run each query 1.36x slower.
  sim::Engine engine;
  WorkloadManager wlm(&engine, Slots(10, 0.04));
  wlm.Submit(10.0);
  engine.Run();
  EXPECT_NEAR(wlm.reports()[0]->exec_seconds, 13.6, 1e-9);
}

TEST(WlmTest, TradeoffComponentsAreMonotone) {
  // The two forces the slot count balances: queue wait falls with more
  // slots; per-query execution rises with more slots (smaller memory
  // share). The A11 bench shows the resulting sweet spot on a realistic
  // arrival mix.
  auto run = [](int slots) {
    sim::Engine engine;
    WorkloadManager wlm(&engine, Slots(slots, 0.04));
    for (int i = 0; i < 40; ++i) wlm.Submit(1.0);
    engine.Run();
    double queue = 0, exec = 0;
    for (const auto& r : wlm.reports()) {
      queue += r->queued_seconds;
      exec += r->exec_seconds;
    }
    return std::make_pair(queue / 40, exec / 40);
  };
  auto [q1, e1] = run(1);
  auto [q5, e5] = run(5);
  auto [q40, e40] = run(40);
  EXPECT_GT(q1, q5);
  EXPECT_GT(q5, q40);
  EXPECT_LT(e1, e5);
  EXPECT_LT(e5, e40);
}

TEST(WlmTest, LateSubmissionsAdmitImmediatelyWhenIdle) {
  sim::Engine engine;
  WorkloadManager wlm(&engine, Slots(2));
  wlm.Submit(1.0);
  engine.Run();
  ASSERT_EQ(wlm.reports().size(), 1u);
  // Engine idle at t=1; a new query starts right away.
  wlm.Submit(2.0);
  engine.Run();
  EXPECT_DOUBLE_EQ(wlm.reports()[1]->queued_seconds, 0.0);
  EXPECT_DOUBLE_EQ(wlm.reports()[1]->finished_at, 3.0);
}

TEST(WlmTest, ZeroAndNegativeSlotConfigsAreClamped) {
  // A zero- or negative-slot queue would deadlock every submission;
  // sanitize to the smallest valid config instead of crashing.
  EXPECT_EQ(SanitizeWlmConfig(Slots(0)).concurrency_slots, 1);
  EXPECT_EQ(SanitizeWlmConfig(Slots(-3)).concurrency_slots, 1);
  EXPECT_EQ(SanitizeWlmConfig(Slots(4)).concurrency_slots, 4);

  // Both the simulator and the live controller accept the bad config.
  sim::Engine engine;
  WorkloadManager wlm(&engine, Slots(0));
  wlm.Submit(1.0);
  engine.Run();
  EXPECT_EQ(wlm.reports().size(), 1u);
  AdmissionController controller(Slots(-1));
  EXPECT_EQ(controller.config().concurrency_slots, 1);
  auto slot = controller.Admit();
  ASSERT_TRUE(slot.ok()) << slot.status();
}

TEST(WlmTest, SimulatorReportHistoryIsRingBuffered) {
  sim::Engine engine;
  WorkloadManager wlm(&engine, Slots(2));
  // Every report charges its size, so the history keeps this many.
  const size_t kept =
      obs::kHistoryBytes / sizeof(WorkloadManager::QueryReport);
  const int submitted = static_cast<int>(kept) + 50;
  // Two unit queries per simulated second keep the queue short.
  for (int i = 0; i < submitted; i += 2) {
    wlm.Submit(1.0);
    wlm.Submit(1.0);
    engine.Run();
  }
  const auto reports = wlm.reports();
  EXPECT_EQ(reports.size(), kept) << "history must not grow unbounded";
  EXPECT_LT(reports.size(), static_cast<size_t>(submitted));
  // The survivors are the newest reports: the last completion is at
  // t=submitted/2 (unit queries through 2 slots).
  EXPECT_DOUBLE_EQ(reports.back()->finished_at, submitted / 2.0);
}

TEST(WlmTest, AdmissionReportHistoryIsRingBuffered) {
  AdmissionController controller(Slots(4));
  // Long statement texts fill the byte bound within 100 reports.
  const std::string statement(64 * 1024, 'x');
  size_t charge = 0;
  for (int i = 0; i < 100; ++i) {
    AdmissionController::Report report;
    report.session_id = i;
    report.state = "run";
    report.statement = statement;
    charge = report.history_bytes();
    controller.Record(std::move(report));
  }
  const size_t kept = obs::kHistoryBytes / charge;
  ASSERT_LT(kept, 100u);
  const std::vector<AdmissionController::Report> reports =
      controller.reports();
  ASSERT_EQ(reports.size(), kept);
  EXPECT_EQ(reports.front().session_id, 100 - static_cast<int>(kept));
  EXPECT_EQ(reports.back().session_id, 99);
  // Sequence numbers count from 1 and keep counting across evictions.
  EXPECT_EQ(reports.back().seq, 100u);
}

TEST(WlmTest, AdmissionEnforcesSlotLimitAcrossThreads) {
  WlmConfig config = Slots(2);
  AdmissionController controller(config);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&controller] {
      auto slot = controller.Admit();
      ASSERT_TRUE(slot.ok()) << slot.status();
      // Hold the slot briefly so admissions genuinely overlap.
      std::this_thread::yield();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(controller.running(), 0);
  EXPECT_EQ(controller.admitted(), 8u);
  EXPECT_LE(controller.max_in_flight(), 2);
  EXPECT_EQ(controller.timeouts(), 0u);
}

TEST(WlmTest, AdmissionQueueTimeoutFires) {
  WlmConfig config = Slots(1);
  config.queue_timeout_seconds = 0.02;
  AdmissionController controller(config);
  auto held = controller.Admit();
  ASSERT_TRUE(held.ok()) << held.status();
  // The only slot is occupied: the second admit must time out.
  auto starved = controller.Admit();
  ASSERT_FALSE(starved.ok());
  EXPECT_TRUE(starved.status().IsDeadlineExceeded()) << starved.status();
  EXPECT_EQ(controller.timeouts(), 1u);
  EXPECT_EQ(controller.queued(), 0u) << "timed-out waiters leave the queue";
}

// ---------------------------------------------------------------------------
// Multi-queue WLM: classifier, hopping, SQA, sanitization.
// ---------------------------------------------------------------------------

WlmQueueConfig Queue(std::string name, int slots,
                     std::vector<std::string> query_classes = {},
                     std::vector<std::string> user_groups = {}) {
  WlmQueueConfig queue;
  queue.name = std::move(name);
  queue.slots = slots;
  queue.query_classes = std::move(query_classes);
  queue.user_groups = std::move(user_groups);
  return queue;
}

/// Spins until `pred` holds (tests only — the live controller runs on
/// real time, so cross-thread sequencing points need a poll).
bool WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(WlmMultiQueueTest, SanitizeClampsQueueShares) {
  WlmConfig config = Slots(2);
  config.queues.push_back(Queue("etl", 0, {"copy"}));
  config.queues.push_back(Queue("adhoc", -3));
  config.queues[0].hop_on_timeout = "nowhere";  // dangling
  config.queues[1].hop_on_timeout = "adhoc";    // self
  config.queues[1].queue_timeout_seconds = -5;

  WlmConfig clean = SanitizeWlmConfig(config);
  ASSERT_EQ(clean.queues.size(), 3u) << "catch-all default must be appended";
  EXPECT_EQ(clean.queues[0].slots, 1) << "zero share clamps to 1";
  EXPECT_EQ(clean.queues[1].slots, 1) << "negative share clamps to 1";
  EXPECT_EQ(clean.queues[2].name, "default");
  EXPECT_EQ(clean.queues[2].slots, 1);
  // Shares (1 + 1 + 1) exceeded concurrency_slots=2: the total grows so
  // no named queue silently starves.
  EXPECT_EQ(clean.concurrency_slots, 3);
  EXPECT_TRUE(clean.queues[0].hop_on_timeout.empty()) << "dangling hop cleared";
  EXPECT_TRUE(clean.queues[1].hop_on_timeout.empty()) << "self hop cleared";
  EXPECT_EQ(clean.queues[1].queue_timeout_seconds, 0) << "negative -> inherit";

  WlmConfig sqa = Slots(2);
  sqa.enable_sqa = true;
  sqa.sqa_slots = 0;
  sqa.sqa_max_estimated_seconds = -1;
  sqa.sqa_demote_exec_seconds = 0;
  WlmConfig sqa_clean = SanitizeWlmConfig(sqa);
  EXPECT_EQ(sqa_clean.sqa_slots, 1);
  EXPECT_GT(sqa_clean.sqa_max_estimated_seconds, 0);
  EXPECT_GT(sqa_clean.sqa_demote_exec_seconds, 0);
}

TEST(WlmMultiQueueTest, ClassifierPrecedence) {
  WlmConfig config = Slots(8);
  config.queues.push_back(Queue("etl", 2, {"copy"}, {"analyst"}));
  config.queues.push_back(Queue("etl2", 2, {"copy"}));
  config.queues.push_back(Queue("dash", 2, {}, {"dashboard"}));
  AdmissionController controller(config);

  auto admitted_queue = [&controller](const std::string& group,
                                      const std::string& klass) {
    AdmitRequest request;
    request.user_group = group;
    request.query_class = klass;
    auto slot = controller.Admit(request);
    EXPECT_TRUE(slot.ok()) << slot.status();
    return slot.ok() ? slot->queue() : std::string();
  };

  // Query-class rules beat user-group rules.
  EXPECT_EQ(admitted_queue("dashboard", "copy"), "etl");
  // Within a pass, declaration order wins ("etl" before "etl2").
  EXPECT_EQ(admitted_queue("", "copy"), "etl");
  // Group pass runs when no class rule matches.
  EXPECT_EQ(admitted_queue("dashboard", "select"), "dash");
  // "analyst" is a group rule on etl, not a class rule: still group pass.
  EXPECT_EQ(admitted_queue("analyst", "select"), "etl");
  // Nothing matches: the catch-all.
  EXPECT_EQ(admitted_queue("unknown", "vacuum"), "default");
}

TEST(WlmMultiQueueTest, HopLandsInTargetFifoOrder) {
  WlmConfig config = Slots(2);
  config.queue_timeout_seconds = 10.0;
  config.queues.push_back(Queue("a", 1, {"qa"}));
  config.queues.back().hop_on_timeout = "b";
  config.queues.back().queue_timeout_seconds = 0.03;
  config.queues.push_back(Queue("b", 1, {"qb"}));
  AdmissionController controller(config);

  AdmitRequest in_a;
  in_a.query_class = "qa";
  AdmitRequest in_b;
  in_b.query_class = "qb";

  auto hold_a = controller.Admit(in_a);
  ASSERT_TRUE(hold_a.ok()) << hold_a.status();
  EXPECT_EQ(hold_a->queue(), "a");
  auto hold_b = controller.Admit(in_b);
  ASSERT_TRUE(hold_b.ok()) << hold_b.status();
  EXPECT_EQ(hold_b->queue(), "b");

  // Admission order recorder: each waiter notes its turn, then releases
  // its slot (Slot destructor) so the next head can go.
  std::atomic<int> turn{0};
  std::atomic<int> w1_turn{-1}, hopper_turn{-1}, w2_turn{-1};
  std::atomic<int> hopper_hops{-1};
  std::string hopper_queue;

  std::thread w1([&] {
    auto slot = controller.Admit(in_b);
    ASSERT_TRUE(slot.ok()) << slot.status();
    w1_turn = turn.fetch_add(1);
  });
  ASSERT_TRUE(WaitUntil([&] { return controller.queued() == 1; }));

  std::thread hopper([&] {
    auto slot = controller.Admit(in_a);
    ASSERT_TRUE(slot.ok()) << slot.status();
    hopper_turn = turn.fetch_add(1);
    hopper_hops = slot->hops();
    hopper_queue = slot->queue();
  });
  // The hopper waits 0.03s in "a", then re-enqueues at b's tail.
  ASSERT_TRUE(WaitUntil([&] { return controller.hops() == 1; }));

  std::thread w2([&] {
    auto slot = controller.Admit(in_b);
    ASSERT_TRUE(slot.ok()) << slot.status();
    w2_turn = turn.fetch_add(1);
  });
  ASSERT_TRUE(WaitUntil([&] { return controller.queued() == 3; }));

  // Free b's slot: the three waiters drain in b's FIFO order.
  hold_b = AdmissionController::Slot();
  w1.join();
  hopper.join();
  w2.join();

  EXPECT_EQ(w1_turn.load(), 0) << "b's original waiter was enqueued first";
  EXPECT_EQ(hopper_turn.load(), 1) << "the hop lands at b's tail, not head";
  EXPECT_EQ(w2_turn.load(), 2) << "arrivals after the hop queue behind it";
  EXPECT_EQ(hopper_queue, "b");
  EXPECT_EQ(hopper_hops.load(), 1);
  EXPECT_EQ(controller.timeouts(), 0u) << "a hop is not a cancellation";
  const std::vector<AdmissionController::QueueStats> stats =
      controller.queue_stats();
  ASSERT_EQ(stats.size(), 3u);  // a, b, default
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_EQ(stats[0].hops_out, 1u);
  EXPECT_EQ(stats[0].timeouts, 0u);
}

TEST(WlmMultiQueueTest, TimeoutReportCarriesAccruedWaitAcrossHops) {
  // The regression this pins down: a queued statement that hops and then
  // times out must report the wait summed over *every* queue it visited
  // — not just the final residence, and never the configured timeout
  // constant.
  WlmConfig config = Slots(2);
  config.queues.push_back(Queue("a", 1, {"qa"}));
  config.queues.back().hop_on_timeout = "b";
  config.queues.back().queue_timeout_seconds = 0.04;
  config.queues.push_back(Queue("b", 1, {"qb"}));
  config.queues.back().queue_timeout_seconds = 0.04;
  AdmissionController controller(config);

  AdmitRequest in_a;
  in_a.query_class = "qa";
  AdmitRequest in_b;
  in_b.query_class = "qb";
  auto hold_a = controller.Admit(in_a);
  ASSERT_TRUE(hold_a.ok()) << hold_a.status();
  auto hold_b = controller.Admit(in_b);
  ASSERT_TRUE(hold_b.ok()) << hold_b.status();

  AdmitRequest starved;
  starved.query_class = "qa";
  starved.session_id = 7;
  starved.statement = "SELECT 1";
  AdmissionController::Report report;
  auto denied = controller.Admit(starved, &report);
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsDeadlineExceeded()) << denied.status();

  EXPECT_EQ(report.state, "timeout");
  EXPECT_EQ(report.queue, "b") << "cancelled from the queue it died in";
  EXPECT_EQ(report.hops, 1);
  EXPECT_EQ(report.session_id, 7);
  EXPECT_EQ(report.statement, "SELECT 1");
  // 0.04s accrued in "a" plus 0.04s in "b". The pre-fix behavior
  // reported only the last queue's wait (~0.04): assert the sum.
  EXPECT_GE(report.queued_seconds, 0.079);
  EXPECT_EQ(controller.timeouts(), 1u);
  EXPECT_EQ(controller.hops(), 1u);
}

TEST(WlmMultiQueueTest, SqaMisestimateDemotedNotWedged) {
  WlmConfig config = Slots(1);
  config.enable_sqa = true;
  config.sqa_slots = 1;
  config.sqa_max_estimated_seconds = 0.25;
  config.sqa_demote_exec_seconds = 0.01;
  AdmissionController controller(config);

  AdmitRequest cheap;
  cheap.query_class = "select";
  cheap.estimated_seconds = 0.001;
  auto overstayer = controller.Admit(cheap);
  ASSERT_TRUE(overstayer.ok()) << overstayer.status();
  EXPECT_EQ(overstayer->queue(), "sqa");

  // The "short" query is still holding its fast-lane slot well past the
  // demotion threshold. A genuinely short follow-up must not be wedged
  // behind it: waiters poll, demote the overstayer's accounting to its
  // home queue, and take the freed fast-lane slot.
  auto follow_up = controller.Admit(cheap);
  ASSERT_TRUE(follow_up.ok()) << follow_up.status();
  EXPECT_EQ(follow_up->queue(), "sqa");
  EXPECT_GE(controller.sqa_demotions(), 1u);
  // The demoted statement was not cancelled — it finishes normally.
  EXPECT_EQ(controller.timeouts(), 0u);
  EXPECT_EQ(controller.running(), 2);

  // Let both finish (the demoted overstayer now counts against the
  // default queue, so its release frees that slot for the next check).
  *overstayer = AdmissionController::Slot();
  *follow_up = AdmissionController::Slot();
  ASSERT_TRUE(WaitUntil([&] { return controller.running() == 0; }));

  // Estimates above the threshold (or unknown) never enter the lane.
  AdmitRequest heavy;
  heavy.query_class = "select";
  heavy.estimated_seconds = 10.0;
  {
    auto slot = controller.Admit(heavy);
    ASSERT_TRUE(slot.ok()) << slot.status();
    EXPECT_EQ(slot->queue(), "default");
  }
  AdmitRequest unknown;
  unknown.estimated_seconds = -1;
  {
    auto slot = controller.Admit(unknown);
    ASSERT_TRUE(slot.ok()) << slot.status();
    EXPECT_EQ(slot->queue(), "default");
  }
}

}  // namespace
}  // namespace sdw::cluster
