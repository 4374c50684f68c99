#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/history.h"
#include "warehouse/warehouse.h"

namespace sdw {
namespace {

using obs::kHistoryBytes;

/// A row whose charge is whatever the test gives it.
struct Row {
  uint64_t id = 0;
  int payload = 0;
  size_t charge = 0;

  size_t history_bytes() const { return charge; }
  void set_history_id(uint64_t i) { id = i; }
};

constexpr size_t kRowBytes = 64 * 1024;
constexpr int kFits = static_cast<int>(kHistoryBytes / kRowBytes);

Row Charged(int payload, size_t charge = kRowBytes) {
  Row row;
  row.payload = payload;
  row.charge = charge;
  return row;
}

size_t SumCharges(const obs::History<Row>::Rows& rows) {
  size_t total = 0;
  for (const auto& row : rows) total += row->charge;
  return total;
}

TEST(HistoryTest, DropsOldestRowsPastTheBound) {
  obs::History<Row> history;
  for (int i = 0; i < kFits; ++i) history.Append(Charged(i));
  auto rows = history.Snapshot();
  ASSERT_EQ(rows.size(), static_cast<size_t>(kFits));
  EXPECT_EQ(history.bytes(), kHistoryBytes) << "exactly full keeps every row";

  history.Append(Charged(kFits));
  rows = history.Snapshot();
  ASSERT_EQ(rows.size(), static_cast<size_t>(kFits));
  EXPECT_EQ(rows.front()->payload, 1);
  EXPECT_EQ(rows.back()->payload, kFits);

  // A row of twice the charge pushes out the two oldest.
  history.Append(Charged(-1, 2 * kRowBytes));
  rows = history.Snapshot();
  ASSERT_EQ(rows.size(), static_cast<size_t>(kFits - 1));
  EXPECT_EQ(rows.front()->payload, 3);
  EXPECT_EQ(rows.back()->payload, -1);
  for (size_t i = 1; i + 1 < rows.size(); ++i) {
    EXPECT_EQ(rows[i]->payload, rows[i - 1]->payload + 1) << "append order";
  }
}

TEST(HistoryTest, IdsKeepCountingAcrossEvictions) {
  obs::History<Row> history;
  const int appended = 3 * kFits;
  for (int i = 0; i < appended; ++i) history.Append(Charged(i));
  auto rows = history.Snapshot();
  ASSERT_EQ(rows.size(), static_cast<size_t>(kFits));
  EXPECT_EQ(rows.front()->id, static_cast<uint64_t>(appended - kFits + 1));
  EXPECT_EQ(rows.back()->id, static_cast<uint64_t>(appended));
  for (const auto& row : rows) {
    EXPECT_EQ(row->id, static_cast<uint64_t>(row->payload) + 1)
        << "ids count from 1 in append order";
  }

  // A batch gets consecutive ids after everything appended before it.
  std::vector<Row> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(Charged(appended + i));
  history.Append(std::move(batch));
  rows = history.Snapshot();
  ASSERT_EQ(rows.size(), static_cast<size_t>(kFits));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rows[rows.size() - 3 + i]->id,
              static_cast<uint64_t>(appended + 1 + i));
  }
}

TEST(HistoryTest, AccountedBytesNeverExceedTheBound) {
  obs::History<Row> history;
  for (int i = 0; i < 2000; ++i) {
    // Charges from 1 B to 200 KiB in a fixed, uneven pattern.
    const size_t charge = (static_cast<size_t>(i) * 7919) % (200 << 10) + 1;
    history.Append(Charged(i, charge));
    ASSERT_LE(history.bytes(), kHistoryBytes) << "after append " << i;
    if (i % 100 == 0) {
      EXPECT_EQ(SumCharges(history.Snapshot()), history.bytes());
    }
  }
  EXPECT_EQ(SumCharges(history.Snapshot()), history.bytes());

  // A row larger than the whole bound cannot be kept, and takes every
  // older row with it.
  history.Append(Charged(-1, kHistoryBytes + 1));
  EXPECT_TRUE(history.Snapshot().empty());
  EXPECT_EQ(history.bytes(), 0u);
  history.Append(Charged(-2));
  ASSERT_EQ(history.Snapshot().size(), 1u);
  EXPECT_EQ(history.Snapshot().front()->id, 2002u);
}

TEST(HistoryTest, SnapshotIsUnchangedByLaterAppends) {
  obs::History<Row> history;
  for (int i = 0; i < kFits; ++i) history.Append(Charged(i));
  const obs::History<Row>::Rows before = history.Snapshot();
  // Evict every row the snapshot holds, twice over.
  for (int i = 0; i < 2 * kFits; ++i) history.Append(Charged(kFits + i));
  ASSERT_EQ(before.size(), static_cast<size_t>(kFits));
  for (int i = 0; i < kFits; ++i) {
    EXPECT_EQ(before[i]->payload, i);
    EXPECT_EQ(before[i]->id, static_cast<uint64_t>(i) + 1);
  }
  EXPECT_EQ(history.Snapshot().front()->payload, 2 * kFits);
}

TEST(HistoryTest, ConcurrentAppendsAndReads) {
  constexpr int kWriters = 8;
  constexpr int kReaders = 2;
  constexpr int kAppendsPerWriter = 400;
  obs::History<Row> history;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&history, &writers_left, w] {
      for (int i = 0; i < kAppendsPerWriter; ++i) {
        // 4 KiB rows: the 4,000 appends wrap the ring about four times.
        const size_t charge = kRowBytes / 16 + static_cast<size_t>(w);
        if (i % 4 == 0) {
          std::vector<Row> batch;
          batch.push_back(Charged(w, charge));
          batch.push_back(Charged(w, charge));
          history.Append(std::move(batch));
        } else {
          history.Append(Charged(w, charge));
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  std::atomic<int> snapshots{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&history, &writers_left, &snapshots] {
      do {
        const obs::History<Row>::Rows rows = history.Snapshot();
        for (size_t i = 1; i < rows.size(); ++i) {
          ASSERT_EQ(rows[i]->id, rows[i - 1]->id + 1) << "ids in order";
        }
        ASSERT_LE(SumCharges(rows), kHistoryBytes);
        ASSERT_LE(history.bytes(), kHistoryBytes);
        snapshots.fetch_add(1);
      } while (writers_left.load() > 0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(snapshots.load(), 0);
  const obs::History<Row>::Rows rows = history.Snapshot();
  const uint64_t appended =
      kWriters * (kAppendsPerWriter + kAppendsPerWriter / 4);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.back()->id, appended);
  EXPECT_LT(rows.size(), appended) << "the ring wrapped";
  EXPECT_EQ(SumCharges(rows), history.bytes());
}

int64_t Scalar(warehouse::Warehouse* wh, const std::string& sql) {
  auto r = wh->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
  if (!r.ok() || r->rows.num_rows() != 1) return -1;
  return r->rows.columns[0].IntAt(0);
}

// One long-lived warehouse with the caches off: every statement
// executes and leaves an stl_query row with its span tree. Once the
// query history fills, its row count stops growing, its oldest ids
// leave, stl_span keeps only the spans of kept queries, and no history
// is charged more than the bound.
TEST(HistorySoakTest, LongLivedWarehouseKeepsBoundedHistories) {
  warehouse::WarehouseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.slices_per_node = 2;
  options.exec.pool_size = 0;
  options.cache.enable_segment_cache = false;
  options.cache.enable_result_cache = false;
  warehouse::Warehouse wh(options);
  ASSERT_TRUE(wh.Execute("CREATE TABLE t (k BIGINT, v BIGINT)").ok());
  ASSERT_TRUE(wh.Execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), "
                         "(4, 40), (5, 50), (6, 60), (7, 70), (8, 80)")
                  .ok());
  // Fixed-width literals keep every row the same size, so a full
  // history holds a constant count.
  int executed = 0;
  auto run = [&wh, &executed] {
    const std::string sql = "SELECT COUNT(*) AS n FROM t WHERE v < " +
                            std::to_string(100000 + executed);
    ++executed;
    auto r = wh.Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status();
  };

  // Run until the first query leaves the history (a history that never
  // drops a row fails the checks below instead of running on).
  do {
    for (int i = 0; i < 100; ++i) run();
  } while (Scalar(&wh, "SELECT MIN(query_id) AS q FROM stl_query") == 1 &&
           executed < 20000);
  const int64_t full_count =
      Scalar(&wh, "SELECT COUNT(*) AS n FROM stl_query");
  const int64_t full_min =
      Scalar(&wh, "SELECT MIN(query_id) AS q FROM stl_query");
  ASSERT_GT(full_count, 0);
  ASSERT_LT(full_count, executed);
  std::printf("stl_query fills at %lld rows after %d statements\n",
              static_cast<long long>(full_count), executed);

  // Fill it twice more.
  const int target = 3 * executed;
  while (executed < target) run();
  const int64_t count = Scalar(&wh, "SELECT COUNT(*) AS n FROM stl_query");
  EXPECT_EQ(count, full_count) << "a full history stops growing";
  EXPECT_LT(count, executed);
  const int64_t min_id =
      Scalar(&wh, "SELECT MIN(query_id) AS q FROM stl_query");
  EXPECT_GT(min_id, full_min) << "the oldest queries left";
  // Every SELECT got the next id, so the kept ones are the newest.
  EXPECT_EQ(Scalar(&wh, "SELECT MAX(query_id) AS q FROM stl_query"),
            min_id + count - 1);

  // stl_span holds the spans of exactly the kept queries.
  auto spans = wh.Execute(
      "SELECT query_id, COUNT(*) AS n FROM stl_span GROUP BY query_id "
      "ORDER BY query_id");
  ASSERT_TRUE(spans.ok()) << spans.status();
  std::set<int64_t> span_queries;
  for (size_t i = 0; i < spans->rows.num_rows(); ++i) {
    span_queries.insert(spans->rows.columns[0].IntAt(i));
  }
  auto queries = wh.Execute("SELECT query_id FROM stl_query");
  ASSERT_TRUE(queries.ok()) << queries.status();
  std::set<int64_t> kept;
  for (size_t i = 0; i < queries->rows.num_rows(); ++i) {
    kept.insert(queries->rows.columns[0].IntAt(i));
  }
  EXPECT_EQ(span_queries, kept);

  // Block heat over the kept window is a plain aggregate of stl_scan.
  auto heat = wh.Execute(
      "SELECT tbl, SUM(blocks_read) AS blocks FROM stl_scan GROUP BY tbl");
  ASSERT_TRUE(heat.ok()) << heat.status();
  ASSERT_EQ(heat->rows.num_rows(), 1u);
  EXPECT_EQ(heat->rows.columns[0].StringAt(0), "t");
  EXPECT_GT(heat->rows.columns[1].IntAt(0), 0);

  EXPECT_LE(wh.query_log()->history().bytes(), kHistoryBytes);
  EXPECT_LE(wh.event_log()->bytes(), kHistoryBytes);
  EXPECT_LE(wh.scan_log()->bytes(), kHistoryBytes);
  EXPECT_LE(wh.alerts()->bytes(), kHistoryBytes);
  EXPECT_LE(wh.gauges()->bytes(), kHistoryBytes);
  EXPECT_LE(wh.wlm()->report_history().bytes(), kHistoryBytes);
  EXPECT_GT(wh.query_log()->history().bytes(), kHistoryBytes - 4096)
      << "a full history is charged close to the bound";
}

}  // namespace
}  // namespace sdw
