// The warehouse benchmark. Runs one seeded workload through
// Warehouse::Execute / Session::Execute, checks every answer against
// the oracle, and prints the end-to-end metrics as the last line of
// standard output. With --trace 1 the same seed runs again with spans
// around the benchmark's own calls into each layer's public functions
// and prints the per-layer metrics instead; no engine code is changed
// to measure them.
//
//   whbench --workload scan|dashboard --seed N --seconds S
//           --trace 0|1 [--spans FILE]
//   whbench --list-metrics

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "backup/s3sim.h"
#include "cluster/executor.h"
#include "common/hash.h"
#include "compress/codec.h"
#include "durability/commit_log.h"
#include "load/formats.h"
#include "obs/registry.h"
#include "oracle.h"
#include "plan/fingerprint.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "workload.h"

namespace whbench {
namespace {

using Clock = std::chrono::steady_clock;
using sdw::Result;
using sdw::Status;
using sdw::warehouse::StatementResult;
using sdw::warehouse::Warehouse;
using sdw::warehouse::WarehouseOptions;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Ns(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------ statistics

/// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ------------------------------------------------------------ metric names

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The six baseline shapes, which name the shape-specific metrics.
std::string BaseShape(int i) { return ShapeName(static_cast<Shape>(i)); }

std::vector<MetricDef> EndToEndMetrics() {
  std::vector<MetricDef> defs = {
      {"setup_s", "s"},           {"select_p50_ms", "ms"},
      {"select_p99_ms", "ms"},    {"select_qps", "stmt/s"},
  };
  for (int i = 0; i < kBaseShapes; ++i) {
    defs.push_back({BaseShape(i) + "_p50_ms", "ms"});
  }
  defs.push_back({"copy_rows_per_s", "rows/s"});
  defs.push_back({"success_rate", "ratio"});
  defs.push_back({"stored_bytes_per_input_byte", "B/B"});
  defs.push_back({"peak_rss_mb", "MB"});
  return defs;
}

/// Per-query layer metrics: each is reported over every probed
/// statement and once per baseline shape (".point" .. ".join").
const std::vector<MetricDef>& PerQueryMetrics() {
  static const std::vector<MetricDef> defs = {
      {"warehouse.front_door_ms", "ms"},
      {"cluster.pool_speedup", "x"},
      {"cluster.slice_cpu_ns_per_row", "ns/row"},
      {"cluster.slice_skew", "ratio"},
      {"cluster.leader_ms", "ms"},
      {"cluster.network_bytes_per_row", "B/row"},
      {"exec.rows_scanned_per_row_out", "rows/row"},
      {"exec.blocks_skipped_ratio", "ratio"},
      {"exec.bytes_decoded_per_row", "B/row"},
      {"storage.block_reads_per_query", "blocks"},
      {"storage.read_bytes_per_row", "B/row"},
      {"storage.decode_cache_hit_rate", "ratio"},
      {"storage.fetch_ns_per_block", "ns/block"},
      {"storage.read_range_ns_per_row", "ns/row"},
  };
  return defs;
}

std::vector<MetricDef> PerLayerMetrics() {
  std::vector<MetricDef> defs = {
      {"sql.parse_us", "us"},
      {"plan.plan_us", "us"},
      {"plan.fingerprint_us", "us"},
      {"warehouse.result_cache_hit_rate", "ratio"},
      {"warehouse.segment_cache_hit_rate", "ratio"},
      {"warehouse.hit_us", "us"},
      {"cluster.queue_ms_p99", "ms"},
      {"cluster.max_in_flight", "count"},
      {"cluster.pin_us", "us"},
      {"compress.decode_ns_per_row.int64", "ns/row"},
      {"compress.decode_ns_per_row.varchar", "ns/row"},
      {"compress.encode_ns_per_row", "ns/row"},
      {"compress.stored_bytes_per_row.main", "B/row"},
      {"compress.stored_bytes_per_row.dim", "B/row"},
      {"load.parse_ns_per_row", "ns/row"},
      {"cluster.insert_ns_per_row", "ns/row"},
      {"cluster.analyze_ms", "ms"},
      {"durability.append_us", "us"},
      {"durability.log_bytes_per_commit", "B/commit"},
      {"cluster.pending_garbage", "count"},
      {"common.pool_tasks_per_query", "tasks"},
      {"bench.generator_lag_p99_ms", "ms"},
      {"bench.trace_overhead", "ratio"},
  };
  for (const MetricDef& def : PerQueryMetrics()) {
    defs.push_back(def);
    for (int i = 0; i < kBaseShapes; ++i) {
      defs.push_back({def.name + "." + BaseShape(i), def.unit});
    }
  }
  return defs;
}

// ------------------------------------------------------------ metric output

class Metrics {
 public:
  void Add(const std::string& name, double value, size_t samples = 0) {
    if (!std::isfinite(value)) {
      std::printf("warning: %s is not finite; reported as 0\n", name.c_str());
      value = 0;
    }
    values_[name] = {value, samples};
  }

  /// Prints every metric of `defs` with its unit and sample count and
  /// returns the JSON object of them; fails if one was not measured.
  Result<std::string> Emit(const std::vector<MetricDef>& defs) const {
    std::string json = "{";
    for (const MetricDef& def : defs) {
      auto it = values_.find(def.name);
      if (it == values_.end()) {
        return Status::Internal("metric not measured: " + def.name);
      }
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", it->second.first);
      std::printf("metric %-44s %14.6g %-8s", def.name.c_str(),
                  it->second.first, def.unit.c_str());
      if (it->second.second > 0) std::printf(" (n=%zu)", it->second.second);
      std::printf("\n");
      if (json.size() > 1) json += ", ";
      json += "\"" + def.name + "\": {\"value\": " + value + ", \"unit\": \"" +
              def.unit + "\"}";
    }
    return json + "}";
  }

 private:
  std::map<std::string, std::pair<double, size_t>> values_;
};

// ------------------------------------------------------------ spans

/// One recorded span: a layer call made by the benchmark.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  std::string name;
  double start_us = 0;
  double end_us = 0;
  std::vector<std::pair<const char*, double>> counts;
};

std::atomic<uint64_t> g_next_span{1};
std::atomic<uint64_t> g_next_op{1};
uint64_t NewOp() { return g_next_op.fetch_add(1, std::memory_order_relaxed); }

/// Spans of one thread, kept in memory until the run writes them out.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Reserves a span id, so children can name a parent that has not
  /// ended yet; pass it to Add as `id` when the parent ends.
  static uint64_t NewId() {
    return g_next_span.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t Add(std::string name, uint64_t op, uint64_t parent,
               Clock::time_point start, Clock::time_point end,
               std::vector<std::pair<const char*, double>> counts = {},
               uint64_t id = 0) {
    Span span;
    span.id = id != 0 ? id : NewId();
    span.parent = parent;
    span.op = op;
    span.name = std::move(name);
    span.start_us = Us(start - epoch_);
    span.end_us = Us(end - epoch_);
    span.counts = std::move(counts);
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void Absorb(SpanLog* other) {
    for (Span& s : other->spans_) spans_.push_back(std::move(s));
    other->spans_.clear();
  }

  size_t size() const { return spans_.size(); }

  Status Write(const std::string& path, const std::string& workload,
               uint64_t seed) const {
    std::ofstream out(path);
    if (!out) return Status::IoError("cannot write spans to " + path);
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
        << ", \"spans\": [\n";
    char buf[128];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "{\"id\": %llu, \"parent\": %llu, \"op\": %llu, ",
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.op));
      out << buf << "\"name\": \"" << s.name << "\", ";
      std::snprintf(buf, sizeof buf, "\"start_us\": %.3f, \"end_us\": %.3f",
                    s.start_us, s.end_us);
      out << buf << ", \"counts\": {";
      for (size_t c = 0; c < s.counts.size(); ++c) {
        std::snprintf(buf, sizeof buf, "%.17g", s.counts[c].second);
        out << (c ? ", " : "") << "\"" << s.counts[c].first << "\": " << buf;
      }
      out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return out.good() ? Status::OK() : Status::IoError("short write: " + path);
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ registry

enum CounterId {
  kResultHits,
  kResultMisses,
  kSegmentHits,
  kSegmentMisses,
  kBlockReads,
  kReadBytes,
  kBlocksDecoded,
  kPoolTasks,
  kLogAppends,
  kLogBytes,
  kNumCounters,
};

using CounterValues = std::array<double, kNumCounters>;

CounterValues ReadCounters() {
  static const std::array<sdw::obs::Counter*, kNumCounters> counters = [] {
    const char* names[kNumCounters] = {
        "sdw_cache_result_hits",     "sdw_cache_result_misses",
        "sdw_cache_segment_hits",    "sdw_cache_segment_misses",
        "sdw_storage_block_reads",   "sdw_storage_block_read_bytes",
        "sdw_storage_blocks_decoded", "sdw_pool_tasks",
        "sdw_durability_log_appends", "sdw_durability_log_bytes"};
    std::array<sdw::obs::Counter*, kNumCounters> out{};
    for (int i = 0; i < kNumCounters; ++i) {
      out[i] = sdw::obs::Registry::Global().counter(names[i]);
    }
    return out;
  }();
  CounterValues v{};
  for (int i = 0; i < kNumCounters; ++i) {
    v[i] = static_cast<double>(counters[i]->value());
  }
  return v;
}

// ------------------------------------------------------------ run state

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string spans_path;
};

/// One SELECT of a measured loop.
struct Sample {
  double ms = 0;       // latency, from send to return
  double wall_ms = 0;  // send to end of the benchmark's own bookkeeping
  double lag_ms = 0;   // how late the request left the generator
  uint32_t stmt = 0;   // index into the workload's statement pool
  Shape shape = Shape::kPoint;
  bool ok = false;
  bool hit = false;
  bool traced = false;
  uint64_t hash = 0;
};

struct Statement {
  Query query;
  std::string sql;
};

std::vector<Statement> MakeStatements(const std::vector<Query>& queries,
                                      const std::string& table) {
  std::vector<Statement> out;
  out.reserve(queries.size());
  for (const Query& q : queries) out.push_back({q, QuerySql(q, table)});
  return out;
}

/// Failures and wrong answers of a run, plus the first few messages.
class Errors {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
    if (messages_.size() < 5) messages_.push_back(what);
  }
  uint64_t count() const { return count_; }
  void Print() const {
    for (const std::string& m : messages_) std::printf("error: %s\n", m.c_str());
  }

 private:
  mutable std::mutex mu_;
  uint64_t count_ = 0;
  std::vector<std::string> messages_;
};

struct Run {
  explicit Run(Args a) : args(std::move(a)), spans(epoch) {}
  Args args;
  Clock::time_point epoch = Clock::now();
  SpanLog spans;
  Metrics metrics;
  Errors errors;
  uint64_t attempted = 0;
  CounterValues start_counters = ReadCounters();
  /// SELECTs completed by the run's closed loops so far.
  std::atomic<uint64_t> completed{0};
  /// Peak RSS once the closed loops have done a fixed number of
  /// statements (0: read it at the end of the run).
  std::atomic<double> peak_rss_mb{0};
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ------------------------------------------------------------ set-up

/// One COPY of staged CSV fixtures, preceded by its DDL when non-empty.
struct TableLoad {
  std::string ddl;
  std::string table;
  std::string prefix;
  /// Regenerates the CSV files from the seed. The run holds no fixture
  /// of its own: each set-up stages fresh files and drops them before
  /// its COPY, so peak_rss_mb counts none of the benchmark's copy.
  std::function<std::vector<std::string>()> make_files;
  size_t rows = 0;
};

/// Runs a COPY `statement`, checking that it loaded `rows` rows.
Result<StatementResult> ExecuteCopy(Warehouse::Session* session,
                                    const std::string& statement,
                                    size_t rows) {
  SDW_ASSIGN_OR_RETURN(StatementResult r, session->Execute(statement));
  if (r.copy_stats.rows_loaded != rows) {
    return Status::Internal(statement + " loaded " +
                            std::to_string(r.copy_stats.rows_loaded) +
                            " rows, fixture has " + std::to_string(rows));
  }
  return r;
}

struct SetupStats {
  std::vector<double> seconds;
  /// Rows per second of the main table's COPY, one per set-up.
  std::vector<double> main_copy_rates;
  /// CSV bytes one set-up loads.
  uint64_t input_bytes = 0;
};

/// Builds the warehouse once and adds the set-up's time and COPY rate to
/// `stats`. Timed: construction, DDL, COPY and `warmup`; not timed:
/// fixture generation and staging. loads[0] is the table whose COPY
/// rate set-up reports.
Result<std::unique_ptr<Warehouse>> SetUp(Run* run,
                                         const WarehouseOptions& options,
                                         const std::vector<TableLoad>& loads,
                                         const std::vector<std::string>& warmup,
                                         SetupStats* stats) {
  const uint64_t op = NewOp();
  const uint64_t root = SpanLog::NewId();
  auto start = Clock::now();
  auto warehouse = std::make_unique<Warehouse>(options);
  double seconds = Seconds(Clock::now() - start);
  stats->input_bytes = 0;
  for (const TableLoad& load : loads) {
    const std::vector<std::string> files = load.make_files();
    for (const std::string& f : files) stats->input_bytes += f.size();
    SDW_RETURN_IF_ERROR(StageFiles(warehouse.get(), load.prefix, files));
  }
  Warehouse::Session session = warehouse->CreateSession();
  for (size_t i = 0; i < loads.size(); ++i) {
    const TableLoad& load = loads[i];
    SDW_ASSIGN_OR_RETURN(std::string copy, CopySql(load.table, load.prefix));
    auto begin = Clock::now();
    if (!load.ddl.empty()) {
      SDW_RETURN_IF_ERROR(session.Execute(load.ddl).status());
    }
    auto copy_begin = Clock::now();
    SDW_ASSIGN_OR_RETURN(StatementResult result,
                         ExecuteCopy(&session, copy, load.rows));
    auto end = Clock::now();
    seconds += Seconds(end - begin);
    if (i == 0) {
      stats->main_copy_rates.push_back(static_cast<double>(load.rows) /
                                       Seconds(end - copy_begin));
    }
    if (run->args.trace) {
      run->spans.Add("warehouse.execute.copy", op, root, copy_begin, end,
                     {{"rows_loaded",
                       static_cast<double>(result.copy_stats.rows_loaded)},
                      {"input_bytes",
                       static_cast<double>(result.copy_stats.input_bytes)}});
    }
  }
  for (const std::string& sql : warmup) {
    auto begin = Clock::now();
    SDW_RETURN_IF_ERROR(session.Execute(sql).status());
    seconds += Seconds(Clock::now() - begin);
  }
  stats->seconds.push_back(seconds);
  if (run->args.trace) {
    run->spans.Add("setup", op, 0, start, Clock::now(), {{"seconds", seconds}},
                   root);
  }
  return warehouse;
}

// ------------------------------------------------------------ statements

/// Runs one SELECT and records it; latency counts from `timed_from`.
/// Returns when Execute returned.
Clock::time_point RunSelect(Warehouse::Session* session,
                            const Statement& stmt, Clock::time_point timed_from,
                            Sample* s, SpanLog* spans, Errors* errors) {
  const auto send = Clock::now();
  Result<StatementResult> result = session->Execute(stmt.sql);
  const auto done = Clock::now();
  s->ms = Ms(done - timed_from);
  if (!result.ok()) {
    errors->Fail(stmt.sql + ": " + result.status().ToString());
  } else {
    s->ok = true;
    s->hit = result->from_result_cache;
    s->hash = AnswerHash(RenderBatch(result->rows));
    if (s->traced) {
      double scanned = 0;
      double blocks = 0;
      for (const auto& scan : result->exec_stats.scans) {
        scanned += static_cast<double>(scan.rows_scanned);
        blocks += static_cast<double>(scan.blocks_read);
      }
      spans->Add("warehouse.execute", NewOp(), 0, send, done,
                 {{"result_cache_hit", s->hit ? 1 : 0},
                  {"rows_out", static_cast<double>(result->rows.num_rows())},
                  {"rows_scanned", scanned},
                  {"blocks_read", blocks}});
    }
  }
  s->wall_ms = Ms(Clock::now() - send);
  return done;
}

/// Checks every answer against the oracle's, result-cache hits like
/// misses. `expected` holds the oracle's answer hash per pool statement.
void CheckAnswers(const std::vector<Sample>& samples,
                  const std::vector<Statement>& pool,
                  const std::vector<uint64_t>& expected, Errors* errors) {
  for (const Sample& s : samples) {
    if (s.ok && s.hash != expected[s.stmt]) {
      errors->Fail("wrong answer" + std::string(s.hit ? " (cache hit)" : "") +
                   ": " + pool[s.stmt].sql);
    }
  }
}

/// The end-to-end SELECT metrics of a run's loops: round r's statements
/// end at `round_end[r]` in `samples`, and its loop took `round_s[r]`.
/// The p50s cover every statement (shape p50s those whose shape is one
/// of the six baselines). select_p99_ms and select_qps are medians over
/// the rounds of each round's value: the top 1% of a whole run comes
/// from any slow spell of the machine longer than 1% of it, while the
/// median round is moved only by a spell over half the run.
void AddSelectMetrics(const std::vector<Sample>& samples,
                      const std::vector<size_t>& round_end,
                      const std::vector<double>& round_s, Run* run) {
  std::vector<double> all, p99, qps;
  std::vector<double> by_shape[kBaseShapes];
  size_t begin = 0;
  for (size_t r = 0; r < round_end.size(); ++r) {
    std::vector<double> round;
    for (size_t i = begin; i < round_end[r]; ++i) {
      const Sample& s = samples[i];
      round.push_back(s.ms);
      const int shape = static_cast<int>(s.shape);
      if (shape < kBaseShapes) by_shape[shape].push_back(s.ms);
    }
    p99.push_back(Quantile(round, 0.99));
    qps.push_back(Ratio(static_cast<double>(round.size()), round_s[r]));
    all.insert(all.end(), round.begin(), round.end());
    begin = round_end[r];
  }
  run->metrics.Add("select_p50_ms", Median(all), all.size());
  run->metrics.Add("select_p99_ms", Median(p99), all.size());
  run->metrics.Add("select_qps", Median(qps), all.size());
  for (int i = 0; i < kBaseShapes; ++i) {
    run->metrics.Add(BaseShape(i) + "_p50_ms",
                     Median(by_shape[i]), by_shape[i].size());
  }
}

/// Set-up time and the main table's COPY rate: both medians over the
/// run's set-ups.
void AddSetupMetrics(const SetupStats& setup, Run* run) {
  run->metrics.Add("setup_s", Median(setup.seconds), setup.seconds.size());
  run->metrics.Add("copy_rows_per_s", Median(setup.main_copy_rates),
                   setup.main_copy_rates.size());
}

// ------------------------------------------------------------ traced probes

/// Accumulates the per-layer measurements of one traced run.
struct LayerProbe {
  /// Per-query values of PerQueryMetrics() by shape.
  std::vector<std::pair<Shape, std::map<std::string, double>>> queries;
  std::vector<double> parse_us, plan_us, fingerprint_us, pin_us;
  double decode_ns[2] = {0, 0};  // [0] integer lanes, [1] VARCHAR
  double decode_rows[2] = {0, 0};
  double encode_ns = 0;
  double encode_rows = 0;
};

bool Overlaps(const sdw::storage::BlockMeta& block,
              const std::vector<sdw::storage::RowRange>& ranges) {
  for (const auto& r : ranges) {
    if (block.first_row < r.end && r.begin < block.first_row + block.row_count) {
      return true;
    }
  }
  return false;
}

int TypeSlot(sdw::TypeId type) { return type == sdw::TypeId::kString ? 1 : 0; }

/// Times BlockStore::Get, compress::DecodeColumn and TableShard::ReadRange
/// over the blocks and candidate ranges one scan of the plan reads.
void ProbeScan(sdw::cluster::Cluster* cluster,
               const sdw::cluster::ReadSnapshot& snapshot,
               const sdw::plan::ScanSpec& scan, LayerProbe* probe,
               double* fetch_ns, double* fetch_blocks, double* range_ns,
               double* range_rows) {
  for (int slice = 0; slice < cluster->total_slices(); ++slice) {
    const sdw::storage::ShardRef* ref = snapshot.Find(scan.table, slice);
    if (ref == nullptr) continue;
    const sdw::storage::ShardVersion& version = *ref->version;
    const std::vector<sdw::storage::RowRange> ranges =
        ref->shard->CandidateRanges(version, scan.predicates);
    sdw::storage::BlockStore* store = cluster->NodeOfSlice(slice)->store();
    for (int column : scan.columns) {
      const sdw::TypeId type = ref->shard->schema().column(column).type;
      for (const sdw::storage::BlockMeta& block : version.chains[column]) {
        if (!Overlaps(block, ranges)) continue;
        auto start = Clock::now();
        Result<sdw::Bytes> bytes = store->Get(block.id);
        auto fetched = Clock::now();
        if (!bytes.ok()) continue;
        Result<sdw::ColumnVector> values =
            sdw::compress::DecodeColumn(block.encoding, type, *bytes);
        auto decoded = Clock::now();
        if (!values.ok()) continue;
        *fetch_ns += Ns(fetched - start);
        *fetch_blocks += 1;
        probe->decode_ns[TypeSlot(type)] += Ns(decoded - fetched);
        probe->decode_rows[TypeSlot(type)] +=
            static_cast<double>(block.row_count);
      }
    }
    for (const sdw::storage::RowRange& range : ranges) {
      auto start = Clock::now();
      auto rows = ref->shard->ReadRange(version, scan.columns, range);
      auto done = Clock::now();
      if (!rows.ok()) continue;
      *range_ns += Ns(done - start);
      *range_rows += static_cast<double>(range.size());
    }
  }
}

/// Probes one SELECT layer by layer: Execute through the front door,
/// then parse, fingerprint, plan, pin, and direct QueryExecutor runs
/// pooled and serial on the pinned snapshot, then the scans' blocks.
/// Execute and the pooled run are repeated and their medians used, as
/// the front-door time is the difference of the two.
Status ProbeSelect(Warehouse* warehouse, Warehouse::Session* session,
                   const WarehouseOptions& options, Shape shape,
                   const std::string& sql, SpanLog* spans, LayerProbe* probe) {
  sdw::cluster::Cluster* cluster = warehouse->data_plane();
  const uint64_t op = NewOp();
  const uint64_t root = SpanLog::NewId();
  const auto op_start = Clock::now();

  constexpr int kRepeats = 3;
  std::vector<double> execute_ms;
  bool hit = false;
  Clock::time_point t0, t1;
  for (int i = 0; i < kRepeats; ++i) {
    t0 = Clock::now();
    SDW_ASSIGN_OR_RETURN(StatementResult front, session->Execute(sql));
    t1 = Clock::now();
    hit = front.from_result_cache;
    spans->Add("warehouse.execute", op, root, t0, t1,
               {{"result_cache_hit", hit ? 1 : 0}});
    execute_ms.push_back(Ms(t1 - t0));
  }

  t0 = Clock::now();
  SDW_ASSIGN_OR_RETURN(sdw::sql::Statement parsed,
                       sdw::sql::ParseStatement(sql));
  t1 = Clock::now();
  spans->Add("sql.parse", op, root, t0, t1);
  const double parse_us = Us(t1 - t0);
  const auto* select = std::get_if<sdw::sql::SelectStmt>(&parsed);
  if (select == nullptr) return Status::Internal("not a SELECT: " + sql);
  const sdw::plan::LogicalQuery& query = select->query;

  t0 = Clock::now();
  const std::string canonical = sdw::plan::CanonicalText(query);
  const uint64_t fingerprint = sdw::Hash64(std::string_view(canonical));
  t1 = Clock::now();
  spans->Add("plan.fingerprint", op, root, t0, t1,
             {{"canonical_bytes", static_cast<double>(canonical.size())},
              {"fingerprint_low_bits",
               static_cast<double>(fingerprint & 0xffff)}});
  const double fingerprint_us = Us(t1 - t0);

  t0 = Clock::now();
  sdw::plan::Planner planner(cluster->catalog(), options.planner);
  SDW_ASSIGN_OR_RETURN(sdw::plan::PhysicalQuery physical, planner.Plan(query));
  t1 = Clock::now();
  spans->Add("plan.plan", op, root, t0, t1);
  const double plan_us = Us(t1 - t0);

  std::vector<std::string> tables{query.from_table};
  if (query.join_table.has_value()) tables.push_back(*query.join_table);
  auto snapshot = std::make_shared<sdw::cluster::ReadSnapshot>();
  t0 = Clock::now();
  SDW_RETURN_IF_ERROR(cluster->PinTables(tables, snapshot.get()));
  t1 = Clock::now();
  spans->Add("cluster.pin_tables", op, root, t0, t1);
  const double pin_us = Us(t1 - t0);

  sdw::cluster::ExecOptions exec_options = options.exec;
  exec_options.snapshot = snapshot;
  const CounterValues before = ReadCounters();
  t0 = Clock::now();
  SDW_ASSIGN_OR_RETURN(sdw::cluster::QueryResult pooled,
                       sdw::cluster::QueryExecutor(cluster, exec_options)
                           .Execute(physical));
  t1 = Clock::now();
  const CounterValues after = ReadCounters();
  std::vector<double> pooled_ms = {Ms(t1 - t0)};
  for (int i = 1; i < kRepeats; ++i) {
    const auto start = Clock::now();
    SDW_RETURN_IF_ERROR(sdw::cluster::QueryExecutor(cluster, exec_options)
                            .Execute(physical)
                            .status());
    pooled_ms.push_back(Ms(Clock::now() - start));
  }
  const sdw::cluster::ExecStats& stats = pooled.stats;
  double scanned = 0, out_of_scans = 0, blocks_read = 0, blocks_skipped = 0,
         bytes_decoded = 0;
  for (const auto& scan : stats.scans) {
    scanned += static_cast<double>(scan.rows_scanned);
    out_of_scans += static_cast<double>(scan.rows_out);
    blocks_read += static_cast<double>(scan.blocks_read);
    blocks_skipped += static_cast<double>(scan.blocks_skipped);
    bytes_decoded += static_cast<double>(scan.bytes_decoded);
  }
  const double block_reads = after[kBlockReads] - before[kBlockReads];
  const double read_bytes = after[kReadBytes] - before[kReadBytes];
  const double decoded = after[kBlocksDecoded] - before[kBlocksDecoded];
  spans->Add("cluster.query_executor.pooled", op, root, t0, t1,
             {{"rows_scanned", scanned},
              {"rows_out_of_scans", out_of_scans},
              {"blocks_read", blocks_read},
              {"blocks_skipped", blocks_skipped},
              {"bytes_decoded", bytes_decoded},
              {"network_bytes", static_cast<double>(stats.network_bytes)},
              {"storage_block_reads", block_reads},
              {"storage_read_bytes", read_bytes},
              {"storage_blocks_decoded", decoded},
              {"pool_tasks", after[kPoolTasks] - before[kPoolTasks]}});

  exec_options.pool_size = 0;
  t0 = Clock::now();
  SDW_RETURN_IF_ERROR(sdw::cluster::QueryExecutor(cluster, exec_options)
                          .Execute(physical)
                          .status());
  t1 = Clock::now();
  spans->Add("cluster.query_executor.serial", op, root, t0, t1);
  const double serial_ms = Ms(t1 - t0);

  double fetch_ns = 0, fetch_blocks = 0, range_ns = 0, range_rows = 0;
  t0 = Clock::now();
  ProbeScan(cluster, *snapshot, physical.scan, probe, &fetch_ns, &fetch_blocks,
            &range_ns, &range_rows);
  if (physical.join.has_value()) {
    ProbeScan(cluster, *snapshot, physical.join->build, probe, &fetch_ns,
              &fetch_blocks, &range_ns, &range_rows);
  }
  t1 = Clock::now();
  spans->Add("storage.blocks", op, root, t0, t1,
             {{"blocks_fetched", fetch_blocks}, {"range_rows", range_rows}});
  spans->Add("probe", op, 0, op_start, Clock::now(),
             {{"shape", static_cast<double>(shape)}}, root);

  const double per_row = std::max(scanned, 1.0);
  const double slices = static_cast<double>(stats.slice_seconds.size());
  std::map<std::string, double> v;
  v["warehouse.front_door_ms"] =
      hit ? Median(execute_ms) - (parse_us + fingerprint_us) / 1000
          : Median(execute_ms) - Median(pooled_ms) -
                (parse_us + plan_us) / 1000;
  v["cluster.pool_speedup"] = Ratio(serial_ms, Median(pooled_ms));
  v["cluster.slice_cpu_ns_per_row"] = stats.TotalSliceSeconds() * 1e9 / per_row;
  v["cluster.slice_skew"] =
      Ratio(stats.MaxSliceSeconds(), Ratio(stats.TotalSliceSeconds(), slices));
  v["cluster.leader_ms"] = stats.leader_seconds * 1000;
  v["cluster.network_bytes_per_row"] =
      static_cast<double>(stats.network_bytes) / per_row;
  v["exec.rows_scanned_per_row_out"] =
      scanned / std::max(static_cast<double>(stats.result_rows), 1.0);
  v["exec.blocks_skipped_ratio"] =
      Ratio(blocks_skipped, blocks_read + blocks_skipped);
  v["exec.bytes_decoded_per_row"] = bytes_decoded / per_row;
  v["storage.block_reads_per_query"] = block_reads;
  v["storage.read_bytes_per_row"] = read_bytes / per_row;
  v["storage.decode_cache_hit_rate"] =
      blocks_read > 0 ? 1 - decoded / blocks_read : 0;
  v["storage.fetch_ns_per_block"] = Ratio(fetch_ns, fetch_blocks);
  v["storage.read_range_ns_per_row"] = Ratio(range_ns, range_rows);
  probe->queries.emplace_back(shape, std::move(v));
  probe->parse_us.push_back(parse_us);
  probe->plan_us.push_back(plan_us);
  probe->fingerprint_us.push_back(fingerprint_us);
  probe->pin_us.push_back(pin_us);
  return Status::OK();
}

/// Times EncodeColumn on a table's loaded columns (re-encoding decoded
/// blocks with their chosen encoding) and reads stored bytes per row
/// from the chain metadata.
Result<double> ProbeTable(Warehouse* warehouse, const std::string& table,
                          SpanLog* spans, LayerProbe* probe) {
  sdw::cluster::Cluster* cluster = warehouse->data_plane();
  sdw::cluster::ReadSnapshot snapshot;
  SDW_RETURN_IF_ERROR(cluster->PinTables({table}, &snapshot));
  const uint64_t op = NewOp();
  double stored = 0, rows = 0;
  const auto start = Clock::now();
  for (int slice = 0; slice < cluster->total_slices(); ++slice) {
    const sdw::storage::ShardRef* ref = snapshot.Find(table, slice);
    if (ref == nullptr) continue;
    const sdw::storage::ShardVersion& version = *ref->version;
    stored += static_cast<double>(version.encoded_bytes);
    rows += static_cast<double>(version.row_count);
    if (slice != 0) continue;
    sdw::storage::BlockStore* store = cluster->NodeOfSlice(slice)->store();
    for (size_t column = 0; column < version.chains.size(); ++column) {
      const sdw::TypeId type = ref->shard->schema().column(column).type;
      const auto& chain = version.chains[column];
      for (size_t b = 0; b < chain.size() && b < 8; ++b) {
        SDW_ASSIGN_OR_RETURN(sdw::Bytes bytes, store->Get(chain[b].id));
        SDW_ASSIGN_OR_RETURN(
            sdw::ColumnVector values,
            sdw::compress::DecodeColumn(chain[b].encoding, type, bytes));
        sdw::Bytes encoded;
        auto t0 = Clock::now();
        SDW_RETURN_IF_ERROR(
            sdw::compress::EncodeColumn(chain[b].encoding, values, &encoded));
        probe->encode_ns += Ns(Clock::now() - t0);
        probe->encode_rows += static_cast<double>(values.size());
      }
    }
  }
  spans->Add("compress.table", op, 0, start, Clock::now(),
             {{"stored_bytes", stored}, {"rows", rows}});
  return Ratio(stored, rows);
}

/// Times load::ParseCsv on staged fixtures and Cluster::InsertRows of
/// the parsed columns into a scratch cluster with the same schema.
Status ProbeLoad(Warehouse* warehouse, const WarehouseOptions& options,
                 const std::string& table,
                 const std::vector<std::string>& files, SpanLog* spans,
                 Run* run) {
  SDW_ASSIGN_OR_RETURN(sdw::TableSchema schema,
                       warehouse->data_plane()->catalog()->GetTable(table));
  sdw::cluster::Cluster scratch(options.cluster);
  SDW_RETURN_IF_ERROR(scratch.CreateTable(schema));
  const uint64_t op = NewOp();
  double parse_ns = 0, insert_ns = 0, rows = 0;
  for (const std::string& file : files) {
    auto t0 = Clock::now();
    SDW_ASSIGN_OR_RETURN(std::vector<sdw::ColumnVector> columns,
                         sdw::load::ParseCsv(file, schema));
    auto t1 = Clock::now();
    SDW_RETURN_IF_ERROR(scratch.InsertRows(table, columns));
    auto t2 = Clock::now();
    const double n = columns.empty() ? 0 : static_cast<double>(columns[0].size());
    spans->Add("load.parse_csv", op, 0, t0, t1, {{"rows", n}});
    spans->Add("cluster.insert_rows", op, 0, t1, t2, {{"rows", n}});
    parse_ns += Ns(t1 - t0);
    insert_ns += Ns(t2 - t1);
    rows += n;
  }
  run->metrics.Add("load.parse_ns_per_row", Ratio(parse_ns, rows),
                   files.size());
  run->metrics.Add("cluster.insert_ns_per_row", Ratio(insert_ns, rows),
                   files.size());
  return Status::OK();
}

/// Times CommitLog::Append of `statement` records on a scratch store.
void ProbeCommitLog(const std::string& statement, SpanLog* spans, Run* run) {
  sdw::backup::S3 s3;
  sdw::durability::CommitLog log(&s3, kRegion, "whbench-probe");
  std::vector<double> append_us;
  const uint64_t op = NewOp();
  for (int i = 0; i < 64; ++i) {
    sdw::durability::LogRecord record;
    record.statements = {statement};
    auto t0 = Clock::now();
    const bool ok = log.Append(std::move(record)).ok();
    auto t1 = Clock::now();
    if (!ok) continue;
    spans->Add("durability.append", op, 0, t0, t1);
    append_us.push_back(Us(t1 - t0));
  }
  run->metrics.Add("durability.append_us", Median(append_us),
                   append_us.size());
}

/// Result-cache hit latency on the 1K-row `dim` table, for workloads
/// whose own warehouse runs with the result cache off.
Result<std::vector<double>> ProbeCacheHits(const TableLoad& dim) {
  Warehouse warehouse(BenchOptions(true, true));
  SDW_RETURN_IF_ERROR(
      StageFiles(&warehouse, "s3://bench/hitprobe/", dim.make_files()));
  Warehouse::Session session = warehouse.CreateSession();
  SDW_RETURN_IF_ERROR(session.Execute(dim.ddl).status());
  SDW_ASSIGN_OR_RETURN(std::string copy, CopySql("dim", "s3://bench/hitprobe/"));
  SDW_RETURN_IF_ERROR(ExecuteCopy(&session, copy, dim.rows).status());
  const std::string sql = "SELECT cat, COUNT(*) FROM dim GROUP BY cat ORDER BY cat";
  std::vector<double> hits;
  for (int i = 0; i < 201; ++i) {
    auto t0 = Clock::now();
    SDW_ASSIGN_OR_RETURN(StatementResult r, session.Execute(sql));
    if (r.from_result_cache) hits.push_back(Us(Clock::now() - t0));
  }
  return hits;
}

/// Polls the admission controller's report ring while a loop runs, so
/// queue waits of every admitted statement are seen despite the ring
/// being bounded.
class WlmPoller {
 public:
  WlmPoller(Warehouse* warehouse, bool on) : warehouse_(warehouse) {
    if (on) thread_ = std::thread([this] { Loop(); });
  }
  WlmPoller(const WlmPoller&) = delete;
  WlmPoller& operator=(const WlmPoller&) = delete;
  ~WlmPoller() { Stop(); }

  /// Stops polling (after one final poll) and returns the queue waits.
  std::vector<double> Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      Poll();
    }
    return queued_ms_;
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      Poll();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  void Poll() {
    for (const auto& report : warehouse_->wlm()->reports()) {
      if (report.seq <= last_seq_) continue;
      last_seq_ = report.seq;
      if (report.queue != "none") queued_ms_.push_back(report.queued_seconds * 1000);
    }
  }

  Warehouse* warehouse_;
  std::atomic<bool> stop_{false};
  uint64_t last_seq_ = 0;
  std::vector<double> queued_ms_;
  std::thread thread_;
};

/// Everything a traced run reports besides the probes themselves.
struct LoopTrace {
  std::vector<Sample> samples;
  /// Registry counter deltas summed over the loop's rounds.
  CounterValues delta{};
  std::vector<double> queued_ms;
  uint64_t statements = 0;
};

/// Emits the per-layer metrics of a traced run. `main` and `dim` are
/// the set-up loads of the workload's two tables.
Status AddLayerMetrics(Run* run, Warehouse* warehouse,
                       const WarehouseOptions& options,
                       const std::vector<std::pair<Shape, std::string>>& probes,
                       const TableLoad& main, const TableLoad& dim,
                       const LoopTrace& loop) {
  Metrics& m = run->metrics;
  SpanLog* spans = &run->spans;
  LayerProbe measured;
  LayerProbe* probe = &measured;
  Warehouse::Session session = warehouse->CreateSession();
  for (const auto& [shape, sql] : probes) {
    SDW_RETURN_IF_ERROR(
        ProbeSelect(warehouse, &session, options, shape, sql, spans, probe));
  }
  for (const MetricDef& def : PerQueryMetrics()) {
    std::vector<double> all;
    std::vector<double> by_shape[kBaseShapes];
    for (const auto& [shape, values] : probe->queries) {
      const double v = values.at(def.name);
      all.push_back(v);
      if (static_cast<int>(shape) < kBaseShapes) {
        by_shape[static_cast<int>(shape)].push_back(v);
      }
    }
    m.Add(def.name, Median(all), all.size());
    for (int i = 0; i < kBaseShapes; ++i) {
      m.Add(def.name + "." + BaseShape(i), Median(by_shape[i]),
            by_shape[i].size());
    }
  }
  m.Add("sql.parse_us", Median(probe->parse_us), probe->parse_us.size());
  m.Add("plan.plan_us", Median(probe->plan_us), probe->plan_us.size());
  m.Add("plan.fingerprint_us", Median(probe->fingerprint_us),
        probe->fingerprint_us.size());
  m.Add("cluster.pin_us", Median(probe->pin_us), probe->pin_us.size());

  SDW_ASSIGN_OR_RETURN(double main_bytes,
                       ProbeTable(warehouse, main.table, spans, probe));
  SDW_ASSIGN_OR_RETURN(double dim_bytes,
                       ProbeTable(warehouse, "dim", spans, probe));
  m.Add("compress.stored_bytes_per_row.main", main_bytes);
  m.Add("compress.stored_bytes_per_row.dim", dim_bytes);
  m.Add("compress.decode_ns_per_row.int64",
        Ratio(probe->decode_ns[0], probe->decode_rows[0]));
  m.Add("compress.decode_ns_per_row.varchar",
        Ratio(probe->decode_ns[1], probe->decode_rows[1]));
  m.Add("compress.encode_ns_per_row",
        Ratio(probe->encode_ns, probe->encode_rows));

  SDW_RETURN_IF_ERROR(
      ProbeLoad(warehouse, options, main.table, main.make_files(), spans, run));
  std::vector<double> analyze_ms;
  for (int i = 0; i < 3; ++i) {
    auto t0 = Clock::now();
    SDW_RETURN_IF_ERROR(warehouse->data_plane()->Analyze(main.table));
    auto t1 = Clock::now();
    spans->Add("cluster.analyze", NewOp(), 0, t0, t1);
    analyze_ms.push_back(Ms(t1 - t0));
  }
  m.Add("cluster.analyze_ms", Median(analyze_ms), analyze_ms.size());
  SDW_ASSIGN_OR_RETURN(std::string copy, CopySql(main.table, main.prefix));
  ProbeCommitLog(copy, spans, run);

  const CounterValues now = ReadCounters();
  const CounterValues& d0 = run->start_counters;
  m.Add("durability.log_bytes_per_commit",
        Ratio(now[kLogBytes] - d0[kLogBytes], now[kLogAppends] - d0[kLogAppends]));
  const auto delta = [&](CounterId id) { return loop.delta[id]; };
  m.Add("warehouse.result_cache_hit_rate",
        Ratio(delta(kResultHits), delta(kResultHits) + delta(kResultMisses)));
  m.Add("warehouse.segment_cache_hit_rate",
        Ratio(delta(kSegmentHits), delta(kSegmentHits) + delta(kSegmentMisses)));
  m.Add("common.pool_tasks_per_query",
        Ratio(delta(kPoolTasks), static_cast<double>(loop.statements)));

  // Tracing overhead compares the loop's coin-flipped traced and
  // untraced statements like for like: per shape and cache outcome, the
  // ratio of their median wall times, then the median of those ratios.
  // The WLM poller thread runs beside both halves, so its cost is not
  // part of this figure.
  std::vector<double> hits, lag;
  std::map<int, std::vector<double>> traced, untraced;
  for (const Sample& s : loop.samples) {
    if (s.hit) hits.push_back(s.ms * 1000);
    lag.push_back(s.lag_ms);
    const int kind = static_cast<int>(s.shape) * 2 + (s.hit ? 1 : 0);
    (s.traced ? traced : untraced)[kind].push_back(s.wall_ms);
  }
  std::vector<double> overhead;
  for (const auto& [kind, wall_ms] : traced) {
    auto other = untraced.find(kind);
    if (other != untraced.end()) {
      overhead.push_back(Ratio(Median(wall_ms), Median(other->second)) - 1);
    }
  }
  if (hits.empty()) {
    SDW_ASSIGN_OR_RETURN(hits, ProbeCacheHits(dim));
  }
  m.Add("warehouse.hit_us", Median(hits), hits.size());
  m.Add("bench.generator_lag_p99_ms", Quantile(lag, 0.99), lag.size());
  m.Add("bench.trace_overhead", Median(overhead), overhead.size());
  m.Add("cluster.queue_ms_p99", Quantile(loop.queued_ms, 0.99),
        loop.queued_ms.size());
  m.Add("cluster.max_in_flight", warehouse->wlm()->max_in_flight());
  m.Add("cluster.pending_garbage",
        static_cast<double>(warehouse->data_plane()->PendingGarbage()));
  return Status::OK();
}

// ------------------------------------------------------------ closed loop

/// An independent seed per input stream (rows, literals), so one
/// stream's size never shifts another's values.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed * 1000003 + stream).Next();
}

/// Runs `threads` sessions in a closed loop for `seconds`: each sends
/// its next statement when the previous one has returned. `next` picks
/// the next statement's index, drawing from the session's generator;
/// `round` gives each of a run's loops its own draws. Peak RSS is taken when the run's
/// loops have completed `rss_after` statements, so that a faster engine,
/// which logs more statements in the same time, does not read as one
/// that uses more memory.
std::vector<Sample> ClosedLoop(
    Run* run, Warehouse* warehouse, int threads, int round, double seconds,
    const std::vector<Statement>& pool,
    const std::function<uint32_t(Rng*)>& next, uint64_t rss_after,
    double* elapsed_s) {
  std::vector<std::vector<Sample>> per_thread(threads);
  std::vector<SpanLog> spans(threads, SpanLog(run->epoch));
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const uint64_t stream = 1000 + 2 * static_cast<uint64_t>(round * threads + t);
      Rng rng(SubSeed(run->args.seed, stream));
      Rng coin(SubSeed(run->args.seed, stream + 1));
      Warehouse::Session session = warehouse->CreateSession();
      auto last_return = Clock::now();
      while (Clock::now() < deadline) {
        Sample s;
        s.stmt = next(&rng);
        s.shape = pool[s.stmt].query.shape;
        s.traced = run->args.trace && coin.Uniform(2) == 1;
        const auto send = Clock::now();
        s.lag_ms = Ms(send - last_return);
        last_return =
            RunSelect(&session, pool[s.stmt], send, &s, &spans[t], &run->errors);
        if (run->completed.fetch_add(1) + 1 == rss_after) {
          run->peak_rss_mb.store(PeakRssMb());
        }
        per_thread[t].push_back(s);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  *elapsed_s = Seconds(Clock::now() - start);
  std::vector<Sample> samples;
  for (int t = 0; t < threads; ++t) {
    samples.insert(samples.end(), per_thread[t].begin(), per_thread[t].end());
    run->spans.Absorb(&spans[t]);
  }
  return samples;
}

// ------------------------------------------------------------ workloads

std::vector<std::pair<Shape, std::string>> ProbeList(
    const std::vector<Statement>& pool, int per_shape) {
  std::vector<std::pair<Shape, std::string>> out;
  for (int shape = 0; shape < kBaseShapes; ++shape) {
    int taken = 0;
    for (const Statement& s : pool) {
      if (static_cast<int>(s.query.shape) != shape) continue;
      if (taken++ == per_shape) break;
      out.emplace_back(s.query.shape, s.sql);
    }
  }
  return out;
}

/// A workload's inputs: its statements, the oracle's answer to each,
/// and the loads of its two tables. The generated rows are dropped once
/// the answers are known; set-up regenerates the fixtures from the seed.
struct Inputs {
  std::vector<Statement> pool;
  std::vector<uint64_t> expected;  // oracle answer hash per pool statement
  std::vector<TableLoad> loads;    // the fact-shaped main table, then dim
};

Inputs MakeInputs(const std::string& table, size_t rows, uint64_t rows_seed,
                  uint64_t dim_seed, const std::vector<Query>& queries) {
  Inputs in;
  in.pool = MakeStatements(queries, table);
  const FactRows fact = GenerateFact(rows_seed, rows);
  const DimRows dim = GenerateDim(dim_seed);
  in.expected.reserve(in.pool.size());
  for (const Statement& s : in.pool) {
    in.expected.push_back(AnswerHash(OracleAnswer(s.query, fact, dim)));
  }
  in.loads = {{FactDdl(table), table, "s3://bench/" + table + "/",
               [=] { return FactCsv(GenerateFact(rows_seed, rows), 4); }, rows},
              {DimDdl(), "dim", "s3://bench/dim/",
               [=] { return std::vector<std::string>{DimCsv(GenerateDim(dim_seed))}; },
               kDimRows}};
  return in;
}

/// What a workload's rounds measured. `warehouse` is the last round's.
struct Measured {
  std::unique_ptr<Warehouse> warehouse;
  SetupStats setup;
  LoopTrace loop;
  /// Per round: where its statements end in loop.samples, and its loop
  /// time in seconds.
  std::vector<size_t> round_end;
  std::vector<double> round_s;
};

/// Runs `rounds` rounds. Each sets the warehouse up afresh and then
/// runs `sessions` in a closed loop on it for 1/rounds of the run's
/// seconds, so the set-up samples are spread over the whole run like
/// the loop's statements. The machine's speed drifts over tens of
/// seconds; set-ups made back to back before the loop would all sample
/// the same few seconds of it. Checks every answer. `rss_after` should
/// fall in the first round: a later read would also hold the peak of an
/// earlier round's warehouse, whose statement log grows with that
/// round's throughput.
Result<Measured> MeasureRounds(
    Run* run, const WarehouseOptions& options, const Inputs& in,
    const std::vector<std::string>& warmup, int rounds, int sessions,
    const std::function<uint32_t(Rng*)>& next, uint64_t rss_after) {
  Measured m;
  for (int r = 0; r < rounds; ++r) {
    m.warehouse.reset();
    SDW_ASSIGN_OR_RETURN(m.warehouse,
                         SetUp(run, options, in.loads, warmup, &m.setup));
    const CounterValues before = ReadCounters();
    WlmPoller poller(m.warehouse.get(), run->args.trace);
    double elapsed = 0;
    std::vector<Sample> samples =
        ClosedLoop(run, m.warehouse.get(), sessions, r, run->args.seconds / rounds,
                   in.pool, next, rss_after, &elapsed);
    const std::vector<double> queued = poller.Stop();
    const CounterValues after = ReadCounters();
    for (int i = 0; i < kNumCounters; ++i) m.loop.delta[i] += after[i] - before[i];
    m.loop.queued_ms.insert(m.loop.queued_ms.end(), queued.begin(), queued.end());
    m.loop.samples.insert(m.loop.samples.end(), samples.begin(), samples.end());
    m.round_end.push_back(m.loop.samples.size());
    m.round_s.push_back(elapsed);
  }
  m.loop.statements = m.loop.samples.size();
  run->attempted += m.loop.samples.size();
  CheckAnswers(m.loop.samples, in.pool, in.expected, &run->errors);
  return m;
}

/// The end-to-end metrics of an untraced run, but for success_rate and
/// peak_rss_mb, which Main adds.
void AddEndToEndMetrics(const Measured& m, Run* run) {
  AddSetupMetrics(m.setup, run);
  AddSelectMetrics(m.loop.samples, m.round_end, m.round_s, run);
  run->metrics.Add("stored_bytes_per_input_byte",
                   Ratio(static_cast<double>(
                             m.warehouse->data_plane()->TotalStoredBytes()),
                         static_cast<double>(m.setup.input_bytes)));
}

/// Ad-hoc analytics: one session, caches off, a 1M-row fact table in
/// 16K-row blocks (80 blocks per slice, more than the 64-entry decode
/// cache), round-robin over the six baseline shapes.
Status RunScan(Run* run) {
  constexpr size_t kRows = 1'000'000;
  // setup_s and copy_rows_per_s are medians over the rounds' set-ups.
  constexpr int kRounds = 7;
  const uint64_t seed = run->args.seed;
  std::vector<Query> queries;
  Rng rng(SubSeed(seed, 3));
  for (int i = 0; i < 1200; ++i) {
    queries.push_back(RandomQuery(static_cast<Shape>(i % kBaseShapes), kRows,
                                  &rng, /*plain_count=*/true));
  }
  const Inputs in = MakeInputs("fact", kRows, SubSeed(seed, 1),
                               SubSeed(seed, 2), queries);
  const std::vector<Statement>& pool = in.pool;
  const WarehouseOptions options = BenchOptions(false, false);

  // One session, so the rounds continue one round-robin over the pool.
  uint64_t issued = 0;
  SDW_ASSIGN_OR_RETURN(
      const Measured m,
      MeasureRounds(run, options, in, {}, run->args.trace ? 1 : kRounds, 1,
                    [&](Rng*) {
                      return static_cast<uint32_t>(issued++ % pool.size());
                    },
                    // About 450 statements make a round, under 300 in a
                    // slow spell of the machine.
                    /*rss_after=*/100));
  if (run->args.trace) {
    return AddLayerMetrics(run, m.warehouse.get(), options, ProbeList(pool, 3),
                           in.loads[0], in.loads[1], m.loop);
  }
  AddEndToEndMetrics(m, run);
  return Status::OK();
}

/// Zipf(s) over n ranks as a cumulative table.
std::vector<double> ZipfCdf(int n, double s) {
  std::vector<double> cdf(static_cast<size_t>(n));
  double total = 0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// Many users repeating a few queries: three sessions, caches on, a 64K
/// row table that fits every cache, Zipf(0.9) over 24 templates with
/// 10% fresh-literal statements.
Status RunDashboard(Run* run) {
  // Three, not four: on 4 cores the misses' slice tasks queue on the
  // shared pool, and in runs interleaved with three a fourth session
  // made select_p99_ms and select_qps swing about twice as much from
  // run to run (see STEADINESS.md).
  constexpr int kSessions = 3;
  // setup_s and copy_rows_per_s are medians over the rounds' set-ups.
  // One 64K-row COPY can take 70% longer than another of the same run,
  // so the median needs more of them than scan's.
  constexpr int kRounds = 30;
  constexpr size_t kRows = 65536;
  constexpr int kTemplates = 24;
  constexpr int kFreshPerShape = 1000;
  const uint64_t seed = run->args.seed;
  // Templates and fresh statements are pairwise distinct, so a fresh
  // statement misses the result cache unless it was drawn recently.
  std::vector<Query> queries;
  std::unordered_set<std::string> seen;
  Rng rng(SubSeed(seed, 13));
  const auto add_distinct = [&](Shape shape) {
    for (;;) {
      Query q = RandomQuery(shape, kRows, &rng, /*plain_count=*/false);
      if (!seen.insert(QuerySql(q, "sales")).second) continue;
      queries.push_back(q);
      return;
    }
  };
  for (int t = 0; t < kTemplates; ++t) add_distinct(static_cast<Shape>(t % kBaseShapes));
  for (int i = 0; i < kFreshPerShape * kBaseShapes; ++i) {
    add_distinct(static_cast<Shape>(i % kBaseShapes));
  }
  const Inputs in = MakeInputs("sales", kRows, SubSeed(seed, 11),
                               SubSeed(seed, 12), queries);
  const std::vector<Statement>& pool = in.pool;
  std::vector<std::string> warmup;
  for (int t = 0; t < kTemplates; ++t) warmup.push_back(pool[t].sql);
  const WarehouseOptions options = BenchOptions(true, true);

  const std::vector<double> zipf = ZipfCdf(kTemplates, 0.9);
  const uint32_t fresh = static_cast<uint32_t>(pool.size() - kTemplates);
  SDW_ASSIGN_OR_RETURN(
      const Measured m,
      MeasureRounds(run, options, in, warmup, run->args.trace ? 1 : kRounds,
                    kSessions,
                    [&](Rng* r) -> uint32_t {
                      if (r->Double() < 0.1) {
                        return kTemplates + static_cast<uint32_t>(r->Uniform(fresh));
                      }
                      const double u = r->Double();
                      return static_cast<uint32_t>(
                          std::lower_bound(zipf.begin(), zipf.end(), u) -
                          zipf.begin());
                    },
                    // About 15000 statements make a round, about 10000
                    // in a slow spell of the machine.
                    /*rss_after=*/5000));
  if (run->args.trace) {
    std::vector<std::pair<Shape, std::string>> probes;
    for (int t = 0; t < kTemplates; ++t) {
      probes.emplace_back(pool[t].query.shape, pool[t].sql);
    }
    for (int i = 0; i < kBaseShapes; ++i) {
      probes.emplace_back(pool[kTemplates + i].query.shape,
                          pool[kTemplates + i].sql);
    }
    return AddLayerMetrics(run, m.warehouse.get(), options, probes, in.loads[0],
                           in.loads[1], m.loop);
  }
  AddEndToEndMetrics(m, run);
  return Status::OK();
}

// ------------------------------------------------------------ main

void PrintDefs(const char* key, const std::vector<MetricDef>& defs, bool last) {
  std::printf("  \"%s\": [\n", key);
  for (size_t i = 0; i < defs.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\"}%s\n",
                defs[i].name.c_str(), defs[i].unit.c_str(),
                i + 1 < defs.size() ? "," : "");
  }
  std::printf("  ]%s\n", last ? "" : ",");
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: whbench --workload scan|dashboard "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n"
               "       whbench --list-metrics\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      std::printf("{\n");
      PrintDefs("end_to_end", EndToEndMetrics(), false);
      PrintDefs("per_layer", PerLayerMetrics(), true);
      std::printf("}\n");
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  Run run(args);
  Status status;
  if (args.workload == "scan") {
    status = RunScan(&run);
  } else if (args.workload == "dashboard") {
    status = RunDashboard(&run);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n", status.ToString().c_str());
    return 1;
  }
  run.errors.Print();
  const uint64_t failed = run.errors.count();
  if (!args.trace) {
    run.metrics.Add("success_rate",
                    1.0 - Ratio(static_cast<double>(failed),
                                static_cast<double>(run.attempted)),
                    run.attempted);
    const double rss = run.peak_rss_mb.load();
    run.metrics.Add("peak_rss_mb", rss > 0 ? rss : PeakRssMb());
  }
  std::printf("workload %s seed %llu: %llu attempted, %llu failed or wrong\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(failed));
  Result<std::string> metrics =
      run.metrics.Emit(args.trace ? PerLayerMetrics() : EndToEndMetrics());
  if (!metrics.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }
  if (args.trace && !args.spans_path.empty()) {
    Status written = run.spans.Write(args.spans_path, args.workload, args.seed);
    if (!written.ok()) {
      std::fprintf(stderr, "benchmark failed: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", run.spans.size(),
                args.spans_path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(failed), metrics->c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace whbench

int main(int argc, char** argv) { return whbench::Main(argc, argv); }
