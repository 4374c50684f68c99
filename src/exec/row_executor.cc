#include "exec/row_executor.h"

#include <map>
#include <memory>
#include <utility>

#include "exec/hll.h"
#include "obs/trace.h"

namespace sdw::exec {

namespace {

class RowScanOp : public RowOperator {
 public:
  RowScanOp(storage::ShardRef ref, std::vector<int> columns)
      : ref_(std::move(ref)), columns_(std::move(columns)) {
    // A full scan needs every block of each projected chain; the query
    // ledger counts them once, into the span of the slice building it.
    if (obs::SpanCounters* span = obs::CurrentSpanCounters()) {
      for (int c : columns_) {
        if (c >= 0 && static_cast<size_t>(c) < ref_.version->chains.size()) {
          span->blocks_decoded += ref_.version->chains[c].size();
        }
      }
    }
  }

  Result<std::optional<Row>> Next() override {
    if (row_in_batch_ >= batch_.num_rows()) {
      const uint64_t rows = ref_.version->row_count;
      if (next_row_ >= rows) return std::optional<Row>();
      const uint64_t end = std::min<uint64_t>(rows, next_row_ + 4096);
      // With no column projected, the batch is only its row count.
      batch_.rows = end - next_row_;
      if (!columns_.empty()) {
        SDW_ASSIGN_OR_RETURN(
            batch_.columns,
            ref_.shard->ReadRange(*ref_.version, columns_, {next_row_, end}));
      }
      next_row_ = end;
      row_in_batch_ = 0;
    }
    return std::optional<Row>(batch_.RowAt(row_in_batch_++));
  }

 private:
  storage::ShardRef ref_;
  std::vector<int> columns_;
  Batch batch_;
  uint64_t next_row_ = 0;
  size_t row_in_batch_ = 0;
};

class RowFilterOp : public RowOperator {
 public:
  RowFilterOp(RowOperatorPtr input, ExprPtr predicate)
      : input_(std::move(input)), predicate_(std::move(predicate)) {}

  Result<std::optional<Row>> Next() override {
    while (true) {
      SDW_ASSIGN_OR_RETURN(std::optional<Row> row, input_->Next());
      if (!row.has_value()) return std::optional<Row>();
      SDW_ASSIGN_OR_RETURN(Datum keep, predicate_->EvalRow(*row));
      if (!keep.is_null() && keep.int_value() != 0) return row;
    }
  }

 private:
  RowOperatorPtr input_;
  ExprPtr predicate_;
};

class RowProjectOp : public RowOperator {
 public:
  RowProjectOp(RowOperatorPtr input, std::vector<ExprPtr> exprs)
      : input_(std::move(input)), exprs_(std::move(exprs)) {}

  Result<std::optional<Row>> Next() override {
    SDW_ASSIGN_OR_RETURN(std::optional<Row> row, input_->Next());
    if (!row.has_value()) return std::optional<Row>();
    Row out;
    out.reserve(exprs_.size());
    for (const auto& e : exprs_) {
      SDW_ASSIGN_OR_RETURN(Datum v, e->EvalRow(*row));
      out.push_back(std::move(v));
    }
    return std::optional<Row>(std::move(out));
  }

 private:
  RowOperatorPtr input_;
  std::vector<ExprPtr> exprs_;
};

class RowAggregateOp : public RowOperator {
 public:
  RowAggregateOp(RowOperatorPtr input, std::vector<int> group_by,
                 std::vector<AggSpec> aggs)
      : input_(std::move(input)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {}

  Result<std::optional<Row>> Next() override {
    if (!accumulated_) {
      SDW_RETURN_IF_ERROR(Accumulate());
      accumulated_ = true;
    }
    if (emit_index_ >= output_.size()) return std::optional<Row>();
    return std::optional<Row>(std::move(output_[emit_index_++]));
  }

 private:
  struct State {
    int64_t count = 0;
    double sum = 0;
    int64_t sum_int = 0;
    bool sum_is_double = false;
    bool has_value = false;
    Datum min;
    Datum max;
    std::unique_ptr<HyperLogLog> hll;
  };

  /// Orders group keys by value (Datum::Compare: NULLs first, -0.0 ==
  /// 0.0), so the output order is deterministic.
  struct KeyLess {
    bool operator()(const Row& a, const Row& b) const {
      for (size_t c = 0; c < a.size(); ++c) {
        const int cmp = a[c].Compare(b[c]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    }
  };

  Status Accumulate() {
    std::map<Row, std::vector<State>, KeyLess> groups;
    while (true) {
      SDW_ASSIGN_OR_RETURN(std::optional<Row> row, input_->Next());
      if (!row.has_value()) break;
      Row key;
      key.reserve(group_by_.size());
      for (int g : group_by_) key.push_back((*row)[g]);
      auto it = groups.find(key);
      if (it == groups.end()) {
        it = groups.emplace(std::move(key), std::vector<State>(aggs_.size()))
                 .first;
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        State& s = it->second[a];
        const AggSpec& spec = aggs_[a];
        if (spec.fn == AggFn::kCount) {
          if (spec.column < 0 || !(*row)[spec.column].is_null()) ++s.count;
          continue;
        }
        const Datum& v = (*row)[spec.column];
        if (v.is_null()) continue;
        switch (spec.fn) {
          case AggFn::kSum:
            if (v.type() == TypeId::kDouble) {
              s.sum += v.double_value();
              s.sum_is_double = true;
            } else if (__builtin_add_overflow(s.sum_int, v.int_value(),
                                              &s.sum_int)) {
              return Status::OutOfRange("integer SUM overflows BIGINT");
            }
            s.has_value = true;
            break;
          case AggFn::kMin:
          case AggFn::kMax:
            if (!s.has_value || v < s.min) s.min = v;
            if (!s.has_value || s.max < v) s.max = v;
            s.has_value = true;
            break;
          case AggFn::kApproxDistinct:
            if (!s.hll) s.hll = std::make_unique<HyperLogLog>();
            s.hll->Add(v.Hash());
            break;
          case AggFn::kCount:
            break;
        }
      }
    }
    if (group_by_.empty() && groups.empty()) {
      groups.emplace(Row{}, std::vector<State>(aggs_.size()));
    }
    for (auto& [key, states] : groups) {
      Row out = key;
      for (size_t a = 0; a < aggs_.size(); ++a) {
        const State& s = states[a];
        switch (aggs_[a].fn) {
          case AggFn::kCount:
            out.push_back(Datum::Int64(s.count));
            break;
          case AggFn::kSum:
            if (!s.has_value) {
              out.push_back(Datum::Null());
            } else if (s.sum_is_double) {
              out.push_back(Datum::Double(s.sum));
            } else {
              out.push_back(Datum::Int64(s.sum_int));
            }
            break;
          case AggFn::kMin:
            out.push_back(s.has_value ? s.min : Datum::Null());
            break;
          case AggFn::kMax:
            out.push_back(s.has_value ? s.max : Datum::Null());
            break;
          case AggFn::kApproxDistinct:
            out.push_back(Datum::Int64(
                s.hll ? static_cast<int64_t>(s.hll->Estimate()) : 0));
            break;
        }
      }
      output_.push_back(std::move(out));
    }
    return Status::OK();
  }

  RowOperatorPtr input_;
  std::vector<int> group_by_;
  std::vector<AggSpec> aggs_;
  bool accumulated_ = false;
  std::vector<Row> output_;
  size_t emit_index_ = 0;
};

}  // namespace

RowOperatorPtr RowScan(storage::ShardRef ref, std::vector<int> columns) {
  return std::make_unique<RowScanOp>(std::move(ref), std::move(columns));
}

RowOperatorPtr RowScan(storage::TableShard* shard, std::vector<int> columns) {
  storage::ShardRef ref;
  ref.shard = std::shared_ptr<storage::TableShard>(
      shard, [](storage::TableShard*) {});
  ref.version = shard->Snapshot();
  return RowScan(std::move(ref), std::move(columns));
}

RowOperatorPtr RowFilter(RowOperatorPtr input, ExprPtr predicate) {
  return std::make_unique<RowFilterOp>(std::move(input), std::move(predicate));
}

RowOperatorPtr RowProject(RowOperatorPtr input, std::vector<ExprPtr> exprs) {
  return std::make_unique<RowProjectOp>(std::move(input), std::move(exprs));
}

RowOperatorPtr RowAggregate(RowOperatorPtr input, std::vector<int> group_by,
                            std::vector<AggSpec> aggs) {
  return std::make_unique<RowAggregateOp>(std::move(input),
                                          std::move(group_by),
                                          std::move(aggs));
}

Result<Batch> CollectRows(RowOperator* op, const std::vector<TypeId>& types) {
  Batch out = MakeBatch(types);
  while (true) {
    SDW_ASSIGN_OR_RETURN(std::optional<Row> row, op->Next());
    if (!row.has_value()) break;
    if (row->size() != types.size()) {
      return Status::Internal("row width mismatch in CollectRows");
    }
    for (size_t c = 0; c < types.size(); ++c) {
      SDW_RETURN_IF_ERROR(out.columns[c].AppendDatum((*row)[c]));
    }
  }
  return out;
}

}  // namespace sdw::exec
