#include "exec/operators.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/profiler.h"
#include "obs/trace.h"

namespace sdw::exec {

Result<Batch> Collect(Operator* op) {
  Batch out = MakeBatch(op->OutputTypes());
  while (true) {
    SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, op->Next());
    if (!batch.has_value()) break;
    out.rows += batch->num_rows();
    for (size_t c = 0; c < out.columns.size(); ++c) {
      SDW_RETURN_IF_ERROR(out.columns[c].AppendRange(
          batch->columns[c], 0, batch->columns[c].size()));
    }
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// MemoryScan
// ---------------------------------------------------------------------------

class MemoryScanOp : public Operator {
 public:
  MemoryScanOp(std::vector<TypeId> types, std::vector<Batch> batches)
      : types_(std::move(types)), batches_(std::move(batches)) {}

  std::vector<TypeId> OutputTypes() const override { return types_; }

  Result<std::optional<Batch>> Next() override {
    if (next_ >= batches_.size()) return std::optional<Batch>();
    return std::optional<Batch>(std::move(batches_[next_++]));
  }

 private:
  std::vector<TypeId> types_;
  std::vector<Batch> batches_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// ShardScan
// ---------------------------------------------------------------------------

class ShardScanOp : public Operator {
 public:
  ShardScanOp(storage::ShardRef ref, std::vector<int> columns,
              std::vector<storage::RangePredicate> predicates,
              ScanOptions options)
      : ref_(std::move(ref)),
        columns_(std::move(columns)),
        options_(options),
        ranges_(ref_.shard->CandidateRanges(*ref_.version, predicates)) {
    const ScanTelemetry counts = StaticCounts();
    // The query's ledger counts the blocks this scan needs, once, into
    // the span of the slice that builds it.
    if (obs::SpanCounters* span = obs::CurrentSpanCounters()) {
      span->blocks_decoded += counts.blocks_read;
    }
    if (options_.telemetry != nullptr) {
      options_.telemetry->blocks_read += counts.blocks_read;
      options_.telemetry->blocks_skipped += counts.blocks_skipped;
      options_.telemetry->bytes_decoded += counts.bytes_decoded;
    }
  }

  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> types;
    types.reserve(columns_.size());
    for (int c : columns_) {
      types.push_back(ref_.shard->schema().column(c).type);
    }
    return types;
  }

  Result<std::optional<Batch>> Next() override {
    while (range_index_ < ranges_.size()) {
      const storage::RowRange& range = ranges_[range_index_];
      if (offset_ >= range.size()) {
        ++range_index_;
        offset_ = 0;
        continue;
      }
      // A scan that projects no column reads no block: each candidate
      // range becomes one batch of its row count, from chain metadata.
      const uint64_t begin = range.begin + offset_;
      const uint64_t end =
          columns_.empty()
              ? range.end
              : std::min<uint64_t>(range.end, begin + options_.batch_rows);
      offset_ += end - begin;
      Batch batch;
      if (columns_.empty()) {
        batch.rows = end - begin;
      } else {
        SDW_ASSIGN_OR_RETURN(
            batch.columns,
            ref_.shard->ReadRange(*ref_.version, columns_, {begin, end}));
      }
      if (options_.telemetry != nullptr) {
        options_.telemetry->rows_scanned += end - begin;
      }
      if (options_.progress != nullptr) {
        options_.progress->AddRowsScanned(end - begin);
      }
      return std::optional<Batch>(std::move(batch));
    }
    return std::optional<Batch>();
  }

 private:
  // Counts, per projected column chain, the blocks overlapping a
  // candidate range (they will be decoded) vs the rest (zone-map
  // skipped). Pure metadata walk over the immutable version — the same
  // numbers on every run, whatever the decode cache holds.
  ScanTelemetry StaticCounts() const {
    ScanTelemetry t;
    for (int c : columns_) {
      // A bad index fails in ReadRange; it needs no blocks.
      if (c < 0 || static_cast<size_t>(c) >= ref_.version->chains.size()) {
        continue;
      }
      const auto& chain = ref_.version->chains[c];
      size_t range_index = 0;
      for (const storage::BlockMeta& block : chain) {
        const uint64_t block_end = block.first_row + block.row_count;
        while (range_index < ranges_.size() &&
               ranges_[range_index].end <= block.first_row) {
          ++range_index;
        }
        const bool overlaps = range_index < ranges_.size() &&
                              ranges_[range_index].begin < block_end;
        if (overlaps) {
          t.blocks_read++;
          t.bytes_decoded += block.encoded_bytes;
        } else {
          t.blocks_skipped++;
        }
      }
    }
    return t;
  }

  storage::ShardRef ref_;
  std::vector<int> columns_;
  ScanOptions options_;
  std::vector<storage::RowRange> ranges_;
  size_t range_index_ = 0;
  uint64_t offset_ = 0;
};

// ---------------------------------------------------------------------------
// CountRows
// ---------------------------------------------------------------------------

class CountRowsOp : public Operator {
 public:
  CountRowsOp(OperatorPtr input, uint64_t* counter)
      : input_(std::move(input)), counter_(counter) {}

  std::vector<TypeId> OutputTypes() const override {
    return input_->OutputTypes();
  }

  Result<std::optional<Batch>> Next() override {
    SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->Next());
    if (batch.has_value()) *counter_ += batch->num_rows();
    return batch;
  }

 private:
  OperatorPtr input_;
  uint64_t* counter_;
};

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr input, ExprPtr predicate)
      : input_(std::move(input)), predicate_(std::move(predicate)) {}

  std::vector<TypeId> OutputTypes() const override {
    return input_->OutputTypes();
  }

  Result<std::optional<Batch>> Next() override {
    while (true) {
      SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->Next());
      if (!batch.has_value()) return std::optional<Batch>();
      SDW_ASSIGN_OR_RETURN(ColumnVector mask, predicate_->EvalBatch(*batch));
      // Selection-vector filtering: one index list, then lane-wise
      // copies (the compiled engine's tight inner loop).
      std::vector<uint32_t> selected;
      selected.reserve(mask.size());
      const auto& bits = mask.ints();
      if (mask.has_nulls()) {
        for (size_t i = 0; i < mask.size(); ++i) {
          if (!mask.IsNull(i) && bits[i] != 0) {
            selected.push_back(static_cast<uint32_t>(i));
          }
        }
      } else {
        for (size_t i = 0; i < bits.size(); ++i) {
          if (bits[i] != 0) selected.push_back(static_cast<uint32_t>(i));
        }
      }
      if (selected.size() == batch->num_rows()) {
        return batch;  // nothing filtered: pass the batch through
      }
      Batch out = MakeBatch(batch->Types());
      for (size_t c = 0; c < batch->columns.size(); ++c) {
        SDW_RETURN_IF_ERROR(
            out.columns[c].AppendSelected(batch->columns[c], selected));
      }
      if (out.num_rows() > 0) return std::optional<Batch>(std::move(out));
      // All rows filtered: pull the next batch rather than emitting
      // empties.
    }
  }

 private:
  OperatorPtr input_;
  ExprPtr predicate_;
};

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr input, std::vector<ExprPtr> exprs)
      : input_(std::move(input)), exprs_(std::move(exprs)) {}

  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> types;
    types.reserve(exprs_.size());
    for (const auto& e : exprs_) types.push_back(e->type());
    return types;
  }

  Result<std::optional<Batch>> Next() override {
    SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->Next());
    if (!batch.has_value()) return std::optional<Batch>();
    Batch out;
    out.columns.reserve(exprs_.size());
    for (const auto& e : exprs_) {
      SDW_ASSIGN_OR_RETURN(ColumnVector col, e->EvalBatch(*batch));
      out.columns.push_back(std::move(col));
    }
    return std::optional<Batch>(std::move(out));
  }

 private:
  OperatorPtr input_;
  std::vector<ExprPtr> exprs_;
};

// ---------------------------------------------------------------------------
// HashJoin
// ---------------------------------------------------------------------------

class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr probe, OperatorPtr build, std::vector<int> probe_keys,
             std::vector<int> build_keys)
      : probe_(std::move(probe)),
        build_(std::move(build)),
        probe_keys_(std::move(probe_keys)),
        build_keys_(std::move(build_keys)) {}

  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> types = probe_->OutputTypes();
    for (TypeId t : build_->OutputTypes()) types.push_back(t);
    return types;
  }

  Result<std::optional<Batch>> Next() override {
    if (!table_.has_value()) SDW_RETURN_IF_ERROR(Build());
    while (true) {
      SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, probe_->Next());
      if (!batch.has_value()) return std::optional<Batch>();
      // Probe the whole batch, then gather the matched (probe, build)
      // row pairs column by column.
      const size_t n = batch->num_rows();
      HashRows(*batch, probe_keys_, &hashes_);
      ids_.resize(n);
      table_->Find(*batch, probe_keys_, hashes_.data(), ids_.data());
      probe_rows_.clear();
      build_rows_.clear();
      for (size_t i = 0; i < n; ++i) {
        if (ids_[i] == KeyTable::kNoId) continue;
        for (uint32_t m = first_[ids_[i]]; m < first_[ids_[i] + 1]; ++m) {
          probe_rows_.push_back(static_cast<uint32_t>(i));
          build_rows_.push_back(matches_[m]);
        }
      }
      if (probe_rows_.empty()) continue;
      Batch out;
      out.columns.reserve(batch->num_columns() + build_data_.num_columns());
      for (const ColumnVector& col : batch->columns) {
        ColumnVector& gathered = out.columns.emplace_back(col.type());
        SDW_RETURN_IF_ERROR(gathered.AppendSelected(col, probe_rows_));
      }
      for (const ColumnVector& col : build_data_.columns) {
        ColumnVector& gathered = out.columns.emplace_back(col.type());
        SDW_RETURN_IF_ERROR(gathered.AppendSelected(col, build_rows_));
      }
      return std::optional<Batch>(std::move(out));
    }
  }

 private:
  // Builds the key table once and lays each key's build rows out
  // contiguously in build order: matches_[first_[id], first_[id + 1]).
  Status Build() {
    SDW_ASSIGN_OR_RETURN(build_data_, Collect(build_.get()));
    std::vector<TypeId> key_types;
    for (int k : build_keys_) {
      key_types.push_back(build_data_.columns[k].type());
    }
    table_.emplace(key_types);
    const size_t n = build_data_.num_rows();
    HashRows(build_data_, build_keys_, &hashes_);
    ids_.resize(n);
    table_->Insert(build_data_, build_keys_, hashes_.data(), ids_.data());
    first_.assign(table_->size() + 1, 0);
    for (size_t i = 0; i < n; ++i) ++first_[ids_[i] + 1];
    for (size_t id = 0; id < table_->size(); ++id) first_[id + 1] += first_[id];
    std::vector<uint32_t> next(first_.begin(), first_.end() - 1);
    matches_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      matches_[next[ids_[i]]++] = static_cast<uint32_t>(i);
    }
    return Status::OK();
  }

  OperatorPtr probe_;
  OperatorPtr build_;
  std::vector<int> probe_keys_;
  std::vector<int> build_keys_;
  Batch build_data_;
  std::optional<KeyTable> table_;
  std::vector<uint32_t> first_;
  std::vector<uint32_t> matches_;
  // Per-batch scratch, reused across probe batches.
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> probe_rows_;
  std::vector<uint32_t> build_rows_;
};

// ---------------------------------------------------------------------------
// HashAggregate
// ---------------------------------------------------------------------------

class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(OperatorPtr input, std::vector<int> group_by,
                  std::vector<AggSpec> aggs, AggMode mode)
      : input_(std::move(input)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)),
        mode_(mode),
        input_types_(input_->OutputTypes()) {}

  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> types;
    for (int g : group_by_) types.push_back(input_types_[g]);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      types.push_back(AggOutputType(a));
    }
    return types;
  }

  Result<std::optional<Batch>> Next() override {
    if (done_) return std::optional<Batch>();
    done_ = true;
    std::vector<TypeId> key_types;
    for (int g : group_by_) key_types.push_back(input_types_[g]);
    KeyTable table(key_types);
    std::vector<std::unique_ptr<AggStates>> states;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      SDW_ASSIGN_OR_RETURN(states.emplace_back(),
                           MakeAggStates(aggs_[a].fn, AggInputType(a)));
    }
    // Without GROUP BY, kSingle and kPartial fold every row into one
    // group: no hash, no key table, no id array.
    const bool one_group = group_by_.empty() && mode_ != AggMode::kFinal;
    if (one_group) {
      for (auto& s : states) s->Resize(1);
    }
    std::vector<uint64_t> hashes;
    std::vector<uint32_t> ids;
    while (true) {
      SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->Next());
      if (!batch.has_value()) break;
      const size_t n = batch->num_rows();
      if (one_group) {
        for (size_t a = 0; a < aggs_.size(); ++a) {
          const int c = aggs_[a].column;
          SDW_RETURN_IF_ERROR(states[a]->UpdateSingleGroup(
              c < 0 ? nullptr : &batch->columns[c], n));
        }
        continue;
      }
      HashRows(*batch, group_by_, &hashes);
      ids.resize(n);
      table.Insert(*batch, group_by_, hashes.data(), ids.data());
      for (size_t a = 0; a < aggs_.size(); ++a) {
        states[a]->Resize(table.size());
        if (mode_ == AggMode::kFinal) {
          SDW_RETURN_IF_ERROR(states[a]->Merge(
              batch->columns[group_by_.size() + a], ids.data()));
        } else {
          const int c = aggs_[a].column;
          SDW_RETURN_IF_ERROR(states[a]->Update(
              c < 0 ? nullptr : &batch->columns[c], ids.data(), n));
        }
      }
    }
    // A global aggregate (no GROUP BY) over zero rows still emits one
    // row of empty aggregates.
    const size_t groups =
        group_by_.empty() ? std::max<size_t>(table.size(), 1) : table.size();
    Batch out = MakeBatch(OutputTypes());
    for (size_t k = 0; k < group_by_.size(); ++k) {
      table.AppendKeys(k, &out.columns[k]);
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      states[a]->Resize(groups);
      states[a]->Finalize(mode_ == AggMode::kPartial,
                          &out.columns[group_by_.size() + a]);
    }
    return std::optional<Batch>(std::move(out));
  }

 private:
  TypeId AggInputType(size_t a) const {
    // In kFinal mode the agg inputs are the partial-output columns,
    // laid out right after the group columns.
    if (mode_ == AggMode::kFinal) {
      return input_types_[group_by_.size() + a];
    }
    return aggs_[a].column < 0 ? TypeId::kInt64
                               : input_types_[aggs_[a].column];
  }

  TypeId AggOutputType(size_t a) const {
    switch (aggs_[a].fn) {
      case AggFn::kCount:
        return TypeId::kInt64;
      case AggFn::kSum:
        return AggInputType(a) == TypeId::kDouble ? TypeId::kDouble
                                                  : TypeId::kInt64;
      case AggFn::kMin:
      case AggFn::kMax:
        return AggInputType(a);
      case AggFn::kApproxDistinct:
        // Partials ship the serialized sketch; single/final emit the
        // cardinality estimate.
        return mode_ == AggMode::kPartial ? TypeId::kString : TypeId::kInt64;
    }
    return TypeId::kInt64;
  }

  OperatorPtr input_;
  std::vector<int> group_by_;
  std::vector<AggSpec> aggs_;
  AggMode mode_;
  std::vector<TypeId> input_types_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

class SortOp : public Operator {
 public:
  SortOp(OperatorPtr input, std::vector<SortKey> keys)
      : input_(std::move(input)), keys_(std::move(keys)) {}

  std::vector<TypeId> OutputTypes() const override {
    return input_->OutputTypes();
  }

  Result<std::optional<Batch>> Next() override {
    if (done_) return std::optional<Batch>();
    done_ = true;
    SDW_ASSIGN_OR_RETURN(Batch all, Collect(input_.get()));
    std::vector<uint32_t> order(all.num_rows());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      for (const SortKey& key : keys_) {
        int cmp = all.columns[key.column].Compare(a, b);
        if (cmp != 0) return key.descending ? cmp > 0 : cmp < 0;
      }
      return false;
    });
    Batch out = MakeBatch(all.Types());
    for (size_t c = 0; c < all.columns.size(); ++c) {
      SDW_RETURN_IF_ERROR(out.columns[c].AppendSelected(all.columns[c], order));
    }
    return std::optional<Batch>(std::move(out));
  }

 private:
  OperatorPtr input_;
  std::vector<SortKey> keys_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Limit
// ---------------------------------------------------------------------------

class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr input, uint64_t limit)
      : input_(std::move(input)), remaining_(limit) {}

  std::vector<TypeId> OutputTypes() const override {
    return input_->OutputTypes();
  }

  Result<std::optional<Batch>> Next() override {
    if (remaining_ == 0) return std::optional<Batch>();
    SDW_ASSIGN_OR_RETURN(std::optional<Batch> batch, input_->Next());
    if (!batch.has_value()) return std::optional<Batch>();
    if (batch->num_rows() <= remaining_) {
      remaining_ -= batch->num_rows();
      return batch;
    }
    Batch out = MakeBatch(batch->Types());
    out.rows = remaining_;
    for (size_t c = 0; c < batch->columns.size(); ++c) {
      SDW_RETURN_IF_ERROR(
          out.columns[c].AppendRange(batch->columns[c], 0, remaining_));
    }
    remaining_ = 0;
    return std::optional<Batch>(std::move(out));
  }

 private:
  OperatorPtr input_;
  uint64_t remaining_;
};

}  // namespace

OperatorPtr MemoryScan(std::vector<TypeId> types, std::vector<Batch> batches) {
  return std::make_unique<MemoryScanOp>(std::move(types), std::move(batches));
}

OperatorPtr ShardScan(storage::ShardRef ref, std::vector<int> columns,
                      std::vector<storage::RangePredicate> predicates,
                      ScanOptions options) {
  return std::make_unique<ShardScanOp>(std::move(ref), std::move(columns),
                                       std::move(predicates), options);
}

OperatorPtr ShardScan(storage::TableShard* shard, std::vector<int> columns,
                      std::vector<storage::RangePredicate> predicates,
                      ScanOptions options) {
  // Non-owning convenience for single-threaded callers (tests, tools):
  // pins whatever the head version is right now.
  storage::ShardRef ref;
  ref.shard = std::shared_ptr<storage::TableShard>(
      shard, [](storage::TableShard*) {});
  ref.version = shard->Snapshot();
  return ShardScan(std::move(ref), std::move(columns), std::move(predicates),
                   options);
}

OperatorPtr Filter(OperatorPtr input, ExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(input), std::move(predicate));
}

OperatorPtr CountRows(OperatorPtr input, uint64_t* counter) {
  return std::make_unique<CountRowsOp>(std::move(input), counter);
}

OperatorPtr Project(OperatorPtr input, std::vector<ExprPtr> exprs) {
  return std::make_unique<ProjectOp>(std::move(input), std::move(exprs));
}

OperatorPtr HashJoin(OperatorPtr probe, OperatorPtr build,
                     std::vector<int> probe_keys,
                     std::vector<int> build_keys) {
  return std::make_unique<HashJoinOp>(std::move(probe), std::move(build),
                                      std::move(probe_keys),
                                      std::move(build_keys));
}

OperatorPtr HashAggregate(OperatorPtr input, std::vector<int> group_by,
                          std::vector<AggSpec> aggs, AggMode mode) {
  return std::make_unique<HashAggregateOp>(std::move(input),
                                           std::move(group_by),
                                           std::move(aggs), mode);
}

OperatorPtr Sort(OperatorPtr input, std::vector<SortKey> keys) {
  return std::make_unique<SortOp>(std::move(input), std::move(keys));
}

OperatorPtr Limit(OperatorPtr input, uint64_t limit) {
  return std::make_unique<LimitOp>(std::move(input), limit);
}

}  // namespace sdw::exec
