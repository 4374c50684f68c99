#ifndef SDW_EXEC_HASH_TABLE_H_
#define SDW_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/batch.h"

namespace sdw::exec {

// One hash table for join, aggregate and shuffle (DESIGN.md 4l): a batch
// hash computed column by column, a flat key table that maps key tuples
// to dense ids, and typed per-group aggregate states indexed by those
// ids. HashJoin, HashAggregate and the shuffle router all run on it.

/// Datum::Hash of every value of `col` (NULL hashes to
/// Datum::kNullHash), written to (*out)[0, col.size()).
void HashColumn(const ColumnVector& col, std::vector<uint64_t>* out);

/// Row-key hash over the `keys` columns of `batch`: kRowHashSeed folded
/// with HashCombine over each key's Datum::Hash, left to right. Shuffles
/// route on it (hash % slices) and KeyTable probes with it.
inline constexpr uint64_t kRowHashSeed = 0x9e3779b97f4a7c15ull;
void HashRows(const Batch& batch, const std::vector<int>& keys,
              std::vector<uint64_t>* out);

/// Open-addressing map from key tuples to dense ids 0, 1, ... assigned
/// in first-seen order. Keys are stored column by column in fixed-width
/// lanes: integer-like types share the int64 lane (an INT32 key equals a
/// BIGINT key), DOUBLE keeps its bits and compares -0.0 equal to 0.0
/// and NaN equal to NaN (as CompareDoubles does), and VARCHAR bytes live
/// in one arena and compare by value. The slot array doubles as distinct
/// keys arrive, never with input rows.
class KeyTable {
 public:
  static constexpr uint32_t kNoId = UINT32_MAX;

  explicit KeyTable(const std::vector<TypeId>& types);

  /// Number of distinct keys; ids run from 0 to size() - 1.
  size_t size() const { return size_; }

  /// Sets ids[i] to the id of row i's key, adding unseen keys in row
  /// order. NULL is a key value here, so NULL keys group together.
  /// `hashes` are HashRows over the same columns.
  void Insert(const Batch& batch, const std::vector<int>& keys,
              const uint64_t* hashes, uint32_t* ids);

  /// Sets ids[i] to the id of row i's key, or kNoId when the key is
  /// absent or has a NULL part (NULL keys never join).
  void Find(const Batch& batch, const std::vector<int>& keys,
            const uint64_t* hashes, uint32_t* ids) const;

  /// Appends key column k of every id, in id order.
  void AppendKeys(size_t k, ColumnVector* out) const;

 private:
  enum class Kind : uint8_t { kInt, kDouble, kString };
  struct Lane {
    Kind kind = Kind::kInt;
    std::vector<uint64_t> words;  // int value, double bits or arena offset
    std::vector<uint32_t> sizes;  // VARCHAR byte length
    std::vector<uint8_t> nulls;
  };
  struct Slot {
    uint32_t tag = 0;  // high half of the hash
    uint32_t id = kNoId;
  };
  /// The key columns of the batch being inserted or looked up.
  using Columns = std::vector<const ColumnVector*>;

  static Kind KindOf(TypeId type);
  std::string_view StringAt(const Lane& lane, uint32_t id) const;
  bool Equal(const Columns& cols, size_t row, uint32_t id) const;
  /// Calls fn(equal), where equal(row, id) tells whether batch row `row`
  /// holds key `id`; specialized for one integer or VARCHAR key.
  template <typename Fn>
  void WithEqual(const Columns& cols, Fn fn) const;
  /// The slot holding the key eq() accepts, or the empty slot ending
  /// the probe sequence of `hash`.
  template <typename Eq>
  size_t SlotOf(uint64_t hash, Eq eq) const;
  uint32_t Add(const Columns& cols, size_t row, uint64_t hash, size_t pos);
  void Grow();

  std::vector<Lane> lanes_;
  std::string arena_;
  std::vector<uint64_t> hashes_;  // per id, for rehashing on growth
  std::vector<Slot> slots_ = std::vector<Slot>(16);
  size_t mask_ = 15;  // slots_.size() - 1
  size_t size_ = 0;
};

/// Aggregate functions. AVG is planned as SUM/COUNT upstream so that
/// partial aggregates merge associatively across slices.
/// kApproxDistinct implements APPROXIMATE COUNT(DISTINCT) via
/// HyperLogLog sketches: slices emit serialized sketches as their
/// partials (a string column) and the leader merges them — the paper's
/// "distributed approximate equivalents for ... non-linear exact
/// operations" (§4).
enum class AggFn { kCount, kSum, kMin, kMax, kApproxDistinct };

/// One aggregate's state for every group, in lanes indexed by KeyTable
/// id. Resize initializes new groups; kSingle and kPartial fold input
/// rows with Update; kFinal folds kPartial output with Merge; Finalize
/// emits partial states or final values. Integer SUM returns OutOfRange
/// on overflow instead of wrapping.
class AggStates {
 public:
  virtual ~AggStates() = default;

  /// Grows to `groups` groups; the new ones start empty.
  virtual void Resize(size_t groups) = 0;

  /// Folds `n` input rows into groups ids[0, n). `input` is null for
  /// COUNT(*).
  virtual Status Update(const ColumnVector* input, const uint32_t* ids,
                        size_t n) = 0;

  /// Folds `n` input rows into group 0, for an aggregate without GROUP
  /// BY: no id array, and COUNT costs O(1) per batch.
  virtual Status UpdateSingleGroup(const ColumnVector* input, size_t n) = 0;

  /// Folds one kPartial output column into groups ids.
  virtual Status Merge(const ColumnVector& partial, const uint32_t* ids) = 0;

  /// Appends every group's partial state (`partial`) or final value, in
  /// id order.
  virtual void Finalize(bool partial, ColumnVector* out) const = 0;
};

/// The typed states of `fn` over values of `type` (for kFinal, the type
/// of the partial column).
Result<std::unique_ptr<AggStates>> MakeAggStates(AggFn fn, TypeId type);

}  // namespace sdw::exec

#endif  // SDW_EXEC_HASH_TABLE_H_
