#ifndef SDW_EXEC_HLL_H_
#define SDW_EXEC_HLL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace sdw::exec {

/// HyperLogLog cardinality sketch — the engine behind APPROXIMATE
/// COUNT(DISTINCT). The paper calls exactly for this (§4): "we would
/// like to build distributed approximate equivalents for all non-linear
/// exact operations within our engine" — COUNT(DISTINCT) is the
/// canonical non-linear aggregate, and the sketch's register-wise max
/// merge is what makes it distribute: slices build partials, the leader
/// merges, nobody ships row sets.
class HyperLogLog {
 public:
  /// 2^precision registers; precision 12 -> 4096 registers -> ~1.6%
  /// standard error at ~4 KiB per group.
  explicit HyperLogLog(int precision = 12);

  int precision() const { return precision_; }
  size_t num_registers() const { return registers_.size(); }

  /// Folds one hashed value into the sketch.
  void Add(uint64_t hash);

  /// Register-wise max: the union of the two multisets.
  Status Merge(const HyperLogLog& other);

  /// Cardinality estimate with the standard small-range correction.
  uint64_t Estimate() const;

  /// Compact wire form (precision byte + registers).
  std::string Serialize() const;
  static Result<HyperLogLog> Deserialize(std::string_view data);

 private:
  int precision_;
  std::vector<uint8_t> registers_;
};

}  // namespace sdw::exec

#endif  // SDW_EXEC_HLL_H_
