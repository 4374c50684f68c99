#include "exec/hll.h"

#include <cmath>

#include "common/logging.h"

namespace sdw::exec {

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  SDW_CHECK(precision >= 4 && precision <= 16) << "precision out of range";
  registers_.assign(size_t{1} << precision, 0);
}

void HyperLogLog::Add(uint64_t hash) {
  const uint64_t index = hash >> (64 - precision_);
  // Rank = position of the first 1-bit in the remaining bits (1-based).
  const uint64_t remaining = hash << precision_;
  const uint8_t rank =
      remaining == 0 ? static_cast<uint8_t>(64 - precision_ + 1)
                     : static_cast<uint8_t>(__builtin_clzll(remaining) + 1);
  if (rank > registers_[index]) registers_[index] = rank;
}

Status HyperLogLog::Merge(const HyperLogLog& other) {
  if (other.precision_ != precision_) {
    return Status::InvalidArgument("merging sketches of different precision");
  }
  for (size_t i = 0; i < registers_.size(); ++i) {
    if (other.registers_[i] > registers_[i]) {
      registers_[i] = other.registers_[i];
    }
  }
  return Status::OK();
}

uint64_t HyperLogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  // Bias-correction constant alpha_m.
  double alpha;
  if (registers_.size() <= 16) {
    alpha = 0.673;
  } else if (registers_.size() <= 32) {
    alpha = 0.697;
  } else if (registers_.size() <= 64) {
    alpha = 0.709;
  } else {
    alpha = 0.7213 / (1.0 + 1.079 / m);
  }
  double sum = 0;
  size_t zeros = 0;
  for (uint8_t reg : registers_) {
    sum += std::ldexp(1.0, -reg);
    if (reg == 0) ++zeros;
  }
  double estimate = alpha * m * m / sum;
  // Small-range correction: linear counting while registers are sparse.
  if (estimate <= 2.5 * m && zeros > 0) {
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return static_cast<uint64_t>(estimate + 0.5);
}

std::string HyperLogLog::Serialize() const {
  std::string out;
  out.reserve(registers_.size() + 1);
  out.push_back(static_cast<char>(precision_));
  out.append(reinterpret_cast<const char*>(registers_.data()),
             registers_.size());
  return out;
}

Result<HyperLogLog> HyperLogLog::Deserialize(std::string_view data) {
  if (data.empty()) return Status::Corruption("empty HLL sketch");
  const int precision = static_cast<uint8_t>(data[0]);
  if (precision < 4 || precision > 16 ||
      data.size() != (size_t{1} << precision) + 1) {
    return Status::Corruption("malformed HLL sketch");
  }
  HyperLogLog hll(precision);
  for (size_t i = 0; i < hll.registers_.size(); ++i) {
    hll.registers_[i] = static_cast<uint8_t>(data[i + 1]);
  }
  return hll;
}

}  // namespace sdw::exec
