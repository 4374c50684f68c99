#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <type_traits>

namespace whbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string RegionName(int index) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "region-%02d", index);
  return buf;
}

std::string CategoryName(int index) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "cat-%02d", index);
  return buf;
}

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kPoint: return "point";
    case Shape::kCount: return "count";
    case Shape::kGroup: return "group";
    case Shape::kStringGroup: return "string_group";
    case Shape::kMinMax: return "minmax";
    case Shape::kJoin: return "join";
  }
  return "?";
}

std::string QuerySql(const Query& q, const std::string& t) {
  const std::string lo = std::to_string(q.lo);
  switch (q.shape) {
    case Shape::kPoint:
      return "SELECT id, grp, region, v, dim_id FROM " + t + " WHERE id = " +
             lo;
    case Shape::kCount:
      return q.unfiltered ? "SELECT COUNT(*) FROM " + t
                          : "SELECT COUNT(*) FROM " + t + " WHERE id >= " + lo;
    case Shape::kGroup:
      return "SELECT grp, COUNT(*), SUM(v) FROM " + t + " WHERE v < " + lo +
             " GROUP BY grp ORDER BY grp";
    case Shape::kStringGroup:
      return "SELECT region, COUNT(*), SUM(v) FROM " + t + " WHERE v < " + lo +
             " GROUP BY region ORDER BY region";
    case Shape::kMinMax:
      return "SELECT grp, MIN(v), MAX(v) FROM " + t + " WHERE id BETWEEN " +
             lo + " AND " + std::to_string(q.hi) + " GROUP BY grp ORDER BY grp";
    case Shape::kJoin:
      return "SELECT dim.cat, COUNT(*), SUM(" + t + ".v) FROM " + t +
             " JOIN dim ON " + t + ".dim_id = dim.id WHERE " + t + ".v < " +
             lo + " GROUP BY dim.cat ORDER BY dim.cat";
  }
  return "";
}

namespace {

struct CountSum {
  int64_t count = 0;
  int64_t sum = 0;
};

/// Renders keyed (count, sum) groups in key order, skipping empty ones.
template <typename Key>
std::string RenderCountSum(const std::map<Key, CountSum>& groups) {
  std::string out;
  for (const auto& [key, cs] : groups) {
    if (cs.count == 0) continue;
    if (!out.empty()) out += '\n';
    if constexpr (std::is_same_v<Key, std::string>) {
      out += key;
    } else {
      out += std::to_string(key);
    }
    out += '|' + std::to_string(cs.count) + '|' + std::to_string(cs.sum);
  }
  return out;
}

}  // namespace

std::string OracleAnswer(const Query& q, const FactRows& t, const DimRows& d) {
  const int64_t n = static_cast<int64_t>(t.size());
  switch (q.shape) {
    case Shape::kPoint: {
      if (q.lo < 0 || q.lo >= n) return "";
      const size_t i = static_cast<size_t>(q.lo);
      return std::to_string(q.lo) + '|' + std::to_string(t.grp[i]) + '|' +
             RegionName(t.region[i]) + '|' + std::to_string(t.v[i]) + '|' +
             std::to_string(t.dim_id[i]);
    }
    case Shape::kCount: {
      int64_t count = 0;
      for (int64_t id = 0; id < n; ++id) {
        if (q.unfiltered || id >= q.lo) ++count;
      }
      return std::to_string(count);
    }
    case Shape::kGroup: {
      std::vector<CountSum> by_grp(kGroups);
      for (size_t i = 0; i < t.size(); ++i) {
        if (t.v[i] >= q.lo) continue;
        ++by_grp[t.grp[i]].count;
        by_grp[t.grp[i]].sum += t.v[i];
      }
      std::map<int64_t, CountSum> groups;
      for (int64_t g = 0; g < kGroups; ++g) groups[g] = by_grp[g];
      return RenderCountSum(groups);
    }
    case Shape::kStringGroup: {
      std::vector<CountSum> by_index(kRegions);
      for (size_t i = 0; i < t.size(); ++i) {
        if (t.v[i] >= q.lo) continue;
        ++by_index[t.region[i]].count;
        by_index[t.region[i]].sum += t.v[i];
      }
      std::map<std::string, CountSum> groups;
      for (int r = 0; r < kRegions; ++r) groups[RegionName(r)] = by_index[r];
      return RenderCountSum(groups);
    }
    case Shape::kMinMax: {
      struct MinMax {
        bool any = false;
        int64_t min = 0;
        int64_t max = 0;
      };
      std::vector<MinMax> by_grp(kGroups);
      for (int64_t id = std::max<int64_t>(q.lo, 0);
           id <= std::min<int64_t>(q.hi, n - 1); ++id) {
        const size_t i = static_cast<size_t>(id);
        MinMax& g = by_grp[t.grp[i]];
        g.min = g.any ? std::min(g.min, t.v[i]) : t.v[i];
        g.max = g.any ? std::max(g.max, t.v[i]) : t.v[i];
        g.any = true;
      }
      std::string out;
      for (int64_t grp = 0; grp < kGroups; ++grp) {
        const MinMax& g = by_grp[grp];
        if (!g.any) continue;
        if (!out.empty()) out += '\n';
        out += std::to_string(grp) + '|' + std::to_string(g.min) + '|' +
               std::to_string(g.max);
      }
      return out;
    }
    case Shape::kJoin: {
      std::vector<CountSum> by_index(kCategories);
      for (size_t i = 0; i < t.size(); ++i) {
        if (t.v[i] >= q.lo) continue;
        const int64_t key = t.dim_id[i];
        if (key < 0 || key >= static_cast<int64_t>(d.size())) continue;
        CountSum& g = by_index[d.cat[static_cast<size_t>(key)]];
        ++g.count;
        g.sum += t.v[i];
      }
      std::map<std::string, CountSum> groups;
      for (int c = 0; c < kCategories; ++c) groups[CategoryName(c)] = by_index[c];
      return RenderCountSum(groups);
    }
  }
  return "<unsupported>";
}

uint64_t AnswerHash(const std::string& answer) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : answer) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace whbench
