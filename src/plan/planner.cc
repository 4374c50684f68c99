#include "plan/planner.h"

#include <algorithm>
#include <map>

namespace sdw::plan {

namespace {

/// Tracks which columns of one table the pipeline scans, assigning
/// positions on demand.
class ScanBinder {
 public:
  ScanBinder(std::string table, const TableSchema& schema)
      : table_(std::move(table)), schema_(schema) {}

  const std::string& table() const { return table_; }
  const TableSchema& schema() const { return schema_; }

  /// Returns the scan-output position for the named column, adding it
  /// to the projection if new.
  Result<int> Bind(const std::string& column) {
    SDW_ASSIGN_OR_RETURN(size_t idx, schema_.FindColumn(column));
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (columns_[i] == static_cast<int>(idx)) return static_cast<int>(i);
    }
    columns_.push_back(static_cast<int>(idx));
    return static_cast<int>(columns_.size() - 1);
  }

  bool Has(const std::string& column) const {
    return schema_.FindColumn(column).ok();
  }

  /// Schema index (not scan position) of an already-bound scan position.
  int SchemaIndex(int scan_pos) const { return columns_[scan_pos]; }

  TypeId TypeAt(int scan_pos) const {
    return schema_.column(columns_[scan_pos]).type;
  }

  const std::vector<int>& columns() const { return columns_; }

 private:
  std::string table_;
  const TableSchema& schema_;
  std::vector<int> columns_;
};

exec::CmpOp ToExecCmp(LogicalCmp op) {
  switch (op) {
    case LogicalCmp::kEq:
      return exec::CmpOp::kEq;
    case LogicalCmp::kNe:
      return exec::CmpOp::kNe;
    case LogicalCmp::kLt:
      return exec::CmpOp::kLt;
    case LogicalCmp::kLe:
      return exec::CmpOp::kLe;
    case LogicalCmp::kGt:
      return exec::CmpOp::kGt;
    case LogicalCmp::kGe:
      return exec::CmpOp::kGe;
  }
  return exec::CmpOp::kEq;
}

/// Conservative zone-map bounds for a conjunct (inclusive both sides);
/// exactness is guaranteed by the residual filter.
bool ZonePredicateFor(LogicalCmp op, const Datum& lit, Datum* lo, Datum* hi) {
  switch (op) {
    case LogicalCmp::kEq:
      *lo = lit;
      *hi = lit;
      return true;
    case LogicalCmp::kLt:
    case LogicalCmp::kLe:
      *lo = Datum::Null();
      *hi = lit;
      return true;
    case LogicalCmp::kGt:
    case LogicalCmp::kGe:
      *lo = lit;
      *hi = Datum::Null();
      return true;
    case LogicalCmp::kNe:
      return false;
  }
  return false;
}

/// A WHERE literal must be comparable with its column: VARCHAR with
/// VARCHAR, numbers and dates with each other (a NULL literal with
/// anything). LIKE takes a VARCHAR column.
Status CheckComparable(const Selection& sel, TypeId column_type) {
  const bool is_string = column_type == TypeId::kString;
  auto check = [&](const Datum& v) {
    if (v.is_null() || (v.type() == TypeId::kString) == is_string) {
      return Status::OK();
    }
    return Status::InvalidArgument(
        std::string("cannot compare ") + TypeName(column_type) +
        " column '" + sel.column.ToString() + "' with " + v.ToString());
  };
  switch (sel.kind) {
    case Selection::Kind::kCompare:
      return check(sel.literal);
    case Selection::Kind::kBetween:
      SDW_RETURN_IF_ERROR(check(sel.literal));
      return check(sel.literal2);
    case Selection::Kind::kIn:
      for (const Datum& v : sel.in_list) SDW_RETURN_IF_ERROR(check(v));
      return Status::OK();
    case Selection::Kind::kLikePrefix:
      return check(Datum::String(sel.like_prefix));
  }
  return Status::OK();
}

TypeId AggOutputType(const exec::AggSpec& spec, TypeId input_type) {
  switch (spec.fn) {
    case exec::AggFn::kCount:
    case exec::AggFn::kApproxDistinct:  // final output is the estimate
      return TypeId::kInt64;
    case exec::AggFn::kSum:
      return input_type == TypeId::kDouble ? TypeId::kDouble : TypeId::kInt64;
    case exec::AggFn::kMin:
    case exec::AggFn::kMax:
      return input_type;
  }
  return TypeId::kInt64;
}

}  // namespace

Result<PhysicalQuery> Planner::Plan(const LogicalQuery& query) const {
  if (query.select_star) {
    if (query.join_table.has_value()) {
      return Status::NotSupported("SELECT * is not supported with JOIN");
    }
    SDW_ASSIGN_OR_RETURN(TableSchema schema,
                         catalog_->GetTable(query.from_table));
    LogicalQuery expanded = query;
    expanded.select_star = false;
    for (const ColumnDef& col : schema.columns()) {
      SelectItem item;
      item.column.column = col.name;
      expanded.select.push_back(std::move(item));
    }
    // The select list is now the schema in order, so deferred ORDER BY
    // names resolve to schema positions.
    for (OrderItem& order : expanded.order_by) {
      if (!order.by_name) continue;
      SDW_ASSIGN_OR_RETURN(size_t idx,
                           schema.FindColumn(order.column.column));
      order.select_index = static_cast<int>(idx);
      order.by_name = false;
    }
    return Plan(expanded);
  }
  if (query.select.empty()) {
    return Status::InvalidArgument("SELECT list must not be empty");
  }
  for (const OrderItem& order : query.order_by) {
    if (order.by_name) {
      return Status::InvalidArgument("unresolved ORDER BY column '" +
                                     order.column.ToString() + "'");
    }
  }
  SDW_ASSIGN_OR_RETURN(TableSchema probe_schema,
                       catalog_->GetTable(query.from_table));
  ScanBinder probe(query.from_table, probe_schema);

  std::optional<TableSchema> build_schema;
  std::optional<ScanBinder> build;
  if (query.join_table.has_value()) {
    SDW_ASSIGN_OR_RETURN(TableSchema bs, catalog_->GetTable(*query.join_table));
    build_schema = std::move(bs);
    build.emplace(*query.join_table, *build_schema);
  }

  // Resolves a possibly-qualified name to (binder, scan position). The
  // returned pipeline position offsets build columns by the probe width
  // at the end of planning, so we track (is_build, scan_pos) pairs first.
  struct Bound {
    bool is_build = false;
    int scan_pos = 0;
  };
  auto resolve = [&](const ColumnName& name) -> Result<Bound> {
    if (!name.table.empty()) {
      if (name.table == query.from_table) {
        SDW_ASSIGN_OR_RETURN(int pos, probe.Bind(name.column));
        return Bound{false, pos};
      }
      if (build.has_value() && name.table == build->table()) {
        SDW_ASSIGN_OR_RETURN(int pos, build->Bind(name.column));
        return Bound{true, pos};
      }
      return Status::NotFound("unknown table '" + name.table + "'");
    }
    const bool in_probe = probe.Has(name.column);
    const bool in_build = build.has_value() && build->Has(name.column);
    if (in_probe && in_build) {
      return Status::InvalidArgument("ambiguous column '" + name.column + "'");
    }
    if (in_probe) {
      SDW_ASSIGN_OR_RETURN(int pos, probe.Bind(name.column));
      return Bound{false, pos};
    }
    if (in_build) {
      SDW_ASSIGN_OR_RETURN(int pos, build->Bind(name.column));
      return Bound{true, pos};
    }
    return Status::NotFound("unknown column '" + name.column + "'");
  };

  // --- Join keys (bind first so they're early in the projections). ---
  Bound join_left{}, join_right{};
  if (build.has_value()) {
    SDW_ASSIGN_OR_RETURN(join_left, resolve(query.join_left));
    SDW_ASSIGN_OR_RETURN(join_right, resolve(query.join_right));
    if (join_left.is_build == join_right.is_build) {
      return Status::InvalidArgument(
          "join condition must reference both tables");
    }
    if (join_left.is_build) std::swap(join_left, join_right);
  }

  // --- WHERE: bind, split into zone predicates + residual filters. ---
  struct ResidualSource {
    Bound bound;
    Selection selection;
  };
  std::vector<ResidualSource> residuals;
  std::vector<storage::RangePredicate> probe_zone;
  std::vector<storage::RangePredicate> build_zone;
  for (const Selection& sel : query.where) {
    SDW_ASSIGN_OR_RETURN(Bound b, resolve(sel.column));
    SDW_RETURN_IF_ERROR(CheckComparable(
        sel, (b.is_build ? *build : probe).TypeAt(b.scan_pos)));
    residuals.push_back({b, sel});
    // Conservative zone-map bounds per conjunct kind; the residual
    // filter guarantees exactness.
    Datum lo, hi;
    bool has_zone = false;
    switch (sel.kind) {
      case Selection::Kind::kCompare:
        has_zone = ZonePredicateFor(sel.op, sel.literal, &lo, &hi);
        break;
      case Selection::Kind::kBetween:
        lo = sel.literal;
        hi = sel.literal2;
        has_zone = true;
        break;
      case Selection::Kind::kIn: {
        if (sel.in_list.empty()) {
          return Status::InvalidArgument("IN list must not be empty");
        }
        lo = sel.in_list[0];
        hi = sel.in_list[0];
        for (const Datum& v : sel.in_list) {
          if (v.is_null()) continue;
          if (v < lo) lo = v;
          if (hi < v) hi = v;
        }
        has_zone = true;
        break;
      }
      case Selection::Kind::kLikePrefix: {
        if (!sel.like_prefix.empty()) {
          lo = Datum::String(sel.like_prefix);
          // Upper bound: bump the last byte of the prefix; a 0xff tail
          // leaves the range open above (conservative).
          std::string upper = sel.like_prefix;
          if (static_cast<unsigned char>(upper.back()) < 0xff) {
            upper.back() = static_cast<char>(upper.back() + 1);
            hi = Datum::String(upper);
          }
          has_zone = true;
        }
        break;
      }
    }
    if (has_zone) {
      ScanBinder& binder = b.is_build ? *build : probe;
      storage::RangePredicate pred;
      pred.column = binder.SchemaIndex(b.scan_pos);
      pred.lo = lo;
      pred.hi = hi;
      (b.is_build ? build_zone : probe_zone).push_back(pred);
    }
  }

  // --- SELECT / GROUP BY binding. ---
  struct SelectBound {
    LogicalAggFn agg = LogicalAggFn::kNone;
    Bound bound;  // unused for kCountStar
  };
  std::vector<SelectBound> select_bound;
  bool has_agg = !query.group_by.empty();
  for (const SelectItem& item : query.select) {
    SelectBound sb;
    sb.agg = item.agg;
    if (item.agg != LogicalAggFn::kCountStar) {
      SDW_ASSIGN_OR_RETURN(sb.bound, resolve(item.column));
    }
    if (item.agg != LogicalAggFn::kNone) has_agg = true;
    select_bound.push_back(sb);
  }
  std::vector<Bound> group_bound;
  for (const ColumnName& g : query.group_by) {
    SDW_ASSIGN_OR_RETURN(Bound b, resolve(g));
    group_bound.push_back(b);
  }

  // --- Assemble the physical query. ---
  // A bare COUNT(*) binds no column: its scan reads no block and counts
  // rows from chain metadata.
  PhysicalQuery physical;
  physical.scan.table = query.from_table;
  physical.scan.columns = probe.columns();
  physical.scan.predicates = std::move(probe_zone);

  const int probe_width = static_cast<int>(probe.columns().size());
  auto pipeline_pos = [&](const Bound& b) {
    return b.is_build ? probe_width + b.scan_pos : b.scan_pos;
  };
  auto pipeline_type = [&](const Bound& b) {
    return b.is_build ? build->TypeAt(b.scan_pos) : probe.TypeAt(b.scan_pos);
  };

  // Residual filters attach to their side's scan so they run before the
  // join (predicate pushdown); positions index the scan's own output.
  exec::ExprPtr probe_filter;
  exec::ExprPtr build_filter;
  for (const ResidualSource& r : residuals) {
    ScanBinder& binder = r.bound.is_build ? *build : probe;
    exec::ExprPtr col =
        exec::Col(r.bound.scan_pos, binder.TypeAt(r.bound.scan_pos));
    const Selection& sel = r.selection;
    exec::ExprPtr cmp;
    switch (sel.kind) {
      case Selection::Kind::kCompare:
        cmp = exec::Cmp(ToExecCmp(sel.op), col, exec::Lit(sel.literal));
        break;
      case Selection::Kind::kBetween:
        cmp = exec::And(
            exec::Cmp(exec::CmpOp::kGe, col, exec::Lit(sel.literal)),
            exec::Cmp(exec::CmpOp::kLe, col, exec::Lit(sel.literal2)));
        break;
      case Selection::Kind::kIn: {
        for (const Datum& v : sel.in_list) {
          exec::ExprPtr eq = exec::Cmp(exec::CmpOp::kEq, col, exec::Lit(v));
          cmp = cmp ? exec::Or(cmp, eq) : eq;
        }
        break;
      }
      case Selection::Kind::kLikePrefix:
        cmp = exec::StartsWith(col, sel.like_prefix);
        break;
    }
    exec::ExprPtr& target = r.bound.is_build ? build_filter : probe_filter;
    target = target ? exec::And(target, cmp) : cmp;
  }
  physical.scan.filter = probe_filter;

  if (build.has_value()) {
    JoinSpec join;
    join.build.table = build->table();
    join.build.columns = build->columns();
    join.build.predicates = std::move(build_zone);
    join.build.filter = build_filter;
    join.probe_keys = {join_left.scan_pos};
    join.build_keys = {join_right.scan_pos};

    // Strategy from distribution metadata and stats (§2.1 / §3.3).
    const TableSchema& ps = probe_schema;
    const TableSchema& bs = *build_schema;
    const bool build_all = bs.dist_style() == DistStyle::kAll;
    const bool colocated_keys =
        ps.dist_style() == DistStyle::kKey && bs.dist_style() == DistStyle::kKey &&
        ps.dist_key() == probe.SchemaIndex(join_left.scan_pos) &&
        bs.dist_key() == build->SchemaIndex(join_right.scan_pos);
    if (build_all || colocated_keys) {
      join.strategy = JoinStrategy::kCoLocated;
    } else if (catalog_->GetStats(bs.name()).row_count <=
               options_.broadcast_row_threshold) {
      join.strategy = JoinStrategy::kBroadcastBuild;
    } else {
      join.strategy = JoinStrategy::kShuffle;
    }
    physical.join = std::move(join);
  }

  if (has_agg) {
    // Every plain select item must appear in GROUP BY.
    AggDetails agg;
    for (const Bound& b : group_bound) {
      agg.group_by.push_back(pipeline_pos(b));
    }
    // Map: select item -> leader projection over [group..., aggs...].
    struct LeaderSlot {
      bool is_avg = false;
      int primary = 0;    // group slot or agg slot
      int secondary = 0;  // count slot for AVG
      TypeId type = TypeId::kInt64;
    };
    std::vector<LeaderSlot> slots;
    const int ngroups = static_cast<int>(agg.group_by.size());
    for (const SelectBound& sb : select_bound) {
      LeaderSlot slot;
      if (sb.agg == LogicalAggFn::kNone) {
        int pos = pipeline_pos(sb.bound);
        auto it = std::find(agg.group_by.begin(), agg.group_by.end(), pos);
        if (it == agg.group_by.end()) {
          return Status::InvalidArgument(
              "non-aggregated select column must be in GROUP BY");
        }
        slot.primary = static_cast<int>(it - agg.group_by.begin());
        slot.type = pipeline_type(sb.bound);
        slots.push_back(slot);
        continue;
      }
      auto add_agg = [&](exec::AggFn fn, int column, TypeId in_type) {
        agg.aggs.push_back({fn, column});
        return std::make_pair(
            ngroups + static_cast<int>(agg.aggs.size()) - 1,
            AggOutputType(agg.aggs.back(), in_type));
      };
      switch (sb.agg) {
        case LogicalAggFn::kCountStar: {
          auto [pos, type] = add_agg(exec::AggFn::kCount, -1, TypeId::kInt64);
          slot.primary = pos;
          slot.type = type;
          break;
        }
        case LogicalAggFn::kCount: {
          auto [pos, type] = add_agg(exec::AggFn::kCount,
                                     pipeline_pos(sb.bound), TypeId::kInt64);
          slot.primary = pos;
          slot.type = type;
          break;
        }
        case LogicalAggFn::kSum: {
          auto [pos, type] = add_agg(exec::AggFn::kSum, pipeline_pos(sb.bound),
                                     pipeline_type(sb.bound));
          slot.primary = pos;
          slot.type = type;
          break;
        }
        case LogicalAggFn::kMin: {
          auto [pos, type] = add_agg(exec::AggFn::kMin, pipeline_pos(sb.bound),
                                     pipeline_type(sb.bound));
          slot.primary = pos;
          slot.type = type;
          break;
        }
        case LogicalAggFn::kMax: {
          auto [pos, type] = add_agg(exec::AggFn::kMax, pipeline_pos(sb.bound),
                                     pipeline_type(sb.bound));
          slot.primary = pos;
          slot.type = type;
          break;
        }
        case LogicalAggFn::kApproxCountDistinct: {
          auto [pos, type] =
              add_agg(exec::AggFn::kApproxDistinct, pipeline_pos(sb.bound),
                      pipeline_type(sb.bound));
          slot.primary = pos;
          slot.type = type;
          break;
        }
        case LogicalAggFn::kAvg: {
          // AVG(x) -> SUM(x) / COUNT(x): merges associatively across
          // slices, divided at the leader.
          auto [sum_pos, sum_type] = add_agg(
              exec::AggFn::kSum, pipeline_pos(sb.bound), pipeline_type(sb.bound));
          auto [count_pos, count_type] =
              add_agg(exec::AggFn::kCount, pipeline_pos(sb.bound), TypeId::kInt64);
          (void)sum_type;
          (void)count_type;
          slot.is_avg = true;
          slot.primary = sum_pos;
          slot.secondary = count_pos;
          slot.type = TypeId::kDouble;
          break;
        }
        case LogicalAggFn::kNone:
          break;
      }
      slots.push_back(slot);
    }
    // Leader projection expressions over the final-aggregate output.
    // Final agg output types: group columns keep pipeline types; aggs
    // follow AggOutputType.
    std::vector<TypeId> agg_out_types;
    for (const Bound& b : group_bound) agg_out_types.push_back(pipeline_type(b));
    for (const exec::AggSpec& a : agg.aggs) {
      TypeId in_type = TypeId::kInt64;
      if (a.column >= 0) {
        // Recover the input type from the pipeline position.
        if (a.column < probe_width) {
          in_type = probe.TypeAt(a.column);
        } else {
          in_type = build->TypeAt(a.column - probe_width);
        }
      }
      agg_out_types.push_back(AggOutputType(a, in_type));
    }
    for (const LeaderSlot& slot : slots) {
      if (slot.is_avg) {
        physical.project.push_back(exec::Arith(
            exec::ArithOp::kDiv,
            exec::Col(slot.primary, agg_out_types[slot.primary]),
            exec::Col(slot.secondary, agg_out_types[slot.secondary])));
      } else {
        physical.project.push_back(
            exec::Col(slot.primary, agg_out_types[slot.primary]));
      }
    }
    physical.agg = std::move(agg);
  } else {
    // Pure projection query.
    for (const SelectBound& sb : select_bound) {
      physical.project.push_back(
          exec::Col(pipeline_pos(sb.bound), pipeline_type(sb.bound)));
    }
  }

  // Output names.
  for (const SelectItem& item : query.select) {
    if (!item.alias.empty()) {
      physical.output_names.push_back(item.alias);
    } else if (item.agg == LogicalAggFn::kCountStar) {
      physical.output_names.push_back("count");
    } else {
      physical.output_names.push_back(item.column.column);
    }
  }

  // ORDER BY / LIMIT act on the projected output.
  for (const OrderItem& o : query.order_by) {
    if (o.select_index < 0 ||
        static_cast<size_t>(o.select_index) >= query.select.size()) {
      return Status::InvalidArgument("ORDER BY index out of range");
    }
    physical.order_by.push_back({o.select_index, o.descending});
  }
  physical.limit = query.limit;
  return physical;
}

}  // namespace sdw::plan
