#include "exec/expr.h"

#include <optional>
#include <string_view>
#include <utility>

namespace sdw::exec {

namespace {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool ApplyCmp(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq:
      return cmp == 0;
    case CmpOp::kNe:
      return cmp != 0;
    case CmpOp::kLt:
      return cmp < 0;
    case CmpOp::kLe:
      return cmp <= 0;
    case CmpOp::kGt:
      return cmp > 0;
    case CmpOp::kGe:
      return cmp >= 0;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lane kernels: value and null lanes in, pre-sized lanes out, with the
// same answers EvalRow gives through Datum.
// ---------------------------------------------------------------------------

/// a < b and a == b for two non-NULL values, in Datum::Compare's order.
/// Each operator is built from these two, so a loop's body is one
/// comparison, with no three-way order for the compiler to fold away.
bool Less(int64_t a, int64_t b) { return a < b; }
bool Less(double a, double b) { return CompareDoubles(a, b) < 0; }
bool Less(std::string_view a, std::string_view b) { return a < b; }
bool Equal(int64_t a, int64_t b) { return a == b; }
bool Equal(double a, double b) { return CompareDoubles(a, b) == 0; }
bool Equal(std::string_view a, std::string_view b) { return a == b; }

/// out[i] = (left(i) op right(i)) ? 1 : 0 for i in [0, n), with one loop
/// per operator so nothing is dispatched per row.
template <typename L, typename R>
void CompareLanes(CmpOp op, size_t n, L left, R right, int64_t* out) {
  auto loop = [&](auto keep) {
    for (size_t i = 0; i < n; ++i) out[i] = keep(left(i), right(i));
  };
  switch (op) {
    case CmpOp::kEq:
      return loop([](auto a, auto b) { return Equal(a, b); });
    case CmpOp::kNe:
      return loop([](auto a, auto b) { return !Equal(a, b); });
    case CmpOp::kLt:
      return loop([](auto a, auto b) { return Less(a, b); });
    case CmpOp::kLe:
      return loop([](auto a, auto b) { return !Less(b, a); });
    case CmpOp::kGt:
      return loop([](auto a, auto b) { return Less(b, a); });
    case CmpOp::kGe:
      return loop([](auto a, auto b) { return !Less(a, b); });
  }
}

/// CompareLanes against a right side read from `lane`, or against
/// `value` on every row when `lane` is null (a literal).
template <typename Value, typename Lane, typename L>
void CompareTo(CmpOp op, size_t n, L left, const Lane* lane, Value value,
               int64_t* out) {
  if (lane != nullptr) {
    CompareLanes(op, n, left, [lane](size_t i) -> Value { return lane[i]; },
                 out);
  } else {
    CompareLanes(op, n, left, [value](size_t) { return value; }, out);
  }
}

/// A numeric lane as doubles: a DOUBLE lane in place, an integer lane
/// widened into `scratch` (Datum::Compare's promotion).
const double* DoublesOf(const ColumnVector& col, std::vector<double>* scratch) {
  if (col.type() == TypeId::kDouble) return col.doubles().data();
  scratch->assign(col.ints().begin(), col.ints().end());
  return scratch->data();
}

/// A BOOLEAN result from its value and null lanes; empty `nulls` means
/// null-free. A NULL row's value is 0, as AppendNull leaves it.
ColumnVector BoolLanes(std::vector<int64_t> values,
                       std::vector<uint8_t> nulls) {
  for (size_t i = 0; i < nulls.size(); ++i) values[i] &= nulls[i] ^ 1;
  return ColumnVector::TakeInts(TypeId::kBool, std::move(values),
                                std::move(nulls));
}

/// AND, OR and NOT take BOOLEAN (or other integer-lane) operands.
Status CheckTruthType(TypeId type) {
  if (IsIntegerLike(type)) return Status::OK();
  return Status::InvalidArgument(std::string("boolean operator over ") +
                                 TypeName(type));
}

/// Row i of an integer lane as SQL truth: `t` when TRUE (any nonzero
/// value, as in EvalRow), `f` when FALSE, neither when NULL.
struct Truth {
  uint8_t t;
  uint8_t f;
};
Truth TruthAt(const int64_t* values, const uint8_t* nulls, size_t i) {
  const uint8_t known = nulls[i] ^ 1;
  const uint8_t truthy = values[i] != 0 ? 1 : 0;
  return {static_cast<uint8_t>(known & truthy),
          static_cast<uint8_t>(known & (truthy ^ 1))};
}

class ColExpr : public Expr {
 public:
  ColExpr(int index, TypeId type) : index_(index), type_(type) {}

  TypeId type() const override { return type_; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    SDW_ASSIGN_OR_RETURN(const ColumnVector* col, Column(input));
    ColumnVector copy(type_);
    copy.Reserve(col->size());
    SDW_RETURN_IF_ERROR(copy.AppendRange(*col, 0, col->size()));
    return copy;
  }

  /// The referenced column of `input`, in place.
  Result<const ColumnVector*> Column(const Batch& input) const {
    if (index_ < 0 ||
        static_cast<size_t>(index_) >= input.columns.size()) {
      return Status::InvalidArgument("column ref out of range");
    }
    const ColumnVector& col = input.columns[index_];
    if (col.type() != type_) {
      return Status::Internal("column ref type mismatch");
    }
    return &col;
  }

  Result<Datum> EvalRow(const Row& row) const override {
    if (index_ < 0 || static_cast<size_t>(index_) >= row.size()) {
      return Status::InvalidArgument("column ref out of range");
    }
    return row[index_];
  }

  std::string ToString() const override {
    return "$" + std::to_string(index_);
  }

 private:
  int index_;
  TypeId type_;
};

class LitExpr : public Expr {
 public:
  explicit LitExpr(Datum value) : value_(std::move(value)) {}

  TypeId type() const override { return value_.type(); }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    ColumnVector out(value_.type());
    const size_t n = input.num_rows();
    out.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      SDW_RETURN_IF_ERROR(out.AppendDatum(value_));
    }
    return out;
  }

  Result<Datum> EvalRow(const Row& row) const override { return value_; }

  std::string ToString() const override { return value_.ToString(); }

  const Datum& value() const { return value_; }

 private:
  Datum value_;
};

class CmpExpr : public Expr {
 public:
  CmpExpr(CmpOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  TypeId type() const override { return TypeId::kBool; }

  // The type-specialized lane kernels of the compiled engine (§2.1);
  // the contrast with EvalRow's per-value Datum dispatch is the point of
  // bench A5. A column reference is read in place and a literal as one
  // value, so the common column <op> literal shape copies nothing.
  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    std::optional<ColumnVector> left_scratch;
    SDW_ASSIGN_OR_RETURN(const ColumnVector* l,
                         LaneOf(*left_, input, &left_scratch));
    const auto* lit = dynamic_cast<const LitExpr*>(right_.get());
    std::optional<ColumnVector> right_scratch;
    const ColumnVector* r = nullptr;
    if (lit == nullptr) {
      SDW_ASSIGN_OR_RETURN(r, LaneOf(*right_, input, &right_scratch));
    }
    const size_t n = l->size();
    std::vector<int64_t> values(n);
    if (lit != nullptr && lit->value().is_null()) {
      return BoolLanes(std::move(values), std::vector<uint8_t>(n, 1));
    }
    const TypeId lt = l->type();
    const TypeId rt = r != nullptr ? r->type() : lit->value().type();
    if ((lt == TypeId::kString) != (rt == TypeId::kString)) {
      return Status::InvalidArgument(std::string("cannot compare ") +
                                     TypeName(lt) + " with " + TypeName(rt));
    }
    int64_t* out = values.data();
    if (lt == TypeId::kString) {
      auto left = [l](size_t i) { return l->StringAt(i); };
      if (r != nullptr) {
        CompareLanes(op_, n, left, [r](size_t i) { return r->StringAt(i); },
                     out);
      } else {
        const std::string_view value = lit->value().string_value();
        CompareLanes(op_, n, left, [value](size_t) { return value; }, out);
      }
    } else if (lt == TypeId::kDouble || rt == TypeId::kDouble) {
      std::vector<double> lwide;
      std::vector<double> rwide;
      const double* lv = DoublesOf(*l, &lwide);
      CompareTo<double>(op_, n, [lv](size_t i) { return lv[i]; },
                        r != nullptr ? DoublesOf(*r, &rwide) : nullptr,
                        r != nullptr ? 0.0 : lit->value().AsDouble(), out);
    } else {
      const int64_t* lv = l->ints().data();
      CompareTo<int64_t>(op_, n, [lv](size_t i) { return lv[i]; },
                         r != nullptr ? r->ints().data() : nullptr,
                         r != nullptr ? 0 : lit->value().int_value(), out);
    }
    // NULL on either side compares to NULL.
    const bool right_nulls = r != nullptr && r->has_nulls();
    if (!l->has_nulls() && !right_nulls) {
      return BoolLanes(std::move(values), {});
    }
    std::vector<uint8_t> nulls(l->nulls());
    if (right_nulls) {
      const uint8_t* rn = r->nulls().data();
      for (size_t i = 0; i < n; ++i) nulls[i] |= rn[i];
    }
    return BoolLanes(std::move(values), std::move(nulls));
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum l, left_->EvalRow(row));
    SDW_ASSIGN_OR_RETURN(Datum r, right_->EvalRow(row));
    if (l.is_null() || r.is_null()) return Datum::Null();
    if ((l.type() == TypeId::kString) != (r.type() == TypeId::kString)) {
      return Status::InvalidArgument(std::string("cannot compare ") +
                                     TypeName(l.type()) + " with " +
                                     TypeName(r.type()));
    }
    return Datum::Bool(ApplyCmp(op_, l.Compare(r)));
  }

  std::string ToString() const override {
    return "(" + left_->ToString() + " " + CmpOpName(op_) + " " +
           right_->ToString() + ")";
  }

 private:
  /// The lane `expr` yields over `input`: a column reference's lane in
  /// place, anything else evaluated into `*scratch`.
  static Result<const ColumnVector*> LaneOf(
      const Expr& expr, const Batch& input,
      std::optional<ColumnVector>* scratch) {
    if (const auto* col = dynamic_cast<const ColExpr*>(&expr)) {
      return col->Column(input);
    }
    SDW_ASSIGN_OR_RETURN(ColumnVector v, expr.EvalBatch(input));
    return &scratch->emplace(std::move(v));
  }

  CmpOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

enum class BoolOp { kAnd, kOr };

class BoolExpr : public Expr {
 public:
  BoolExpr(BoolOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  TypeId type() const override { return TypeId::kBool; }

  // SQL three-valued logic lane by lane: AND is FALSE if either side
  // is FALSE, TRUE if both are TRUE, else NULL; OR mirrors it.
  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    SDW_ASSIGN_OR_RETURN(ColumnVector l, left_->EvalBatch(input));
    SDW_ASSIGN_OR_RETURN(ColumnVector r, right_->EvalBatch(input));
    SDW_RETURN_IF_ERROR(CheckTruthType(l.type()));
    SDW_RETURN_IF_ERROR(CheckTruthType(r.type()));
    const size_t n = l.size();
    const int64_t* lv = l.ints().data();
    const int64_t* rv = r.ints().data();
    std::vector<int64_t> values(n);
    const bool is_and = op_ == BoolOp::kAnd;
    if (!l.has_nulls() && !r.has_nulls()) {  // two-valued on null-free lanes
      if (is_and) {
        for (size_t i = 0; i < n; ++i) values[i] = (lv[i] != 0) & (rv[i] != 0);
      } else {
        for (size_t i = 0; i < n; ++i) values[i] = (lv[i] != 0) | (rv[i] != 0);
      }
      return BoolLanes(std::move(values), {});
    }
    const uint8_t* ln = l.nulls().data();
    const uint8_t* rn = r.nulls().data();
    std::vector<uint8_t> nulls(n);
    for (size_t i = 0; i < n; ++i) {
      const Truth a = TruthAt(lv, ln, i);
      const Truth b = TruthAt(rv, rn, i);
      const uint8_t t = is_and ? a.t & b.t : a.t | b.t;
      const uint8_t f = is_and ? a.f | b.f : a.f & b.f;
      values[i] = t;
      nulls[i] = (t | f) ^ 1;
    }
    return BoolLanes(std::move(values), std::move(nulls));
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum l, left_->EvalRow(row));
    SDW_ASSIGN_OR_RETURN(Datum r, right_->EvalRow(row));
    SDW_RETURN_IF_ERROR(CheckTruthType(left_->type()));
    SDW_RETURN_IF_ERROR(CheckTruthType(right_->type()));
    return Combine(l, r);
  }

  std::string ToString() const override {
    return "(" + left_->ToString() +
           (op_ == BoolOp::kAnd ? " AND " : " OR ") + right_->ToString() +
           ")";
  }

 private:
  // SQL three-valued logic.
  Datum Combine(const Datum& l, const Datum& r) const {
    const bool lt = !l.is_null() && l.int_value() != 0;
    const bool rt = !r.is_null() && r.int_value() != 0;
    const bool lf = !l.is_null() && l.int_value() == 0;
    const bool rf = !r.is_null() && r.int_value() == 0;
    if (op_ == BoolOp::kAnd) {
      if (lf || rf) return Datum::Bool(false);
      if (lt && rt) return Datum::Bool(true);
      return Datum::Null();
    }
    if (lt || rt) return Datum::Bool(true);
    if (lf && rf) return Datum::Bool(false);
    return Datum::Null();
  }

  BoolOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr input) : input_(std::move(input)) {}

  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    SDW_ASSIGN_OR_RETURN(ColumnVector v, input_->EvalBatch(input));
    SDW_RETURN_IF_ERROR(CheckTruthType(v.type()));
    const size_t n = v.size();
    const int64_t* lane = v.ints().data();
    const uint8_t* nulls = v.nulls().data();
    std::vector<int64_t> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = TruthAt(lane, nulls, i).f;
    return BoolLanes(std::move(values), v.nulls());
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum v, input_->EvalRow(row));
    SDW_RETURN_IF_ERROR(CheckTruthType(input_->type()));
    if (v.is_null()) return Datum::Null();
    return Datum::Bool(v.int_value() == 0);
  }

  std::string ToString() const override {
    return "NOT " + input_->ToString();
  }

 private:
  ExprPtr input_;
};

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {
    const bool any_double = left_->type() == TypeId::kDouble ||
                            right_->type() == TypeId::kDouble;
    type_ = (any_double || op == ArithOp::kDiv) ? TypeId::kDouble
                                                : TypeId::kInt64;
  }

  TypeId type() const override { return type_; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    SDW_ASSIGN_OR_RETURN(ColumnVector l, left_->EvalBatch(input));
    SDW_ASSIGN_OR_RETURN(ColumnVector r, right_->EvalBatch(input));
    if (l.type() == TypeId::kString || r.type() == TypeId::kString) {
      return Status::InvalidArgument("arithmetic on strings");
    }
    ColumnVector out(type_);
    out.Reserve(l.size());
    for (size_t i = 0; i < l.size(); ++i) {
      if (l.IsNull(i) || r.IsNull(i)) {
        out.AppendNull();
        continue;
      }
      if (type_ == TypeId::kDouble) {
        double a = l.type() == TypeId::kDouble ? l.DoubleAt(i)
                                               : static_cast<double>(l.IntAt(i));
        double b = r.type() == TypeId::kDouble ? r.DoubleAt(i)
                                               : static_cast<double>(r.IntAt(i));
        out.AppendDouble(ApplyDouble(a, b));
      } else {
        out.AppendInt(ApplyInt(l.IntAt(i), r.IntAt(i)));
      }
    }
    return out;
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum l, left_->EvalRow(row));
    SDW_ASSIGN_OR_RETURN(Datum r, right_->EvalRow(row));
    if (l.is_null() || r.is_null()) return Datum::Null();
    if (l.type() == TypeId::kString || r.type() == TypeId::kString) {
      return Status::InvalidArgument("arithmetic on strings");
    }
    if (type_ == TypeId::kDouble) {
      return Datum::Double(ApplyDouble(l.AsDouble(), r.AsDouble()));
    }
    return Datum::Int64(ApplyInt(l.int_value(), r.int_value()));
  }

  std::string ToString() const override {
    const char* names = "+-*/";
    return "(" + left_->ToString() + " " +
           std::string(1, names[static_cast<int>(op_)]) + " " +
           right_->ToString() + ")";
  }

 private:
  // Integer arithmetic wraps (two's complement) rather than invoking
  // undefined behaviour on overflow.
  int64_t ApplyInt(int64_t a, int64_t b) const {
    const uint64_t ua = static_cast<uint64_t>(a);
    const uint64_t ub = static_cast<uint64_t>(b);
    switch (op_) {
      case ArithOp::kAdd:
        return static_cast<int64_t>(ua + ub);
      case ArithOp::kSub:
        return static_cast<int64_t>(ua - ub);
      case ArithOp::kMul:
        return static_cast<int64_t>(ua * ub);
      case ArithOp::kDiv:
        return b == 0 ? 0 : a / b;  // unreachable: kDiv types as double
    }
    return 0;
  }
  double ApplyDouble(double a, double b) const {
    switch (op_) {
      case ArithOp::kAdd:
        return a + b;
      case ArithOp::kSub:
        return a - b;
      case ArithOp::kMul:
        return a * b;
      case ArithOp::kDiv:
        return b == 0 ? 0.0 : a / b;
    }
    return 0;
  }

  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
  TypeId type_;
};

class IsNullExpr : public Expr {
 public:
  explicit IsNullExpr(ExprPtr input) : input_(std::move(input)) {}

  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    SDW_ASSIGN_OR_RETURN(ColumnVector v, input_->EvalBatch(input));
    ColumnVector out(TypeId::kBool);
    out.Reserve(v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      out.AppendInt(v.IsNull(i) ? 1 : 0);
    }
    return out;
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum v, input_->EvalRow(row));
    return Datum::Bool(v.is_null());
  }

  std::string ToString() const override {
    return input_->ToString() + " IS NULL";
  }

 private:
  ExprPtr input_;
};

class StartsWithExpr : public Expr {
 public:
  StartsWithExpr(ExprPtr input, std::string prefix)
      : input_(std::move(input)), prefix_(std::move(prefix)) {}

  TypeId type() const override { return TypeId::kBool; }

  Result<ColumnVector> EvalBatch(const Batch& input) const override {
    SDW_ASSIGN_OR_RETURN(ColumnVector v, input_->EvalBatch(input));
    if (v.type() != TypeId::kString) {
      return Status::InvalidArgument("STARTS WITH on non-string");
    }
    ColumnVector out(TypeId::kBool);
    out.Reserve(v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      if (v.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendInt(v.StringAt(i).starts_with(prefix_) ? 1 : 0);
      }
    }
    return out;
  }

  Result<Datum> EvalRow(const Row& row) const override {
    SDW_ASSIGN_OR_RETURN(Datum v, input_->EvalRow(row));
    if (v.is_null()) return Datum::Null();
    if (v.type() != TypeId::kString) {
      return Status::InvalidArgument("STARTS WITH on non-string");
    }
    return Datum::Bool(v.string_value().starts_with(prefix_));
  }

  std::string ToString() const override {
    return input_->ToString() + " LIKE '" + prefix_ + "%'";
  }

 private:
  ExprPtr input_;
  std::string prefix_;
};

}  // namespace

ExprPtr Col(int index, TypeId type) {
  return std::make_shared<ColExpr>(index, type);
}
ExprPtr Lit(Datum value) { return std::make_shared<LitExpr>(std::move(value)); }
ExprPtr Cmp(CmpOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<CmpExpr>(op, std::move(left), std::move(right));
}
ExprPtr And(ExprPtr left, ExprPtr right) {
  return std::make_shared<BoolExpr>(BoolOp::kAnd, std::move(left),
                                    std::move(right));
}
ExprPtr Or(ExprPtr left, ExprPtr right) {
  return std::make_shared<BoolExpr>(BoolOp::kOr, std::move(left),
                                    std::move(right));
}
ExprPtr Not(ExprPtr input) { return std::make_shared<NotExpr>(std::move(input)); }
ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ArithExpr>(op, std::move(left), std::move(right));
}
ExprPtr IsNull(ExprPtr input) {
  return std::make_shared<IsNullExpr>(std::move(input));
}
ExprPtr StartsWith(ExprPtr input, std::string prefix) {
  return std::make_shared<StartsWithExpr>(std::move(input),
                                          std::move(prefix));
}

}  // namespace sdw::exec
