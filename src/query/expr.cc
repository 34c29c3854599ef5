#include "query/expr.h"

#include <cmath>

namespace sstore {

namespace {

class ColExpr final : public Expr {
 public:
  explicit ColExpr(size_t index) : index_(index) {}
  Result<Value> Eval(const Tuple& row) const override {
    if (index_ >= row.size()) {
      return Status::OutOfRange("column " + std::to_string(index_) +
                                " out of range for row of arity " +
                                std::to_string(row.size()));
    }
    return row[index_];
  }
  std::string ToString() const override {
    return "col" + std::to_string(index_);
  }
  size_t index() const { return index_; }

 private:
  size_t index_;
};

class LitExpr final : public Expr {
 public:
  explicit LitExpr(Value v) : value_(std::move(v)) {}
  Result<Value> Eval(const Tuple&) const override { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  const Value& value() const { return value_; }

 private:
  Value value_;
};

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
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

class CmpExpr : public Expr {
 public:
  CmpExpr(CmpOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Eval(const Tuple& row) const override {
    SSTORE_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row));
    SSTORE_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row));
    if (l.is_null() || r.is_null()) return Value::BigInt(0);
    int c = l.Compare(r);
    bool out = false;
    switch (op_) {
      case CmpOp::kEq:
        out = c == 0;
        break;
      case CmpOp::kNe:
        out = c != 0;
        break;
      case CmpOp::kLt:
        out = c < 0;
        break;
      case CmpOp::kLe:
        out = c <= 0;
        break;
      case CmpOp::kGt:
        out = c > 0;
        break;
      case CmpOp::kGe:
        out = c >= 0;
        break;
    }
    return Value::BigInt(out ? 1 : 0);
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + CmpOpName(op_) + " " +
           rhs_->ToString() + ")";
  }

  bool AsColumnEquality(size_t* col, const Value** lit) const override {
    if (op_ != CmpOp::kEq) return false;
    const auto* c = dynamic_cast<const ColExpr*>(lhs_.get());
    const auto* v = dynamic_cast<const LitExpr*>(rhs_.get());
    if (c == nullptr || v == nullptr) {
      c = dynamic_cast<const ColExpr*>(rhs_.get());
      v = dynamic_cast<const LitExpr*>(lhs_.get());
    }
    if (c == nullptr || v == nullptr) return false;
    *col = c->index();
    *lit = &v->value();
    return true;
  }

 private:
  CmpOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  return "?";
}

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Eval(const Tuple& row) const override {
    SSTORE_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row));
    SSTORE_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row));
    if (l.is_null() || r.is_null()) return Value::Null();
    if (IsIntLike(l.type()) && IsIntLike(r.type())) {
      int64_t a = l.as_int64(), b = r.as_int64();
      switch (op_) {
        case ArithOp::kAdd:
          return Value::BigInt(a + b);
        case ArithOp::kSub:
          return Value::BigInt(a - b);
        case ArithOp::kMul:
          return Value::BigInt(a * b);
        case ArithOp::kDiv:
          if (b == 0) return Status::InvalidArgument("integer division by zero");
          return Value::BigInt(a / b);
        case ArithOp::kMod:
          if (b == 0) return Status::InvalidArgument("modulo by zero");
          return Value::BigInt(a % b);
      }
    }
    SSTORE_ASSIGN_OR_RETURN(double a, l.ToNumeric());
    SSTORE_ASSIGN_OR_RETURN(double b, r.ToNumeric());
    switch (op_) {
      case ArithOp::kAdd:
        return Value::Double(a + b);
      case ArithOp::kSub:
        return Value::Double(a - b);
      case ArithOp::kMul:
        return Value::Double(a * b);
      case ArithOp::kDiv:
        if (b == 0.0) return Status::InvalidArgument("division by zero");
        return Value::Double(a / b);
      case ArithOp::kMod:
        if (b == 0.0) return Status::InvalidArgument("modulo by zero");
        return Value::Double(std::fmod(a, b));
    }
    return Status::Internal("unreachable arithmetic op");
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + ArithOpName(op_) + " " +
           rhs_->ToString() + ")";
  }

 private:
  ArithOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

enum class LogicOp { kAnd, kOr, kNot };

class LogicExpr : public Expr {
 public:
  LogicExpr(LogicOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Eval(const Tuple& row) const override {
    SSTORE_ASSIGN_OR_RETURN(bool l, EvalAsBool(lhs_, row));
    switch (op_) {
      case LogicOp::kNot:
        return Value::BigInt(l ? 0 : 1);
      case LogicOp::kAnd: {
        if (!l) return Value::BigInt(0);  // short-circuit
        SSTORE_ASSIGN_OR_RETURN(bool r, EvalAsBool(rhs_, row));
        return Value::BigInt(r ? 1 : 0);
      }
      case LogicOp::kOr: {
        if (l) return Value::BigInt(1);
        SSTORE_ASSIGN_OR_RETURN(bool r, EvalAsBool(rhs_, row));
        return Value::BigInt(r ? 1 : 0);
      }
    }
    return Status::Internal("unreachable logic op");
  }

  std::string ToString() const override {
    switch (op_) {
      case LogicOp::kNot:
        return "NOT " + lhs_->ToString();
      case LogicOp::kAnd:
        return "(" + lhs_->ToString() + " AND " + rhs_->ToString() + ")";
      case LogicOp::kOr:
        return "(" + lhs_->ToString() + " OR " + rhs_->ToString() + ")";
    }
    return "?";
  }

 private:
  static Result<bool> EvalAsBool(const ExprPtr& e, const Tuple& row) {
    SSTORE_ASSIGN_OR_RETURN(Value v, e->Eval(row));
    if (v.is_null()) return false;
    SSTORE_ASSIGN_OR_RETURN(double d, v.ToNumeric());
    return d != 0.0;
  }

  LogicOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class IsNullExpr : public Expr {
 public:
  explicit IsNullExpr(ExprPtr operand) : operand_(std::move(operand)) {}
  Result<Value> Eval(const Tuple& row) const override {
    SSTORE_ASSIGN_OR_RETURN(Value v, operand_->Eval(row));
    return Value::BigInt(v.is_null() ? 1 : 0);
  }
  std::string ToString() const override {
    return operand_->ToString() + " IS NULL";
  }

 private:
  ExprPtr operand_;
};

}  // namespace

ExprPtr Col(size_t index) { return std::make_shared<ColExpr>(index); }
ExprPtr Lit(Value v) { return std::make_shared<LitExpr>(std::move(v)); }

ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<CmpExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicExpr>(LogicOp::kAnd, std::move(lhs),
                                     std::move(rhs));
}

ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicExpr>(LogicOp::kOr, std::move(lhs),
                                     std::move(rhs));
}

ExprPtr Not(ExprPtr operand) {
  return std::make_shared<LogicExpr>(LogicOp::kNot, std::move(operand),
                                     nullptr);
}

ExprPtr IsNull(ExprPtr operand) {
  return std::make_shared<IsNullExpr>(std::move(operand));
}

Result<bool> EvalPredicate(const ExprPtr& expr, const Tuple& row) {
  if (expr == nullptr) return true;
  SSTORE_ASSIGN_OR_RETURN(Value v, expr->Eval(row));
  if (v.is_null()) return false;
  SSTORE_ASSIGN_OR_RETURN(double d, v.ToNumeric());
  return d != 0.0;
}

}  // namespace sstore
