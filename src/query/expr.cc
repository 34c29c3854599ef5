#include "query/expr.h"

#include <cmath>
#include <utility>

namespace sstore {

namespace {

Status ColumnOutOfRange(size_t index, const Tuple& row) {
  return Status::OutOfRange("column " + std::to_string(index) +
                            " out of range for row of arity " +
                            std::to_string(row.size()));
}

class ColExpr final : public Expr {
 public:
  explicit ColExpr(size_t index) : Expr(Shape::kColumn), index_(index) {}
  Result<Value> Eval(const Tuple& row) const override {
    if (index_ >= row.size()) return ColumnOutOfRange(index_, row);
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
  explicit LitExpr(Value v) : Expr(Shape::kLiteral), value_(std::move(v)) {}
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

/// Whether `op` holds between two values that Value::Compare ranks `c`.
bool Holds(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

class CmpExpr : public Expr {
 public:
  CmpExpr(CmpOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(Shape::kCompare),
        op_(op),
        lhs_(Classify(std::move(lhs))),
        rhs_(Classify(std::move(rhs))) {}

  Result<Value> Eval(const Tuple& row) const override {
    SSTORE_ASSIGN_OR_RETURN(bool out, Test(row));
    return Value::BigInt(out ? 1 : 0);
  }

  /// The one comparison: NULL on either side is false, otherwise `op_` on
  /// Value::Compare. Column and literal operands are read in place.
  Result<bool> Test(const Tuple& row) const override {
    Value lbuf, rbuf;
    const Value* l = nullptr;
    const Value* r = nullptr;
    SSTORE_RETURN_NOT_OK(Fetch(lhs_, row, &lbuf, &l));
    SSTORE_RETURN_NOT_OK(Fetch(rhs_, row, &rbuf, &r));
    if (l->is_null() || r->is_null()) return false;
    return Holds(op_, l->Compare(*r));
  }

  std::string ToString() const override {
    return "(" + lhs_.expr->ToString() + " " + CmpOpName(op_) + " " +
           rhs_.expr->ToString() + ")";
  }

  CmpOp op() const { return op_; }
  const Expr* lhs() const { return lhs_.expr.get(); }
  const Expr* rhs() const { return rhs_.expr.get(); }

  bool AsColumnEquality(size_t* col, const Value** lit) const override {
    if (op_ != CmpOp::kEq) return false;
    const Operand* c = &lhs_;
    const Operand* v = &rhs_;
    if (c->lit != nullptr) std::swap(c, v);
    if (c->col == nullptr || v->lit == nullptr) return false;
    *col = c->col->index();
    *lit = v->lit;
    return true;
  }

 private:
  /// An operand and, when it is a column or a literal, that node, found
  /// once at construction.
  struct Operand {
    ExprPtr expr;
    const ColExpr* col = nullptr;
    const Value* lit = nullptr;
  };

  static Operand Classify(ExprPtr e) {
    Operand o;
    if (e->shape() == Shape::kColumn) {
      o.col = static_cast<const ColExpr*>(e.get());
    } else if (e->shape() == Shape::kLiteral) {
      o.lit = &static_cast<const LitExpr*>(e.get())->value();
    }
    o.expr = std::move(e);
    return o;
  }

  /// Points `*out` at the operand's value for `row`: into the row or the
  /// literal when it can, else at `*buf` holding the operand's Eval.
  static Status Fetch(const Operand& o, const Tuple& row, Value* buf,
                      const Value** out) {
    if (o.lit != nullptr) {
      *out = o.lit;
    } else if (o.col != nullptr) {
      if (o.col->index() >= row.size()) {
        return ColumnOutOfRange(o.col->index(), row);
      }
      *out = &row[o.col->index()];
    } else {
      SSTORE_ASSIGN_OR_RETURN(*buf, o.expr->Eval(row));
      *out = buf;
    }
    return Status::OK();
  }

  CmpOp op_;
  Operand lhs_;
  Operand rhs_;
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
      : Expr(Shape::kLogic),
        op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Eval(const Tuple& row) const override {
    SSTORE_ASSIGN_OR_RETURN(bool out, Test(row));
    return Value::BigInt(out ? 1 : 0);
  }

  /// Each operand is tested as a predicate; AND and OR short-circuit.
  Result<bool> Test(const Tuple& row) const override {
    SSTORE_ASSIGN_OR_RETURN(bool l, lhs_->Test(row));
    switch (op_) {
      case LogicOp::kNot:
        return !l;
      case LogicOp::kAnd:
        if (!l) return false;
        return rhs_->Test(row);
      case LogicOp::kOr:
        if (l) return true;
        return rhs_->Test(row);
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

  LogicOp op() const { return op_; }
  const Expr* lhs() const { return lhs_.get(); }
  const Expr* rhs() const { return rhs_.get(); }

 private:
  LogicOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class IsNullExpr : public Expr {
 public:
  explicit IsNullExpr(ExprPtr operand)
      : Expr(Shape::kIsNull), operand_(std::move(operand)) {}
  Result<Value> Eval(const Tuple& row) const override {
    SSTORE_ASSIGN_OR_RETURN(Value v, operand_->Eval(row));
    return Value::BigInt(v.is_null() ? 1 : 0);
  }
  std::string ToString() const override {
    return operand_->ToString() + " IS NULL";
  }
  const Expr* operand() const { return operand_.get(); }

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

Result<bool> Expr::Test(const Tuple& row) const {
  SSTORE_ASSIGN_OR_RETURN(Value v, Eval(row));
  if (v.is_null()) return false;
  SSTORE_ASSIGN_OR_RETURN(double d, v.ToNumeric());
  return d != 0.0;
}

Result<bool> EvalPredicate(const ExprPtr& expr, const Tuple& row) {
  if (expr == nullptr) return true;
  return expr->Test(row);
}

Filter::Filter(const ExprPtr& predicate, size_t arity) : arity_(arity) {
  if (predicate == nullptr) return;
  root_ = Compile(predicate.get());
  empty_ = false;
}

Filter::Operand Filter::Classify(const Expr* e) const {
  Operand o;
  if (e->shape() == Expr::Shape::kColumn &&
      static_cast<const ColExpr*>(e)->index() < arity_) {
    o.kind = Operand::kColumn;
    o.column = static_cast<uint32_t>(static_cast<const ColExpr*>(e)->index());
  } else if (e->shape() == Expr::Shape::kLiteral) {
    o.kind = Operand::kLiteral;
    o.lit = &static_cast<const LitExpr*>(e)->value();
  } else {
    o.expr = e;  // a column past the arity fails in ColExpr::Eval
  }
  return o;
}

uint32_t Filter::CompileChild(const Expr* e) {
  Node n = Compile(e);
  children_.push_back(n);
  return static_cast<uint32_t>(children_.size() - 1);
}

Filter::Node Filter::Compile(const Expr* e) {
  Node n;
  if (e->shape() == Expr::Shape::kCompare) {
    const auto* c = static_cast<const CmpExpr*>(e);
    n.kind = Node::kCmp;
    for (int sign = -1; sign <= 1; ++sign) {
      if (Holds(c->op(), sign)) n.accept |= uint8_t{1} << (sign + 1);
    }
    n.lhs = Classify(c->lhs());
    n.rhs = Classify(c->rhs());
    if (n.lhs.kind == Operand::kLiteral && n.rhs.kind == Operand::kColumn) {
      // lit OP col == col OP' lit, where OP' swaps less and greater (only
      // the column can fail, so the order of the reads does not matter).
      std::swap(n.lhs, n.rhs);
      n.accept = (n.accept & 2) | (n.accept & 1) << 2 | (n.accept & 4) >> 2;
    }
    if (n.lhs.kind == Operand::kColumn && n.rhs.kind == Operand::kColumn) {
      n.kind = Node::kColCol;
    } else if (n.lhs.kind == Operand::kColumn &&
               n.rhs.kind == Operand::kLiteral) {
      n.kind = IsIntLike(n.rhs.lit->type()) ? Node::kColInt : Node::kColLit;
      if (n.kind == Node::kColInt) n.imm = n.rhs.lit->as_int64();
    }
  } else if (e->shape() == Expr::Shape::kLogic) {
    const auto* l = static_cast<const LogicExpr*>(e);
    n.kind = l->op() == LogicOp::kAnd  ? Node::kAnd
             : l->op() == LogicOp::kOr ? Node::kOr
                                       : Node::kNot;
    n.left = CompileChild(l->lhs());
    if (n.kind != Node::kNot) n.right = CompileChild(l->rhs());
  } else if (e->shape() == Expr::Shape::kIsNull) {
    n.kind = Node::kIsNull;
    n.lhs = Classify(static_cast<const IsNullExpr*>(e)->operand());
  } else {
    n.kind = Node::kTruth;
    n.lhs = Classify(e);
  }
  return n;
}

bool Filter::Fetch(const Operand& o, const Tuple& row, Value* buf,
                   const Value** out, Status* err) {
  switch (o.kind) {
    case Operand::kColumn:
      *out = &row[o.column];
      return true;
    case Operand::kLiteral:
      *out = o.lit;
      return true;
    case Operand::kEval:
      break;
  }
  Result<Value> v = o.expr->Eval(row);
  if (!v.ok()) {
    *err = v.status();
    return false;
  }
  *buf = std::move(*v);
  *out = buf;
  return true;
}

bool Filter::EvalOther(const Node& n, const Tuple& row, Status* err) const {
  switch (n.kind) {
    case Node::kAnd:
      return Eval(children_[n.left], row, err) &&
             Eval(children_[n.right], row, err);
    case Node::kOr:
      if (Eval(children_[n.left], row, err)) return true;
      return err->ok() && Eval(children_[n.right], row, err);
    case Node::kNot:
      return !Eval(children_[n.left], row, err) && err->ok();
    default:
      break;
  }
  Value lbuf, rbuf;
  const Value* l = nullptr;
  const Value* r = nullptr;
  if (!Fetch(n.lhs, row, &lbuf, &l, err)) return false;
  if (n.kind == Node::kIsNull) return l->is_null();
  if (n.kind == Node::kTruth) {
    if (l->is_null()) return false;
    if (IsIntLike(l->type())) return l->as_int64() != 0;
    if (l->type() == ValueType::kDouble) return l->as_double() != 0.0;
    *err = l->ToNumeric().status();
    return false;
  }
  // kCmp: both operands are read before the NULL test, as CmpExpr::Test
  // does.
  if (!Fetch(n.rhs, row, &rbuf, &r, err) || l->is_null() || r->is_null()) {
    return false;
  }
  return (n.accept >> (l->Compare(*r) + 1)) & 1;
}

}  // namespace sstore
