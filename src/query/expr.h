#ifndef SSTORE_QUERY_EXPR_H_
#define SSTORE_QUERY_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace sstore {

/// Comparison operators for predicate expressions.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Arithmetic operators. Integer operands produce BIGINT (kDiv/kMod by zero
/// is an error); mixed or double operands produce DOUBLE.
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };

/// A scalar expression evaluated against one row. Booleans are represented
/// as BIGINT 0/1 (SQL-style, but without three-valued logic: comparisons
/// against NULL evaluate to false).
class Expr {
 public:
  virtual ~Expr() = default;
  virtual Result<Value> Eval(const Tuple& row) const = 0;
  virtual std::string ToString() const = 0;

  /// Predicate entry point: Eval, then truthiness (NULL is false, a number
  /// is true when non-zero, any other value is an error). Comparisons and
  /// logic answer it without building the intermediate Value; the result
  /// and status code are the same either way.
  virtual Result<bool> Test(const Tuple& row) const;

  /// Access-path hook: true when this expression is `column = literal` in
  /// either operand order, with `*col` and `*lit` set to its parts. `*lit`
  /// points into this expression and lives as long as it does.
  virtual bool AsColumnEquality(size_t* /*col*/, const Value** /*lit*/) const {
    return false;
  }
};

using ExprPtr = std::shared_ptr<const Expr>;

/// References the `index`-th column of the input row.
ExprPtr Col(size_t index);
/// A literal constant.
ExprPtr Lit(Value v);
inline ExprPtr LitInt(int64_t v) { return Lit(Value::BigInt(v)); }
inline ExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }
inline ExprPtr LitString(std::string v) {
  return Lit(Value::String(std::move(v)));
}

ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs);
inline ExprPtr Eq(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kEq, l, r); }
inline ExprPtr Ne(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kNe, l, r); }
inline ExprPtr Lt(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kLt, l, r); }
inline ExprPtr Le(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kLe, l, r); }
inline ExprPtr Gt(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kGt, l, r); }
inline ExprPtr Ge(ExprPtr l, ExprPtr r) { return Cmp(CmpOp::kGe, l, r); }

ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
inline ExprPtr Add(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kAdd, l, r); }
inline ExprPtr Sub(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kSub, l, r); }
inline ExprPtr Mul(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kMul, l, r); }
inline ExprPtr Div(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kDiv, l, r); }
inline ExprPtr Mod(ExprPtr l, ExprPtr r) { return Arith(ArithOp::kMod, l, r); }

ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr operand);
ExprPtr IsNull(ExprPtr operand);

/// Evaluates `expr` as a predicate: non-zero numeric => true; NULL => false.
Result<bool> EvalPredicate(const ExprPtr& expr, const Tuple& row);

}  // namespace sstore

#endif  // SSTORE_QUERY_EXPR_H_
