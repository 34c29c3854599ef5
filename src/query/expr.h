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

  /// What a node is, so that Filter's compiler and a comparison's operand
  /// classification read a tag instead of trying dynamic_casts.
  enum class Shape : uint8_t {
    kOther, kColumn, kLiteral, kCompare, kLogic, kIsNull
  };
  Shape shape() const { return shape_; }

 protected:
  Expr() = default;
  explicit Expr(Shape shape) : shape_(shape) {}

 private:
  Shape shape_ = Shape::kOther;
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

/// A predicate compiled once per query into flat, non-virtual nodes (the
/// root inline, the rest in one array), for the executor's per-row loops
/// over a table. `col OP lit`, `col OP col`, AND/OR/NOT and IS NULL read
/// the row in place: no virtual call, Result or heap allocation per row.
/// Any other operand (arithmetic, or a column past the rows' arity, which
/// fails as each row is read) is evaluated in place through Expr::Eval.
/// Matches agrees with EvalPredicate on every row, error status included.
class Filter {
 public:
  /// Compiles `predicate` (null matches every row) for rows of `arity`
  /// values, a table's rows. The predicate must outlive the filter
  /// (literals are read in place).
  Filter(const ExprPtr& predicate, size_t arity);

  /// Whether every row matches (there is no predicate).
  bool empty() const { return empty_; }

  /// Whether `row`, of the compiled arity, matches. On an error, sets
  /// `*err` and returns false.
  [[gnu::always_inline]] bool Matches(const Tuple& row, Status* err) const {
    return empty_ || Eval(root_, row, err);
  }

 private:
  /// Where a comparison or IS NULL reads an operand's value from.
  struct Operand {
    enum Kind : uint8_t { kColumn, kLiteral, kEval } kind = kEval;
    uint32_t column = 0;          // kColumn: below the arity
    const Value* lit = nullptr;   // kLiteral
    const Expr* expr = nullptr;   // kEval
  };
  /// One node. The comparison kinds name their operands' shapes:
  /// kColInt is `column OP literal` with a BIGINT/TIMESTAMP literal (its
  /// int64 in `imm`), kColLit the same with any other literal, kColCol
  /// `column OP column`; `lit OP col` is stored flipped as `col OP' lit`.
  /// kCmp is any other comparison. Children of AND/OR/NOT are indexes into
  /// children_; IS NULL and kTruth (anything else used as a predicate) read
  /// `lhs`.
  struct Node {
    enum Kind : uint8_t {
      kColInt, kColLit, kColCol, kCmp, kAnd, kOr, kNot, kIsNull, kTruth
    };
    Kind kind = kTruth;
    /// A comparison's outcomes that match, as bits 1 << (Compare + 1):
    /// bit 0 less, bit 1 equal, bit 2 greater.
    uint8_t accept = 0;
    uint32_t left = 0, right = 0;
    int64_t imm = 0;
    Operand lhs, rhs;
  };

  Operand Classify(const Expr* e) const;
  /// `e`'s node, its children appended to children_ first.
  Node Compile(const Expr* e);
  /// Compiles `e` into children_ and returns its index there.
  uint32_t CompileChild(const Expr* e);

  /// Comparisons of columns and literals are answered inline (forced, so
  /// the per-row loops never call out for them); the other kinds go to
  /// EvalOther.
  [[gnu::always_inline]] bool Eval(const Node& n, const Tuple& row,
                                   Status* err) const {
    int c;
    if (n.kind == Node::kColInt || n.kind == Node::kColLit) {
      const Value& v = row[n.lhs.column];
      if (n.kind == Node::kColInt && IsIntLike(v.type())) {
        c = (v.as_int64() > n.imm) - (v.as_int64() < n.imm);
      } else if (v.is_null() || n.rhs.lit->is_null()) {
        return false;
      } else {
        c = v.Compare(*n.rhs.lit);
      }
    } else if (n.kind == Node::kColCol) {
      const Value& a = row[n.lhs.column];
      const Value& b = row[n.rhs.column];
      if (a.is_null() || b.is_null()) return false;
      c = a.Compare(b);
    } else {
      return EvalOther(n, row, err);
    }
    return (n.accept >> (c + 1)) & 1;
  }
  bool EvalOther(const Node& n, const Tuple& row, Status* err) const;
  /// Points `*out` at the operand's value for `row`: into the row or the
  /// literal, or at `*buf` holding its Eval. False, with `*err` set, when
  /// that fails.
  static bool Fetch(const Operand& o, const Tuple& row, Value* buf,
                    const Value** out, Status* err);

  size_t arity_;

  bool empty_ = true;
  Node root_;
  /// Every node below the root, so a one-node predicate (the common
  /// `col OP lit`) compiles with no allocation.
  std::vector<Node> children_;
};

}  // namespace sstore

#endif  // SSTORE_QUERY_EXPR_H_
