/// \file expr.h
/// \brief Typed, bound expression trees evaluated by the execution engine
/// and shipped (serialized) to component sources for pushdown.
///
/// A bound expression references input columns by position. The binder
/// (expr/binder.h) produces these from parser ASTs; the planner rewrites
/// them (column remapping, conjunct splitting); wire/plan_serde.cc moves
/// them across the simulated network.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "types/row.h"
#include "types/value.h"

namespace gisql {

enum class ExprKind : uint8_t {
  kColumn,   ///< input column by position
  kLiteral,  ///< constant
  kCompare,  ///< children[0] <op> children[1]
  kArith,    ///< children[0] <op> children[1]
  kLogic,    ///< AND / OR (Kleene)
  kNot,      ///< NOT children[0]
  kIsNull,   ///< children[0] IS [NOT] NULL
  kLike,     ///< children[0] [NOT] LIKE children[1]
  kIn,       ///< children[0] [NOT] IN (children[1..])
  kCast,     ///< CAST(children[0] AS type)
  kFunc,     ///< scalar function call
  kCase,     ///< WHEN/THEN pairs + optional ELSE
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kMod };
enum class LogicOp : uint8_t { kAnd, kOr };

const char* CompareOpName(CompareOp op);
const char* ArithOpName(ArithOp op);

/// \brief Flips < to > etc. (for commuting comparisons).
CompareOp ReverseCompareOp(CompareOp op);

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// \brief One node of a bound expression tree.
struct Expr {
  ExprKind kind;
  TypeId type = TypeId::kNull;  ///< result type

  // kColumn
  size_t column_index = 0;
  std::string column_name;  ///< display name; survives rewrites

  // kLiteral
  Value literal;

  // op payloads
  CompareOp compare_op = CompareOp::kEq;
  ArithOp arith_op = ArithOp::kAdd;
  LogicOp logic_op = LogicOp::kAnd;
  bool negated = false;   ///< kIsNull / kLike / kIn
  bool has_else = false;  ///< kCase
  std::string func_name;  ///< kFunc (upper-case)

  std::vector<ExprPtr> children;

  explicit Expr(ExprKind k) : kind(k) {}

  /// \brief Deep structural copy.
  ExprPtr Clone() const;

  /// \brief Structural equality (used by optimizer rule tests / dedup).
  bool Equals(const Expr& other) const;

  /// \brief SQL-ish rendering using column display names.
  std::string ToString() const;

  /// \brief Collects every referenced input column index (deduplicated).
  void CollectColumns(std::vector<size_t>* out) const;

  /// \brief True if every referenced column index is in [lo, hi).
  bool ColumnsWithin(size_t lo, size_t hi) const;
};

/// \name Construction helpers
/// @{
ExprPtr MakeColumn(size_t index, TypeId type, std::string name = "");
ExprPtr MakeLiteral(Value v);
ExprPtr MakeCompare(CompareOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeArith(ArithOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeLogic(LogicOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeNot(ExprPtr c);
ExprPtr MakeIsNull(ExprPtr c, bool negated);
ExprPtr MakeCast(ExprPtr c, TypeId to);
/// @}

/// \brief ANDs a list (empty → TRUE literal, single → itself).
ExprPtr ConjoinAll(std::vector<ExprPtr> conjuncts);

/// \brief Splits nested ANDs into a conjunct list.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

/// \brief A range of one column's values, the access path of an index
/// range scan. A NULL bound means unbounded on that side.
struct ColumnRange {
  int64_t column = -1;  ///< -1: no sargable conjunct
  Value lo, hi;
  bool lo_inclusive = true, hi_inclusive = true;
};

/// \brief The range `filter`'s sargable conjuncts (col <op> literal,
/// either operand order, non-NULL literal, op not <>) imply on one of
/// `columns`: the column bounded on both sides if any, else the lowest
/// bounded one; column -1 when no conjunct qualifies. Every row the
/// filter accepts lies in the range, not the converse: callers still
/// evaluate the whole filter on the rows the range yields.
ColumnRange SargableRange(const ExprPtr& filter,
                          const std::vector<int64_t>& columns);

/// \brief Rewrites column indexes through `mapping` (old index → new);
/// returns a new tree, inputs untouched. Unmapped columns (mapping value
/// = SIZE_MAX) cause an Internal error.
Result<ExprPtr> RemapColumns(const Expr& e,
                             const std::vector<size_t>& mapping);

/// \brief Shifts every column index by `delta` (used when an expression
/// over a join's right side is evaluated against the concatenated row).
ExprPtr ShiftColumns(const Expr& e, size_t delta);

/// \brief Substitutes column references through a projection: column i
/// becomes a clone of `exprs[i]`. A column past `exprs` is an Internal
/// error.
Result<ExprPtr> SubstituteColumns(const Expr& e,
                                  const std::vector<ExprPtr>& exprs);

}  // namespace gisql
