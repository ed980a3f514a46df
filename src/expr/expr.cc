#include "expr/expr.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace gisql {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
    case ArithOp::kMod: return "%";
  }
  return "?";
}

CompareOp ReverseCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return CompareOp::kEq;
    case CompareOp::kNe: return CompareOp::kNe;
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
  }
  return op;
}

ExprPtr Expr::Clone() const {
  auto out = std::make_shared<Expr>(kind);
  out->type = type;
  out->column_index = column_index;
  out->column_name = column_name;
  out->literal = literal;
  out->compare_op = compare_op;
  out->arith_op = arith_op;
  out->logic_op = logic_op;
  out->negated = negated;
  out->has_else = has_else;
  out->func_name = func_name;
  out->children.reserve(children.size());
  for (const auto& c : children) out->children.push_back(c->Clone());
  return out;
}

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind || type != other.type) return false;
  switch (kind) {
    case ExprKind::kColumn:
      if (column_index != other.column_index) return false;
      break;
    case ExprKind::kLiteral:
      if (literal.is_null() != other.literal.is_null()) return false;
      if (!literal.is_null() && literal != other.literal) return false;
      break;
    case ExprKind::kCompare:
      if (compare_op != other.compare_op) return false;
      break;
    case ExprKind::kArith:
      if (arith_op != other.arith_op) return false;
      break;
    case ExprKind::kLogic:
      if (logic_op != other.logic_op) return false;
      break;
    case ExprKind::kFunc:
      if (func_name != other.func_name) return false;
      break;
    default: break;
  }
  if (negated != other.negated || has_else != other.has_else) return false;
  if (children.size() != other.children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

std::string Expr::ToString() const {
  std::ostringstream oss;
  switch (kind) {
    case ExprKind::kColumn:
      if (!column_name.empty()) {
        oss << column_name;
      } else {
        oss << "$" << column_index;
      }
      break;
    case ExprKind::kLiteral:
      oss << literal.ToString();
      break;
    case ExprKind::kCompare:
      oss << "(" << children[0]->ToString() << " "
          << CompareOpName(compare_op) << " " << children[1]->ToString()
          << ")";
      break;
    case ExprKind::kArith:
      oss << "(" << children[0]->ToString() << " " << ArithOpName(arith_op)
          << " " << children[1]->ToString() << ")";
      break;
    case ExprKind::kLogic:
      oss << "(" << children[0]->ToString()
          << (logic_op == LogicOp::kAnd ? " AND " : " OR ")
          << children[1]->ToString() << ")";
      break;
    case ExprKind::kNot:
      oss << "(NOT " << children[0]->ToString() << ")";
      break;
    case ExprKind::kIsNull:
      oss << "(" << children[0]->ToString() << " IS"
          << (negated ? " NOT" : "") << " NULL)";
      break;
    case ExprKind::kLike:
      oss << "(" << children[0]->ToString() << (negated ? " NOT" : "")
          << " LIKE " << children[1]->ToString() << ")";
      break;
    case ExprKind::kIn: {
      oss << "(" << children[0]->ToString() << (negated ? " NOT" : "")
          << " IN (";
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) oss << ", ";
        oss << children[i]->ToString();
      }
      oss << "))";
      break;
    }
    case ExprKind::kCast:
      oss << "CAST(" << children[0]->ToString() << " AS " << TypeName(type)
          << ")";
      break;
    case ExprKind::kFunc: {
      oss << func_name << "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) oss << ", ";
        oss << children[i]->ToString();
      }
      oss << ")";
      break;
    }
    case ExprKind::kCase: {
      oss << "CASE";
      const size_t pairs = (children.size() - (has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        oss << " WHEN " << children[2 * i]->ToString() << " THEN "
            << children[2 * i + 1]->ToString();
      }
      if (has_else) oss << " ELSE " << children.back()->ToString();
      oss << " END";
      break;
    }
  }
  return oss.str();
}

void Expr::CollectColumns(std::vector<size_t>* out) const {
  if (kind == ExprKind::kColumn) {
    if (std::find(out->begin(), out->end(), column_index) == out->end()) {
      out->push_back(column_index);
    }
    return;
  }
  for (const auto& c : children) c->CollectColumns(out);
}

bool Expr::ColumnsWithin(size_t lo, size_t hi) const {
  if (kind == ExprKind::kColumn) {
    return column_index >= lo && column_index < hi;
  }
  for (const auto& c : children) {
    if (!c->ColumnsWithin(lo, hi)) return false;
  }
  return true;
}

ExprPtr MakeColumn(size_t index, TypeId type, std::string name) {
  auto e = std::make_shared<Expr>(ExprKind::kColumn);
  e->column_index = index;
  e->type = type;
  e->column_name = std::move(name);
  return e;
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_shared<Expr>(ExprKind::kLiteral);
  e->type = v.type();
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeCompare(CompareOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>(ExprKind::kCompare);
  e->compare_op = op;
  e->type = TypeId::kBool;
  e->children = {std::move(l), std::move(r)};
  return e;
}

ExprPtr MakeArith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>(ExprKind::kArith);
  e->arith_op = op;
  // Result type: double if either side double, else int64.
  e->type = (l->type == TypeId::kDouble || r->type == TypeId::kDouble)
                ? TypeId::kDouble
                : TypeId::kInt64;
  e->children = {std::move(l), std::move(r)};
  return e;
}

ExprPtr MakeLogic(LogicOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>(ExprKind::kLogic);
  e->logic_op = op;
  e->type = TypeId::kBool;
  e->children = {std::move(l), std::move(r)};
  return e;
}

ExprPtr MakeNot(ExprPtr c) {
  auto e = std::make_shared<Expr>(ExprKind::kNot);
  e->type = TypeId::kBool;
  e->children = {std::move(c)};
  return e;
}

ExprPtr MakeIsNull(ExprPtr c, bool negated) {
  auto e = std::make_shared<Expr>(ExprKind::kIsNull);
  e->type = TypeId::kBool;
  e->negated = negated;
  e->children = {std::move(c)};
  return e;
}

ExprPtr MakeCast(ExprPtr c, TypeId to) {
  auto e = std::make_shared<Expr>(ExprKind::kCast);
  e->type = to;
  e->children = {std::move(c)};
  return e;
}

ExprPtr ConjoinAll(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return MakeLiteral(Value::Bool(true));
  ExprPtr acc = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = MakeLogic(LogicOp::kAnd, std::move(acc), std::move(conjuncts[i]));
  }
  return acc;
}

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kLogic && e->logic_op == LogicOp::kAnd) {
    SplitConjuncts(e->children[0], out);
    SplitConjuncts(e->children[1], out);
    return;
  }
  out->push_back(e);
}

ColumnRange SargableRange(const ExprPtr& filter,
                          const std::vector<int64_t>& columns) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(filter, &conjuncts);
  auto tighten_lo = [](ColumnRange* b, const Value& v, bool inclusive) {
    const int cmp = b->lo.is_null() ? 1 : v.Compare(b->lo);
    if (cmp > 0) {
      b->lo = v;
      b->lo_inclusive = inclusive;
    } else if (cmp == 0 && !inclusive) {
      b->lo_inclusive = false;
    }
  };
  auto tighten_hi = [](ColumnRange* b, const Value& v, bool inclusive) {
    const int cmp = b->hi.is_null() ? -1 : v.Compare(b->hi);
    if (cmp < 0) {
      b->hi = v;
      b->hi_inclusive = inclusive;
    } else if (cmp == 0 && !inclusive) {
      b->hi_inclusive = false;
    }
  };
  std::map<int64_t, ColumnRange> by_col;
  for (const auto& c : conjuncts) {
    if (c->kind != ExprKind::kCompare) continue;
    CompareOp op = c->compare_op;
    const Expr* l = c->children[0].get();
    const Expr* r = c->children[1].get();
    if (l->kind == ExprKind::kLiteral && r->kind == ExprKind::kColumn) {
      std::swap(l, r);
      op = ReverseCompareOp(op);
    }
    if (l->kind != ExprKind::kColumn || r->kind != ExprKind::kLiteral ||
        r->literal.is_null()) {
      continue;
    }
    const int64_t col = static_cast<int64_t>(l->column_index);
    if (std::find(columns.begin(), columns.end(), col) == columns.end()) {
      continue;
    }
    ColumnRange& b = by_col[col];
    b.column = col;
    switch (op) {
      case CompareOp::kEq:
        tighten_lo(&b, r->literal, true);
        tighten_hi(&b, r->literal, true);
        break;
      case CompareOp::kGt:
        tighten_lo(&b, r->literal, false);
        break;
      case CompareOp::kGe:
        tighten_lo(&b, r->literal, true);
        break;
      case CompareOp::kLt:
        tighten_hi(&b, r->literal, false);
        break;
      case CompareOp::kLe:
        tighten_hi(&b, r->literal, true);
        break;
      case CompareOp::kNe:
        break;
    }
  }
  // Prefer a column bounded on both sides; the map's ordering makes
  // ties deterministic.
  const ColumnRange* best = nullptr;
  for (const auto& [col, b] : by_col) {
    if (b.lo.is_null() && b.hi.is_null()) continue;
    const bool both = !b.lo.is_null() && !b.hi.is_null();
    const bool best_both =
        best != nullptr && !best->lo.is_null() && !best->hi.is_null();
    if (best == nullptr || (both && !best_both)) best = &b;
  }
  return best != nullptr ? *best : ColumnRange{};
}

Result<ExprPtr> RemapColumns(const Expr& e,
                             const std::vector<size_t>& mapping) {
  if (e.kind == ExprKind::kColumn) {
    if (e.column_index >= mapping.size() ||
        mapping[e.column_index] == static_cast<size_t>(-1)) {
      return Status::Internal("column $", e.column_index,
                              " has no mapping during remap");
    }
    auto out = e.Clone();
    out->column_index = mapping[e.column_index];
    return out;
  }
  auto out = std::make_shared<Expr>(e);  // shallow copy of payloads
  out->children.clear();
  for (const auto& c : e.children) {
    GISQL_ASSIGN_OR_RETURN(ExprPtr nc, RemapColumns(*c, mapping));
    out->children.push_back(std::move(nc));
  }
  return out;
}

ExprPtr ShiftColumns(const Expr& e, size_t delta) {
  auto out = std::make_shared<Expr>(e);
  out->children.clear();
  if (e.kind == ExprKind::kColumn) {
    out->column_index += delta;
    return out;
  }
  for (const auto& c : e.children) {
    out->children.push_back(ShiftColumns(*c, delta));
  }
  return out;
}

Result<ExprPtr> SubstituteColumns(const Expr& e,
                                  const std::vector<ExprPtr>& exprs) {
  if (e.kind == ExprKind::kColumn) {
    if (e.column_index >= exprs.size()) {
      return Status::Internal("substitution index $", e.column_index,
                              " out of range");
    }
    return exprs[e.column_index]->Clone();
  }
  auto out = std::make_shared<Expr>(e);
  out->children.clear();
  for (const auto& c : e.children) {
    GISQL_ASSIGN_OR_RETURN(ExprPtr nc, SubstituteColumns(*c, exprs));
    out->children.push_back(std::move(nc));
  }
  return out;
}

}  // namespace gisql
