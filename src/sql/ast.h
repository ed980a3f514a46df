/// \file ast.h
/// \brief Untyped parse tree produced by the SQL parser; the binder
/// (expr/binder.h, core/mediator) turns it into typed expressions and
/// logical plans.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "types/value.h"

namespace gisql {
namespace sql {

struct ParseExpr;
using ParseExprPtr = std::unique_ptr<ParseExpr>;

enum class ParseExprKind : uint8_t {
  kLiteral,     ///< value
  kColumnRef,   ///< qualifier.name (qualifier may be empty)
  kStar,        ///< '*' or 'alias.*' — only in select list / COUNT(*)
  kUnaryMinus,  ///< -child
  kNot,         ///< NOT child
  kBinary,      ///< op, children[0..1]
  kIsNull,      ///< child IS [NOT] NULL (negated flag)
  kLike,        ///< children[0] [NOT] LIKE children[1]
  kIn,          ///< children[0] [NOT] IN (children[1..])
  kBetween,     ///< children[0] BETWEEN children[1] AND children[2]
  kFuncCall,    ///< name(args...), incl. aggregates; distinct flag
  kCase,        ///< WHEN/THEN pairs then optional ELSE, flattened
  kCast,        ///< CAST(children[0] AS target_type_name)
  kInSubquery,  ///< children[0] IN (SELECT ...), see `subquery`
};

/// \brief Parser-level binary operators (typed ops live in expr/expr.h).
enum class ParseBinaryOp : uint8_t {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv, kMod,
  kAnd, kOr,
};

const char* ParseBinaryOpName(ParseBinaryOp op);

/// \brief One node of the untyped expression tree.
struct SelectStmt;

struct ParseExpr {
  ParseExprKind kind;

  Value literal;                     ///< kLiteral
  std::string qualifier;             ///< kColumnRef / kStar
  std::string name;                  ///< kColumnRef / kFuncCall / kCast type
  ParseBinaryOp op = ParseBinaryOp::kEq;  ///< kBinary
  bool negated = false;              ///< kIsNull / kLike / kIn
  bool distinct = false;             ///< kFuncCall (aggregate DISTINCT)
  bool has_else = false;             ///< kCase
  std::vector<ParseExprPtr> children;
  /// kInSubquery: the inner SELECT. Shared because parse trees are
  /// immutable after parsing, so clones may alias it.
  std::shared_ptr<SelectStmt> subquery;

  explicit ParseExpr(ParseExprKind k) : kind(k) {}

  /// \brief Deep copy.
  ParseExprPtr Clone() const;

  /// \brief Round-trippable SQL-ish rendering (for diagnostics).
  std::string ToString() const;
};

struct SelectStmt;
using SelectStmtPtr = std::unique_ptr<SelectStmt>;

/// \brief FROM-clause item: named table, derived table, or join.
struct TableRef {
  enum class Kind : uint8_t { kNamed, kDerived, kJoin } kind = Kind::kNamed;

  // kNamed
  std::string table_name;
  std::string alias;  // also used by kDerived

  // kDerived
  SelectStmtPtr derived;

  // kJoin
  enum class JoinType : uint8_t { kInner, kLeft, kCross } join_type =
      JoinType::kInner;
  std::unique_ptr<TableRef> left;
  std::unique_ptr<TableRef> right;
  ParseExprPtr on_condition;  // null for CROSS

  std::string ToString() const;
};
using TableRefPtr = std::unique_ptr<TableRef>;

struct SelectItem {
  ParseExprPtr expr;
  std::string alias;
};

struct OrderByItem {
  ParseExprPtr expr;
  bool ascending = true;
};

/// \brief A (possibly nested) SELECT statement.
///
/// `union_all_terms` holds further SELECT cores chained with UNION ALL;
/// when present, this statement's ORDER BY / LIMIT / OFFSET apply to the
/// whole union (standard SQL), while each term keeps its own WHERE /
/// GROUP BY / DISTINCT.
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  TableRefPtr from;  ///< null => SELECT of constants
  ParseExprPtr where;
  std::vector<ParseExprPtr> group_by;
  ParseExprPtr having;
  std::vector<SelectStmtPtr> union_all_terms;
  std::vector<OrderByItem> order_by;
  int64_t limit = -1;   ///< -1 = none
  int64_t offset = 0;

  std::string ToString() const;
};

/// \brief CREATE TABLE name (col type, ...) — used by source-local DDL.
struct CreateTableStmt {
  std::string table_name;
  std::vector<std::pair<std::string, std::string>> columns;  // name, type
};

/// \brief INSERT INTO name VALUES (...), (...) — source-local DML.
struct InsertStmt {
  std::string table_name;
  std::vector<std::vector<ParseExprPtr>> rows;
};

/// \brief DELETE FROM name [WHERE expr] — source-local DML.
struct DeleteStmt {
  std::string table_name;
  ParseExprPtr where;  ///< null = delete every row
};

/// \brief DROP TABLE name — source-local DDL (used by the advisor when
/// it evicts a materialized replica from a source).
struct DropTableStmt {
  std::string table_name;
};

/// \brief Top-level statement.
struct Statement {
  enum class Kind : uint8_t {
    kSelect,
    kCreateTable,
    kInsert,
    kExplain,
    kExplainAnalyze,  ///< EXPLAIN ANALYZE: execute and report actuals
    kDelete,
    kDropTable,
  };
  Kind kind = Kind::kSelect;
  SelectStmtPtr select;              ///< kSelect / kExplain
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<DeleteStmt> del;   ///< kDelete
  std::unique_ptr<DropTableStmt> drop_table;
  /// sql::FingerprintHex of the statement, taken from the parse's own
  /// tokens (the gis.queries `fingerprint`).
  std::string fingerprint;
};

}  // namespace sql
}  // namespace gisql
