#include "sql/parser.h"

#include "common/string_util.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "types/datetime.h"

namespace gisql {
namespace sql {
namespace internal {

bool Parser::Match(TokenType t) {
  if (Peek().type == t) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::MatchKeyword(const char* kw) {
  if (Peek().IsKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenType t, const char* context) {
  if (Peek().type != t) {
    return ErrorHere(std::string("expected ") + TokenTypeName(t) + " " +
                     context);
  }
  Advance();
  return Status::OK();
}

Status Parser::ExpectKeyword(const char* kw, const char* context) {
  if (!Peek().IsKeyword(kw)) {
    return ErrorHere(std::string("expected ") + kw + " " + context);
  }
  Advance();
  return Status::OK();
}

Status Parser::ErrorHere(const std::string& msg) const {
  const Token& t = Peek();
  std::string got = t.type == TokenType::kEnd
                        ? "end of input"
                        : (t.text.empty() ? TokenTypeName(t.type) : t.text);
  return Status::ParseError(msg, ", got '", got, "' at offset ", t.offset);
}

Status Parser::ExpectEnd() {
  Match(TokenType::kSemicolon);
  if (Peek().type != TokenType::kEnd) {
    return ErrorHere("expected end of statement");
  }
  return Status::OK();
}

Result<Statement> Parser::ParseStatement() {
  if (Peek().IsKeyword("EXPLAIN")) {
    Advance();
    Statement stmt;
    stmt.kind = MatchKeyword("ANALYZE") ? Statement::Kind::kExplainAnalyze
                                        : Statement::Kind::kExplain;
    GISQL_ASSIGN_OR_RETURN(stmt.select, ParseSelectStmt());
    GISQL_RETURN_NOT_OK(ExpectEnd());
    return stmt;
  }
  if (Peek().IsKeyword("SELECT")) {
    Statement stmt;
    stmt.kind = Statement::Kind::kSelect;
    GISQL_ASSIGN_OR_RETURN(stmt.select, ParseSelectStmt());
    GISQL_RETURN_NOT_OK(ExpectEnd());
    return stmt;
  }
  if (Peek().IsKeyword("CREATE")) return ParseCreateTable();
  if (Peek().IsKeyword("INSERT")) return ParseInsert();
  if (Peek().IsKeyword("DELETE")) return ParseDelete();
  if (Peek().IsKeyword("DROP")) return ParseDropTable();
  return ErrorHere(
      "expected SELECT, EXPLAIN, CREATE TABLE, INSERT, DELETE or DROP TABLE");
}

Result<Statement> Parser::ParseCreateTable() {
  GISQL_RETURN_NOT_OK(ExpectKeyword("CREATE", "at statement start"));
  GISQL_RETURN_NOT_OK(ExpectKeyword("TABLE", "after CREATE"));
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected table name");
  }
  auto create = std::make_unique<CreateTableStmt>();
  create->table_name = Advance().text;
  GISQL_RETURN_NOT_OK(Expect(TokenType::kLParen, "after table name"));
  while (true) {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected column name");
    }
    std::string col = Advance().text;
    // Type names may lex as identifiers or (for e.g. none currently)
    // keywords; accept both.
    if (Peek().type != TokenType::kIdentifier &&
        Peek().type != TokenType::kKeyword) {
      return ErrorHere("expected column type");
    }
    std::string type = Advance().text;
    create->columns.emplace_back(std::move(col), std::move(type));
    if (Match(TokenType::kComma)) continue;
    break;
  }
  GISQL_RETURN_NOT_OK(Expect(TokenType::kRParen, "after column list"));
  GISQL_RETURN_NOT_OK(ExpectEnd());
  Statement stmt;
  stmt.kind = Statement::Kind::kCreateTable;
  stmt.create_table = std::move(create);
  return stmt;
}

Result<Statement> Parser::ParseInsert() {
  GISQL_RETURN_NOT_OK(ExpectKeyword("INSERT", "at statement start"));
  GISQL_RETURN_NOT_OK(ExpectKeyword("INTO", "after INSERT"));
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected table name");
  }
  auto insert = std::make_unique<InsertStmt>();
  insert->table_name = Advance().text;
  GISQL_RETURN_NOT_OK(ExpectKeyword("VALUES", "after table name"));
  while (true) {
    GISQL_RETURN_NOT_OK(Expect(TokenType::kLParen, "before row values"));
    std::vector<ParseExprPtr> row;
    while (true) {
      GISQL_ASSIGN_OR_RETURN(ParseExprPtr e, ParseExpr());
      row.push_back(std::move(e));
      if (Match(TokenType::kComma)) continue;
      break;
    }
    GISQL_RETURN_NOT_OK(Expect(TokenType::kRParen, "after row values"));
    insert->rows.push_back(std::move(row));
    if (Match(TokenType::kComma)) continue;
    break;
  }
  GISQL_RETURN_NOT_OK(ExpectEnd());
  Statement stmt;
  stmt.kind = Statement::Kind::kInsert;
  stmt.insert = std::move(insert);
  return stmt;
}

Result<Statement> Parser::ParseDelete() {
  GISQL_RETURN_NOT_OK(ExpectKeyword("DELETE", "at statement start"));
  GISQL_RETURN_NOT_OK(ExpectKeyword("FROM", "after DELETE"));
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected table name");
  }
  auto del = std::make_unique<DeleteStmt>();
  del->table_name = Advance().text;
  if (MatchKeyword("WHERE")) {
    GISQL_ASSIGN_OR_RETURN(del->where, ParseExpr());
  }
  GISQL_RETURN_NOT_OK(ExpectEnd());
  Statement stmt;
  stmt.kind = Statement::Kind::kDelete;
  stmt.del = std::move(del);
  return stmt;
}

Result<Statement> Parser::ParseDropTable() {
  GISQL_RETURN_NOT_OK(ExpectKeyword("DROP", "at statement start"));
  GISQL_RETURN_NOT_OK(ExpectKeyword("TABLE", "after DROP"));
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected table name");
  }
  auto drop = std::make_unique<DropTableStmt>();
  drop->table_name = Advance().text;
  GISQL_RETURN_NOT_OK(ExpectEnd());
  Statement stmt;
  stmt.kind = Statement::Kind::kDropTable;
  stmt.drop_table = std::move(drop);
  return stmt;
}

Result<SelectStmtPtr> Parser::ParseSelectStmt() {
  GISQL_ASSIGN_OR_RETURN(SelectStmtPtr stmt, ParseSelectCore());
  while (Peek().IsKeyword("UNION")) {
    Advance();
    GISQL_RETURN_NOT_OK(ExpectKeyword("ALL", "after UNION (only UNION ALL "
                                             "is supported)"));
    GISQL_ASSIGN_OR_RETURN(SelectStmtPtr term, ParseSelectCore());
    stmt->union_all_terms.push_back(std::move(term));
  }
  if (Peek().IsKeyword("ORDER")) {
    Advance();
    GISQL_RETURN_NOT_OK(ExpectKeyword("BY", "after ORDER"));
    while (true) {
      OrderByItem item;
      GISQL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("DESC")) {
        item.ascending = false;
      } else {
        MatchKeyword("ASC");
      }
      stmt->order_by.push_back(std::move(item));
      if (Match(TokenType::kComma)) continue;
      break;
    }
  }
  if (MatchKeyword("LIMIT")) {
    if (Peek().type != TokenType::kIntLiteral) {
      return ErrorHere("expected integer after LIMIT");
    }
    stmt->limit = Advance().int_value;
    if (MatchKeyword("OFFSET")) {
      if (Peek().type != TokenType::kIntLiteral) {
        return ErrorHere("expected integer after OFFSET");
      }
      stmt->offset = Advance().int_value;
    }
  }
  return stmt;
}

Result<SelectStmtPtr> Parser::ParseSelectCore() {
  GISQL_RETURN_NOT_OK(ExpectKeyword("SELECT", "at query start"));
  auto stmt = std::make_unique<SelectStmt>();
  stmt->distinct = MatchKeyword("DISTINCT");

  // Select list.
  while (true) {
    SelectItem item;
    GISQL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (MatchKeyword("AS")) {
      if (Peek().type != TokenType::kIdentifier) {
        return ErrorHere("expected alias after AS");
      }
      item.alias = Advance().text;
    } else if (Peek().type == TokenType::kIdentifier) {
      item.alias = Advance().text;
    }
    stmt->items.push_back(std::move(item));
    if (Match(TokenType::kComma)) continue;
    break;
  }

  if (MatchKeyword("FROM")) {
    GISQL_ASSIGN_OR_RETURN(stmt->from, ParseFromClause());
  }
  if (MatchKeyword("WHERE")) {
    GISQL_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  if (Peek().IsKeyword("GROUP")) {
    Advance();
    GISQL_RETURN_NOT_OK(ExpectKeyword("BY", "after GROUP"));
    while (true) {
      GISQL_ASSIGN_OR_RETURN(ParseExprPtr e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
      if (Match(TokenType::kComma)) continue;
      break;
    }
  }
  if (MatchKeyword("HAVING")) {
    GISQL_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }
  return stmt;
}

Result<TableRefPtr> Parser::ParseFromClause() {
  GISQL_ASSIGN_OR_RETURN(TableRefPtr left, ParseTableRef());
  while (true) {
    TableRef::JoinType jt = TableRef::JoinType::kInner;
    bool is_join = false;
    bool needs_on = true;
    if (Match(TokenType::kComma)) {
      jt = TableRef::JoinType::kCross;
      is_join = true;
      needs_on = false;
    } else if (Peek().IsKeyword("JOIN")) {
      Advance();
      is_join = true;
    } else if (Peek().IsKeyword("INNER")) {
      Advance();
      GISQL_RETURN_NOT_OK(ExpectKeyword("JOIN", "after INNER"));
      is_join = true;
    } else if (Peek().IsKeyword("LEFT")) {
      Advance();
      MatchKeyword("OUTER");
      GISQL_RETURN_NOT_OK(ExpectKeyword("JOIN", "after LEFT"));
      jt = TableRef::JoinType::kLeft;
      is_join = true;
    } else if (Peek().IsKeyword("CROSS")) {
      Advance();
      GISQL_RETURN_NOT_OK(ExpectKeyword("JOIN", "after CROSS"));
      jt = TableRef::JoinType::kCross;
      is_join = true;
      needs_on = false;
    }
    if (!is_join) break;
    GISQL_ASSIGN_OR_RETURN(TableRefPtr right, ParseTableRef());
    auto join = std::make_unique<TableRef>();
    join->kind = TableRef::Kind::kJoin;
    join->join_type = jt;
    join->left = std::move(left);
    join->right = std::move(right);
    if (needs_on && MatchKeyword("ON")) {
      GISQL_ASSIGN_OR_RETURN(join->on_condition, ParseExpr());
    } else if (needs_on) {
      return ErrorHere("expected ON after JOIN");
    }
    left = std::move(join);
  }
  return left;
}

Result<TableRefPtr> Parser::ParseTableRef() {
  auto ref = std::make_unique<TableRef>();
  if (Match(TokenType::kLParen)) {
    ref->kind = TableRef::Kind::kDerived;
    GISQL_ASSIGN_OR_RETURN(ref->derived, ParseSelectStmt());
    GISQL_RETURN_NOT_OK(Expect(TokenType::kRParen, "after derived table"));
    MatchKeyword("AS");
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("derived table requires an alias");
    }
    ref->alias = Advance().text;
    return ref;
  }
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected table name");
  }
  ref->kind = TableRef::Kind::kNamed;
  ref->table_name = Advance().text;
  // Dotted names ("gis.sources", "src1.orders") are one table name in
  // the global schema; the catalog key carries the dot.
  while (Match(TokenType::kDot)) {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected identifier after '.' in table name");
    }
    ref->table_name += "." + Advance().text;
  }
  if (MatchKeyword("AS")) {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected alias after AS");
    }
    ref->alias = Advance().text;
  } else if (Peek().type == TokenType::kIdentifier) {
    ref->alias = Advance().text;
  }
  return ref;
}

Result<ParseExprPtr> Parser::ParseExpr() { return ParseOr(); }

Result<ParseExprPtr> Parser::ParseOr() {
  GISQL_ASSIGN_OR_RETURN(ParseExprPtr left, ParseAnd());
  while (MatchKeyword("OR")) {
    GISQL_ASSIGN_OR_RETURN(ParseExprPtr right, ParseAnd());
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kBinary);
    e->op = ParseBinaryOp::kOr;
    e->children.push_back(std::move(left));
    e->children.push_back(std::move(right));
    left = std::move(e);
  }
  return left;
}

Result<ParseExprPtr> Parser::ParseAnd() {
  GISQL_ASSIGN_OR_RETURN(ParseExprPtr left, ParseNot());
  while (MatchKeyword("AND")) {
    GISQL_ASSIGN_OR_RETURN(ParseExprPtr right, ParseNot());
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kBinary);
    e->op = ParseBinaryOp::kAnd;
    e->children.push_back(std::move(left));
    e->children.push_back(std::move(right));
    left = std::move(e);
  }
  return left;
}

Result<ParseExprPtr> Parser::ParseNot() {
  if (MatchKeyword("NOT")) {
    GISQL_ASSIGN_OR_RETURN(ParseExprPtr child, ParseNot());
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kNot);
    e->children.push_back(std::move(child));
    return e;
  }
  return ParseComparison();
}

Result<ParseExprPtr> Parser::ParseComparison() {
  GISQL_ASSIGN_OR_RETURN(ParseExprPtr left, ParseAdditive());

  // IS [NOT] NULL
  if (Peek().IsKeyword("IS")) {
    Advance();
    const bool negated = MatchKeyword("NOT");
    GISQL_RETURN_NOT_OK(ExpectKeyword("NULL", "after IS [NOT]"));
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kIsNull);
    e->negated = negated;
    e->children.push_back(std::move(left));
    return e;
  }

  bool negated = false;
  if (Peek().IsKeyword("NOT") &&
      (Peek(1).IsKeyword("LIKE") || Peek(1).IsKeyword("IN") ||
       Peek(1).IsKeyword("BETWEEN"))) {
    Advance();
    negated = true;
  }

  if (MatchKeyword("LIKE")) {
    GISQL_ASSIGN_OR_RETURN(ParseExprPtr pattern, ParseAdditive());
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kLike);
    e->negated = negated;
    e->children.push_back(std::move(left));
    e->children.push_back(std::move(pattern));
    return e;
  }
  if (MatchKeyword("IN")) {
    GISQL_RETURN_NOT_OK(Expect(TokenType::kLParen, "after IN"));
    if (Peek().IsKeyword("SELECT")) {
      auto e = std::make_unique<gisql::sql::ParseExpr>(
          ParseExprKind::kInSubquery);
      e->negated = negated;
      e->children.push_back(std::move(left));
      GISQL_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelectStmt());
      e->subquery = std::shared_ptr<SelectStmt>(std::move(sub));
      GISQL_RETURN_NOT_OK(Expect(TokenType::kRParen, "after subquery"));
      return e;
    }
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kIn);
    e->negated = negated;
    e->children.push_back(std::move(left));
    while (true) {
      GISQL_ASSIGN_OR_RETURN(ParseExprPtr item, ParseExpr());
      e->children.push_back(std::move(item));
      if (Match(TokenType::kComma)) continue;
      break;
    }
    GISQL_RETURN_NOT_OK(Expect(TokenType::kRParen, "after IN list"));
    return e;
  }
  if (MatchKeyword("BETWEEN")) {
    GISQL_ASSIGN_OR_RETURN(ParseExprPtr lo, ParseAdditive());
    GISQL_RETURN_NOT_OK(ExpectKeyword("AND", "in BETWEEN"));
    GISQL_ASSIGN_OR_RETURN(ParseExprPtr hi, ParseAdditive());
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kBetween);
    e->negated = negated;
    e->children.push_back(std::move(left));
    e->children.push_back(std::move(lo));
    e->children.push_back(std::move(hi));
    return e;
  }
  if (negated) return ErrorHere("expected LIKE, IN or BETWEEN after NOT");

  auto binop = [&](ParseBinaryOp op) -> Result<ParseExprPtr> {
    Advance();
    GISQL_ASSIGN_OR_RETURN(ParseExprPtr right, ParseAdditive());
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kBinary);
    e->op = op;
    e->children.push_back(std::move(left));
    e->children.push_back(std::move(right));
    return e;
  };
  switch (Peek().type) {
    case TokenType::kEq: return binop(ParseBinaryOp::kEq);
    case TokenType::kNe: return binop(ParseBinaryOp::kNe);
    case TokenType::kLt: return binop(ParseBinaryOp::kLt);
    case TokenType::kLe: return binop(ParseBinaryOp::kLe);
    case TokenType::kGt: return binop(ParseBinaryOp::kGt);
    case TokenType::kGe: return binop(ParseBinaryOp::kGe);
    default: break;
  }
  return left;
}

Result<ParseExprPtr> Parser::ParseAdditive() {
  GISQL_ASSIGN_OR_RETURN(ParseExprPtr left, ParseMultiplicative());
  while (true) {
    ParseBinaryOp op;
    if (Peek().type == TokenType::kPlus) {
      op = ParseBinaryOp::kAdd;
    } else if (Peek().type == TokenType::kMinus) {
      op = ParseBinaryOp::kSub;
    } else {
      break;
    }
    Advance();
    GISQL_ASSIGN_OR_RETURN(ParseExprPtr right, ParseMultiplicative());
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kBinary);
    e->op = op;
    e->children.push_back(std::move(left));
    e->children.push_back(std::move(right));
    left = std::move(e);
  }
  return left;
}

Result<ParseExprPtr> Parser::ParseMultiplicative() {
  GISQL_ASSIGN_OR_RETURN(ParseExprPtr left, ParseUnary());
  while (true) {
    ParseBinaryOp op;
    if (Peek().type == TokenType::kStar) {
      op = ParseBinaryOp::kMul;
    } else if (Peek().type == TokenType::kSlash) {
      op = ParseBinaryOp::kDiv;
    } else if (Peek().type == TokenType::kPercent) {
      op = ParseBinaryOp::kMod;
    } else {
      break;
    }
    Advance();
    GISQL_ASSIGN_OR_RETURN(ParseExprPtr right, ParseUnary());
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kBinary);
    e->op = op;
    e->children.push_back(std::move(left));
    e->children.push_back(std::move(right));
    left = std::move(e);
  }
  return left;
}

Result<ParseExprPtr> Parser::ParseUnary() {
  if (Match(TokenType::kMinus)) {
    GISQL_ASSIGN_OR_RETURN(ParseExprPtr child, ParseUnary());
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kUnaryMinus);
    e->children.push_back(std::move(child));
    return e;
  }
  Match(TokenType::kPlus);  // unary plus is a no-op
  return ParsePrimary();
}

Result<ParseExprPtr> Parser::ParsePrimary() {
  const Token& tok = Peek();
  switch (tok.type) {
    case TokenType::kIntLiteral: {
      auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kLiteral);
      e->literal = Value::Int(tok.int_value);
      Advance();
      return e;
    }
    case TokenType::kDoubleLiteral: {
      auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kLiteral);
      e->literal = Value::Double(tok.double_value);
      Advance();
      return e;
    }
    case TokenType::kStringLiteral: {
      auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kLiteral);
      e->literal = Value::String(tok.text);
      Advance();
      return e;
    }
    case TokenType::kLParen: {
      Advance();
      GISQL_ASSIGN_OR_RETURN(ParseExprPtr e, ParseExpr());
      GISQL_RETURN_NOT_OK(Expect(TokenType::kRParen, "after expression"));
      return e;
    }
    case TokenType::kStar: {
      Advance();
      return std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kStar);
    }
    case TokenType::kKeyword: {
      if (tok.IsKeyword("NULL")) {
        Advance();
        auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kLiteral);
        e->literal = Value::Null();
        return e;
      }
      if (tok.IsKeyword("TRUE") || tok.IsKeyword("FALSE")) {
        auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kLiteral);
        e->literal = Value::Bool(tok.IsKeyword("TRUE"));
        Advance();
        return e;
      }
      if (tok.IsKeyword("DATE")) {
        // DATE 'YYYY-MM-DD' literal.
        Advance();
        if (Peek().type != TokenType::kStringLiteral) {
          return ErrorHere("expected string literal after DATE");
        }
        GISQL_ASSIGN_OR_RETURN(int64_t days,
                               ParseDateString(Advance().text));
        auto e = std::make_unique<gisql::sql::ParseExpr>(
            ParseExprKind::kLiteral);
        e->literal = Value::Date(days);
        return e;
      }
      if (tok.IsKeyword("CAST")) {
        Advance();
        GISQL_RETURN_NOT_OK(Expect(TokenType::kLParen, "after CAST"));
        auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kCast);
        GISQL_ASSIGN_OR_RETURN(ParseExprPtr child, ParseExpr());
        e->children.push_back(std::move(child));
        GISQL_RETURN_NOT_OK(ExpectKeyword("AS", "in CAST"));
        if (Peek().type != TokenType::kIdentifier &&
            Peek().type != TokenType::kKeyword) {
          return ErrorHere("expected type name in CAST");
        }
        e->name = Advance().text;
        GISQL_RETURN_NOT_OK(Expect(TokenType::kRParen, "after CAST type"));
        return e;
      }
      if (tok.IsKeyword("CASE")) {
        Advance();
        auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kCase);
        bool any = false;
        while (MatchKeyword("WHEN")) {
          any = true;
          GISQL_ASSIGN_OR_RETURN(ParseExprPtr cond, ParseExpr());
          GISQL_RETURN_NOT_OK(ExpectKeyword("THEN", "in CASE"));
          GISQL_ASSIGN_OR_RETURN(ParseExprPtr then, ParseExpr());
          e->children.push_back(std::move(cond));
          e->children.push_back(std::move(then));
        }
        if (!any) return ErrorHere("CASE requires at least one WHEN");
        if (MatchKeyword("ELSE")) {
          e->has_else = true;
          GISQL_ASSIGN_OR_RETURN(ParseExprPtr els, ParseExpr());
          e->children.push_back(std::move(els));
        }
        GISQL_RETURN_NOT_OK(ExpectKeyword("END", "closing CASE"));
        return e;
      }
      // Aggregate keywords parse as function calls.
      if (tok.IsKeyword("COUNT") || tok.IsKeyword("SUM") ||
          tok.IsKeyword("AVG") || tok.IsKeyword("MIN") ||
          tok.IsKeyword("MAX")) {
        return ParseFuncCallOrColumn();
      }
      return ErrorHere("unexpected keyword in expression");
    }
    case TokenType::kIdentifier:
      return ParseFuncCallOrColumn();
    default:
      return ErrorHere("expected expression");
  }
}

Result<ParseExprPtr> Parser::ParseFuncCallOrColumn() {
  std::string first = Advance().text;
  // Function call?
  if (Peek().type == TokenType::kLParen) {
    Advance();
    auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kFuncCall);
    e->name = ToUpper(first);
    e->distinct = MatchKeyword("DISTINCT");
    if (Peek().type == TokenType::kStar) {
      // COUNT(*)
      Advance();
      e->children.push_back(
          std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kStar));
    } else if (Peek().type != TokenType::kRParen) {
      while (true) {
        GISQL_ASSIGN_OR_RETURN(ParseExprPtr arg, ParseExpr());
        e->children.push_back(std::move(arg));
        if (Match(TokenType::kComma)) continue;
        break;
      }
    }
    GISQL_RETURN_NOT_OK(Expect(TokenType::kRParen, "after function args"));
    return e;
  }
  // Column reference, possibly qualified; `alias.*` also lands here.
  auto e = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kColumnRef);
  if (Match(TokenType::kDot)) {
    if (Peek().type == TokenType::kStar) {
      Advance();
      auto star = std::make_unique<gisql::sql::ParseExpr>(ParseExprKind::kStar);
      star->qualifier = std::move(first);
      return star;
    }
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected column name after '.'");
    }
    e->qualifier = std::move(first);
    e->name = Advance().text;
  } else {
    e->name = std::move(first);
  }
  return e;
}

}  // namespace internal

Result<Statement> ParseStatement(const std::string& input) {
  Lexer lexer(input);
  GISQL_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  std::string fingerprint = FingerprintHex(tokens);
  internal::Parser parser(std::move(tokens));
  GISQL_ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
  stmt.fingerprint = std::move(fingerprint);
  return stmt;
}

Result<SelectStmtPtr> ParseSelect(const std::string& input) {
  GISQL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(input));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::ParseError("expected a SELECT statement");
  }
  return std::move(stmt.select);
}

Result<ParseExprPtr> ParseScalarExpr(const std::string& input) {
  Lexer lexer(input);
  GISQL_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  internal::Parser parser(std::move(tokens));
  GISQL_ASSIGN_OR_RETURN(ParseExprPtr e, parser.ParseExpr());
  GISQL_RETURN_NOT_OK(parser.ExpectEnd());
  return e;
}

}  // namespace sql
}  // namespace gisql
