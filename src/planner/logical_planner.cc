#include "planner/logical_planner.h"

#include "catalog/system_tables.h"
#include "common/string_util.h"
#include "expr/binder.h"
#include "expr/eval.h"

namespace gisql {

namespace {

/// Extracts equi-join keys from a bound ON condition over the
/// concatenated (left ++ right) schema. Conjuncts of the form
/// `leftcol = rightcol` become key pairs; everything else is residual.
void ExtractJoinKeys(const ExprPtr& condition, size_t left_width,
                     size_t total_width, std::vector<size_t>* left_keys,
                     std::vector<size_t>* right_keys, ExprPtr* residual) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(condition, &conjuncts);
  std::vector<ExprPtr> residuals;
  for (const auto& c : conjuncts) {
    bool is_key = false;
    if (c->kind == ExprKind::kCompare && c->compare_op == CompareOp::kEq) {
      // Unwrap binder-inserted casts on either side: a cast around a bare
      // column is still usable as a hash key because Value::Hash is
      // numeric-representation independent.
      auto unwrap = [](const ExprPtr& e) -> const Expr* {
        const Expr* p = e.get();
        while (p->kind == ExprKind::kCast) p = p->children[0].get();
        return p;
      };
      const Expr* l = unwrap(c->children[0]);
      const Expr* r = unwrap(c->children[1]);
      if (l->kind == ExprKind::kColumn && r->kind == ExprKind::kColumn) {
        const size_t li = l->column_index;
        const size_t ri = r->column_index;
        if (li < left_width && ri >= left_width && ri < total_width) {
          left_keys->push_back(li);
          right_keys->push_back(ri - left_width);
          is_key = true;
        } else if (ri < left_width && li >= left_width &&
                   li < total_width) {
          left_keys->push_back(ri);
          right_keys->push_back(li - left_width);
          is_key = true;
        }
      }
    }
    if (!is_key) residuals.push_back(c);
  }
  if (!residuals.empty()) {
    *residual = ConjoinAll(std::move(residuals));
  }
}

/// Splits an AST predicate into top-level AND conjuncts (no cloning;
/// pointers reference the original tree).
void SplitAstConjuncts(const sql::ParseExpr* e,
                       std::vector<const sql::ParseExpr*>* out) {
  if (e->kind == sql::ParseExprKind::kBinary &&
      e->op == sql::ParseBinaryOp::kAnd) {
    SplitAstConjuncts(e->children[0].get(), out);
    SplitAstConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

std::string DisplayName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  // A bare column reference displays as its unqualified name.
  if (item.expr->kind == sql::ParseExprKind::kColumnRef) {
    return item.expr->name;
  }
  return item.expr->ToString();
}

}  // namespace

Result<PlanNodePtr> LogicalPlanner::PlanNamedTable(const std::string& name,
                                                   const std::string& alias) {
  const std::string qualifier = alias.empty() ? name : alias;
  // The reserved gis.* prefix resolves against the system-table
  // provider before ordinary tables and views: a mediator-local
  // snapshot, never remote.
  if (IsSystemTableName(name) && catalog_.system_tables() != nullptr) {
    const SystemTableProvider& sys = *catalog_.system_tables();
    const std::string canonical = ToLower(name);
    Result<SchemaPtr> base = sys.TableSchema(canonical);
    if (!base.ok()) return Status::BindError(base.status().message());
    auto schema = std::make_shared<Schema>((*base)->WithQualifier(qualifier));
    auto node = MakeVirtualScanNode(canonical, schema);
    node->est_rows = 64.0;  // snapshots are small; a flat guess suffices
    return node;
  }
  if (catalog_.HasTable(name)) {
    GISQL_ASSIGN_OR_RETURN(const TableMapping* t, catalog_.GetTable(name));
    auto schema =
        std::make_shared<Schema>(t->schema->WithQualifier(qualifier));
    auto node = MakeScanNode(t->global_name, t->source_name,
                             t->exported_name, schema);
    node->est_rows = static_cast<double>(t->stats.row_count);
    return node;
  }
  if (catalog_.HasView(name)) {
    GISQL_ASSIGN_OR_RETURN(const GlobalView* view, catalog_.GetView(name));
    if (view->replicated) {
      // Read one replica: prefer the lowest latency hint, then the
      // smallest copy (cheap tiebreak for stats drift between replicas).
      const TableMapping* best = nullptr;
      double best_rank = 0;
      for (const auto& member : view->members) {
        GISQL_ASSIGN_OR_RETURN(const TableMapping* t,
                               catalog_.GetTable(member));
        GISQL_ASSIGN_OR_RETURN(const SourceInfo* src,
                               catalog_.GetSource(t->source_name));
        const double rank = src->latency_hint_ms * 1e9 +
                            static_cast<double>(t->stats.row_count);
        if (best == nullptr || rank < best_rank) {
          best = t;
          best_rank = rank;
        }
      }
      auto schema = std::make_shared<Schema>(
          view->schema->WithQualifier(qualifier));
      auto node = MakeScanNode(best->global_name, best->source_name,
                               best->exported_name, schema);
      node->est_rows = static_cast<double>(best->stats.row_count);
      for (const auto& member : view->members) {
        GISQL_ASSIGN_OR_RETURN(const TableMapping* t,
                               catalog_.GetTable(member));
        if (t == best) continue;
        node->scan_alternates.push_back(
            {t->source_name, t->exported_name, t->global_name});
      }
      return node;
    }
    std::vector<PlanNodePtr> members;
    double total_rows = 0;
    for (const auto& member : view->members) {
      GISQL_ASSIGN_OR_RETURN(const TableMapping* t,
                             catalog_.GetTable(member));
      // Each member scan adopts the *view* column names so filters bound
      // against the view schema remain valid per member.
      auto member_schema = std::make_shared<Schema>(
          view->schema->WithQualifier(qualifier));
      auto scan = MakeScanNode(t->global_name, t->source_name,
                               t->exported_name, member_schema);
      scan->est_rows = static_cast<double>(t->stats.row_count);
      total_rows += scan->est_rows;
      members.push_back(std::move(scan));
    }
    auto schema =
        std::make_shared<Schema>(view->schema->WithQualifier(qualifier));
    if (members.size() == 1) {
      return members[0];
    }
    auto node = MakeUnionAllNode(std::move(members), schema);
    node->est_rows = total_rows;
    return node;
  }
  return Status::BindError("table or view '", name,
                           "' not found in the global catalog");
}

Result<PlanNodePtr> LogicalPlanner::PlanJoin(const sql::TableRef& ref) {
  GISQL_ASSIGN_OR_RETURN(PlanNodePtr left, PlanTableRef(*ref.left));
  GISQL_ASSIGN_OR_RETURN(PlanNodePtr right, PlanTableRef(*ref.right));

  Schema concat = left->output_schema->Concat(*right->output_schema);
  auto node = std::make_shared<PlanNode>(PlanKind::kJoin);
  node->join_type = ref.join_type == sql::TableRef::JoinType::kLeft
                        ? JoinType::kLeft
                        : JoinType::kInner;
  if (node->join_type == JoinType::kLeft) {
    // Right side columns become nullable in the output.
    std::vector<Field> fields = concat.fields();
    for (size_t i = left->output_schema->num_fields(); i < fields.size();
         ++i) {
      fields[i].nullable = true;
    }
    concat = Schema(std::move(fields));
  }
  node->output_schema = std::make_shared<Schema>(concat);

  if (ref.on_condition) {
    Binder binder(*node->output_schema);
    GISQL_ASSIGN_OR_RETURN(ExprPtr cond,
                           binder.BindScalar(*ref.on_condition));
    if (cond->type != TypeId::kBool && cond->type != TypeId::kNull) {
      return Status::BindError("join condition must be boolean");
    }
    ExtractJoinKeys(cond, left->output_schema->num_fields(),
                    node->output_schema->num_fields(), &node->left_keys,
                    &node->right_keys, &node->join_residual);
  } else if (node->join_type == JoinType::kLeft) {
    return Status::BindError("LEFT JOIN requires an ON condition");
  }
  node->children = {std::move(left), std::move(right)};
  return node;
}

Result<PlanNodePtr> LogicalPlanner::PlanTableRef(const sql::TableRef& ref) {
  switch (ref.kind) {
    case sql::TableRef::Kind::kNamed:
      return PlanNamedTable(ref.table_name, ref.alias);
    case sql::TableRef::Kind::kDerived: {
      GISQL_ASSIGN_OR_RETURN(PlanNodePtr sub, Plan(*ref.derived));
      // Re-qualify the derived table's output columns with its alias.
      auto schema = std::make_shared<Schema>(
          sub->output_schema->WithQualifier(ref.alias));
      sub->output_schema = schema;
      return sub;
    }
    case sql::TableRef::Kind::kJoin:
      return PlanJoin(ref);
  }
  return Status::Internal("unreachable table-ref kind");
}

Result<std::vector<sql::SelectItem>> LogicalPlanner::ExpandStars(
    const sql::SelectStmt& stmt, const Schema& input) const {
  std::vector<sql::SelectItem> items;
  for (const auto& item : stmt.items) {
    if (item.expr->kind != sql::ParseExprKind::kStar) {
      sql::SelectItem copy;
      copy.expr = item.expr->Clone();
      copy.alias = item.alias;
      items.push_back(std::move(copy));
      continue;
    }
    const std::string& qual = item.expr->qualifier;
    bool any = false;
    for (const auto& f : input.fields()) {
      if (!qual.empty() && !EqualsIgnoreCase(f.qualifier, qual)) continue;
      any = true;
      sql::SelectItem expanded;
      auto ref = std::make_unique<sql::ParseExpr>(
          sql::ParseExprKind::kColumnRef);
      ref->qualifier = f.qualifier;
      ref->name = f.name;
      expanded.expr = std::move(ref);
      items.push_back(std::move(expanded));
    }
    if (!any) {
      return Status::BindError("'", qual,
                               ".*' matches no columns in scope");
    }
  }
  return items;
}

Result<PlanNodePtr> LogicalPlanner::Plan(const sql::SelectStmt& stmt) {
  if (!stmt.union_all_terms.empty()) return PlanUnion(stmt);
  return PlanCore(stmt, /*with_order_limit=*/true);
}

Result<PlanNodePtr> LogicalPlanner::PlanUnion(const sql::SelectStmt& stmt) {
  GISQL_ASSIGN_OR_RETURN(PlanNodePtr first,
                         PlanCore(stmt, /*with_order_limit=*/false));
  std::vector<PlanNodePtr> terms;
  terms.push_back(std::move(first));
  for (const auto& term_stmt : stmt.union_all_terms) {
    if (!term_stmt->union_all_terms.empty()) {
      return Status::Internal("nested union chain in AST");
    }
    GISQL_ASSIGN_OR_RETURN(PlanNodePtr term,
                           PlanCore(*term_stmt, false));
    if (!terms[0]->output_schema->UnionCompatible(*term->output_schema)) {
      return Status::BindError(
          "UNION ALL terms are not union-compatible: ",
          terms[0]->output_schema->ToString(), " vs ",
          term->output_schema->ToString());
    }
    terms.push_back(std::move(term));
  }
  // The union takes the first term's column names and types.
  SchemaPtr schema = terms[0]->output_schema;
  PlanNodePtr plan = MakeUnionAllNode(std::move(terms), schema);

  // Trailing ORDER BY binds against the union's output columns.
  if (!stmt.order_by.empty()) {
    auto sort = std::make_shared<PlanNode>(PlanKind::kSort);
    sort->output_schema = schema;
    Binder binder(*schema);
    for (const auto& ob : stmt.order_by) {
      GISQL_ASSIGN_OR_RETURN(ExprPtr bound, binder.BindScalar(*ob.expr));
      const Expr* e = bound.get();
      while (e->kind == ExprKind::kCast) e = e->children[0].get();
      if (e->kind != ExprKind::kColumn) {
        return Status::BindError(
            "ORDER BY after UNION ALL must reference output columns");
      }
      sort->sort_columns.push_back(e->column_index);
      sort->sort_ascending.push_back(ob.ascending);
    }
    sort->children.push_back(std::move(plan));
    plan = sort;
  }
  if (stmt.limit >= 0 || stmt.offset > 0) {
    plan = MakeLimitNode(std::move(plan), stmt.limit, stmt.offset);
  }
  return plan;
}

Result<PlanNodePtr> LogicalPlanner::PlanCore(const sql::SelectStmt& stmt,
                                             bool with_order_limit) {
  static const std::vector<sql::OrderByItem> kNoOrder;
  const std::vector<sql::OrderByItem>& order_by_items =
      with_order_limit ? stmt.order_by : kNoOrder;
  const int64_t stmt_limit = with_order_limit ? stmt.limit : -1;
  const int64_t stmt_offset = with_order_limit ? stmt.offset : 0;

  // 1. FROM.
  PlanNodePtr plan;
  if (stmt.from) {
    GISQL_ASSIGN_OR_RETURN(plan, PlanTableRef(*stmt.from));
  } else {
    auto values = std::make_shared<PlanNode>(PlanKind::kValues);
    values->output_schema = std::make_shared<Schema>();
    values->values_rows.push_back(Row{});
    plan = values;
  }
  const SchemaPtr input_schema = plan->output_schema;
  Binder binder(*input_schema);

  // 2. WHERE. IN (SELECT ...) conjuncts become distinct-semijoins:
  //    plan ⋈ DISTINCT(subquery) on probe = subquery-column. The joined
  //    column is appended on the right, so left column indexes — and
  //    therefore every other binding against `input_schema` — stay
  //    valid.
  if (stmt.where) {
    if (Binder::ContainsAggregate(*stmt.where)) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    std::vector<const sql::ParseExpr*> conjuncts;
    SplitAstConjuncts(stmt.where.get(), &conjuncts);
    std::vector<ExprPtr> plain;
    for (const sql::ParseExpr* conjunct : conjuncts) {
      if (conjunct->kind != sql::ParseExprKind::kInSubquery) {
        GISQL_ASSIGN_OR_RETURN(ExprPtr bound,
                               binder.BindScalar(*conjunct));
        plain.push_back(std::move(bound));
        continue;
      }
      GISQL_ASSIGN_OR_RETURN(ExprPtr probe,
                             binder.BindScalar(*conjunct->children[0]));
      const Expr* probe_col = probe.get();
      while (probe_col->kind == ExprKind::kCast) {
        probe_col = probe_col->children[0].get();
      }
      if (probe_col->kind != ExprKind::kColumn) {
        return Status::NotImplemented(
            "the left side of IN (SELECT ...) must be a column");
      }
      GISQL_ASSIGN_OR_RETURN(PlanNodePtr sub, Plan(*conjunct->subquery));
      if (sub->output_schema->num_fields() != 1) {
        return Status::BindError(
            "IN subquery must produce exactly one column, got ",
            sub->output_schema->num_fields());
      }
      if (!IsImplicitlyCastable(sub->output_schema->field(0).type,
                                probe_col->type) &&
          !IsImplicitlyCastable(probe_col->type,
                                sub->output_schema->field(0).type)) {
        return Status::BindError(
            "IN subquery column type ",
            TypeName(sub->output_schema->field(0).type),
            " is incompatible with probe type ",
            TypeName(probe_col->type));
      }
      auto distinct = std::make_shared<PlanNode>(PlanKind::kDistinct);
      distinct->output_schema = sub->output_schema;
      distinct->children.push_back(std::move(sub));

      auto join = std::make_shared<PlanNode>(PlanKind::kJoin);
      if (conjunct->negated) {
        // Null-aware anti-join: output keeps only the left columns.
        join->join_type = JoinType::kAnti;
        join->output_schema = plan->output_schema;
      } else {
        join->join_type = JoinType::kInner;
        join->output_schema = std::make_shared<Schema>(
            plan->output_schema->Concat(*distinct->output_schema));
      }
      join->left_keys.push_back(probe_col->column_index);
      join->right_keys.push_back(0);
      join->children = {std::move(plan), std::move(distinct)};
      plan = join;
    }
    if (!plain.empty()) {
      ExprPtr pred = ConjoinAll(std::move(plain));
      if (pred->type != TypeId::kBool && pred->type != TypeId::kNull) {
        return Status::BindError("WHERE clause must be boolean");
      }
      plan = MakeFilterNode(std::move(plan), std::move(pred));
    }
  }

  // 3. Star expansion over the FROM schema.
  GISQL_ASSIGN_OR_RETURN(std::vector<sql::SelectItem> items,
                         ExpandStars(stmt, *input_schema));
  if (items.empty()) return Status::BindError("empty select list");

  // 4. Aggregation decision.
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : items) {
    if (Binder::ContainsAggregate(*item.expr)) has_agg = true;
  }
  if (stmt.having && !has_agg) {
    return Status::BindError("HAVING requires GROUP BY or aggregates");
  }
  for (const auto& ob : order_by_items) {
    if (Binder::ContainsAggregate(*ob.expr) && !has_agg) {
      return Status::BindError(
          "aggregate in ORDER BY without aggregation context");
    }
  }

  std::vector<ExprPtr> select_exprs;
  std::vector<std::string> select_names;
  // The space S select/order/having expressions are bound in:
  //  - aggregated query: the virtual schema [groups..., aggregates...]
  //  - plain query: the FROM/WHERE output schema
  std::vector<ExprPtr> group_exprs;
  std::vector<BoundAggregate> aggs;

  if (has_agg) {
    for (const auto& g_ast : stmt.group_by) {
      if (Binder::ContainsAggregate(*g_ast)) {
        return Status::BindError("aggregates are not allowed in GROUP BY");
      }
      GISQL_ASSIGN_OR_RETURN(ExprPtr g, binder.BindScalar(*g_ast));
      group_exprs.push_back(std::move(g));
    }
    for (const auto& item : items) {
      GISQL_ASSIGN_OR_RETURN(
          ExprPtr e, binder.BindProjection(*item.expr, group_exprs, &aggs));
      select_exprs.push_back(std::move(e));
      select_names.push_back(DisplayName(item));
    }
  } else {
    for (const auto& item : items) {
      GISQL_ASSIGN_OR_RETURN(ExprPtr e, binder.BindScalar(*item.expr));
      select_exprs.push_back(std::move(e));
      select_names.push_back(DisplayName(item));
    }
  }

  ExprPtr having_pred;
  if (stmt.having) {
    GISQL_ASSIGN_OR_RETURN(
        having_pred, binder.BindProjection(*stmt.having, group_exprs, &aggs));
    if (having_pred->type != TypeId::kBool &&
        having_pred->type != TypeId::kNull) {
      return Status::BindError("HAVING clause must be boolean");
    }
  }

  // Bind ORDER BY in space S; also match select aliases.
  struct BoundOrderItem {
    ExprPtr expr;  ///< in space S; null when select_index is set
    int64_t select_index = -1;
    bool ascending = true;
  };
  std::vector<BoundOrderItem> order_items;
  for (const auto& ob : order_by_items) {
    BoundOrderItem item;
    item.ascending = ob.ascending;
    // Alias reference?
    if (ob.expr->kind == sql::ParseExprKind::kColumnRef &&
        ob.expr->qualifier.empty()) {
      for (size_t i = 0; i < select_names.size(); ++i) {
        if (EqualsIgnoreCase(select_names[i], ob.expr->name)) {
          item.select_index = static_cast<int64_t>(i);
          break;
        }
      }
    }
    if (item.select_index < 0) {
      Result<ExprPtr> bound =
          has_agg ? binder.BindProjection(*ob.expr, group_exprs, &aggs)
                  : binder.BindScalar(*ob.expr);
      GISQL_RETURN_NOT_OK(bound.status());
      // Structural match against a select expression?
      for (size_t i = 0; i < select_exprs.size(); ++i) {
        if (select_exprs[i]->Equals(**bound)) {
          item.select_index = static_cast<int64_t>(i);
          break;
        }
      }
      if (item.select_index < 0) item.expr = *bound;
    }
    order_items.push_back(std::move(item));
  }

  // 5. Build the aggregate node.
  if (has_agg) {
    auto agg_node = std::make_shared<PlanNode>(PlanKind::kAggregate);
    std::vector<Field> v_fields;
    for (const auto& g : group_exprs) {
      v_fields.emplace_back(g->ToString(), g->type);
    }
    for (const auto& a : aggs) {
      v_fields.emplace_back(a.display, a.result_type);
    }
    agg_node->output_schema = std::make_shared<Schema>(std::move(v_fields));
    agg_node->group_by = group_exprs;
    agg_node->aggregates = aggs;
    agg_node->children.push_back(std::move(plan));
    plan = agg_node;
    if (having_pred) {
      plan = MakeFilterNode(std::move(plan), std::move(having_pred));
    }
  }

  // 6. Projection (+ hidden sort columns).
  std::vector<ExprPtr> proj_exprs = select_exprs;
  std::vector<std::string> proj_names = select_names;
  size_t hidden = 0;
  for (auto& item : order_items) {
    if (item.select_index >= 0) continue;
    item.select_index = static_cast<int64_t>(proj_exprs.size());
    proj_exprs.push_back(item.expr);
    proj_names.push_back("$sort" + std::to_string(hidden++));
  }
  if (stmt.distinct && hidden > 0) {
    return Status::BindError(
        "ORDER BY expressions must appear in the select list when "
        "DISTINCT is used");
  }
  plan = MakeProjectNode(std::move(plan), proj_exprs, proj_names);

  // 7. DISTINCT.
  if (stmt.distinct) {
    auto distinct = std::make_shared<PlanNode>(PlanKind::kDistinct);
    distinct->output_schema = plan->output_schema;
    distinct->children.push_back(std::move(plan));
    plan = distinct;
  }

  // 8. Sort.
  if (!order_items.empty()) {
    auto sort = std::make_shared<PlanNode>(PlanKind::kSort);
    sort->output_schema = plan->output_schema;
    for (const auto& item : order_items) {
      sort->sort_columns.push_back(static_cast<size_t>(item.select_index));
      sort->sort_ascending.push_back(item.ascending);
    }
    sort->children.push_back(std::move(plan));
    plan = sort;
  }

  // Drop hidden sort columns.
  if (hidden > 0) {
    std::vector<ExprPtr> keep;
    std::vector<std::string> keep_names;
    for (size_t i = 0; i < select_exprs.size(); ++i) {
      keep.push_back(MakeColumn(i, plan->output_schema->field(i).type,
                                select_names[i]));
      keep_names.push_back(select_names[i]);
    }
    plan = MakeProjectNode(std::move(plan), std::move(keep),
                           std::move(keep_names));
  }

  // 9. LIMIT / OFFSET.
  if (stmt_limit >= 0 || stmt_offset > 0) {
    plan = MakeLimitNode(std::move(plan), stmt_limit, stmt_offset);
  }
  return plan;
}

}  // namespace gisql
