#include "planner/decomposer.h"

#include <algorithm>
#include <utility>

namespace gisql {

namespace {

bool IsPlainFragment(const PlanNode& node) {
  return node.kind == PlanKind::kRemoteFragment &&
         !node.fragment.has_aggregate && node.fragment.limit < 0;
}

/// Rewrites an expression over a fragment's *output* space into the
/// fragment's *table* space (identity when no projections).
Result<ExprPtr> IntoTableSpace(const Expr& e, const FragmentPlan& frag) {
  if (frag.projections.empty()) return e.Clone();
  return SubstituteColumns(e, frag.projections);
}

}  // namespace

const SourceCapabilities* Decomposer::CapsOf(
    const std::string& source) const {
  auto info = catalog_.GetSource(source);
  return info.ok() ? &(*info)->capabilities : nullptr;
}

Result<PlanNodePtr> Decomposer::TryAbsorbFilter(PlanNodePtr filter_node) {
  PlanNodePtr child = filter_node->children[0];
  if (!options_.enable_filter_pushdown || !IsPlainFragment(*child)) {
    return filter_node;
  }
  const SourceCapabilities* caps = CapsOf(child->fragment_source);
  if (caps == nullptr || !caps->filter_pushdown) return filter_node;
  GISQL_ASSIGN_OR_RETURN(ExprPtr pred,
                         IntoTableSpace(*filter_node->filter,
                                        child->fragment));
  child->fragment.filter =
      child->fragment.filter
          ? MakeLogic(LogicOp::kAnd, child->fragment.filter, std::move(pred))
          : std::move(pred);
  // The fragment keeps the filter node's output schema (identical).
  child->output_schema = filter_node->output_schema;
  return child;
}

Result<PlanNodePtr> Decomposer::TryAbsorbProject(PlanNodePtr project_node) {
  PlanNodePtr child = project_node->children[0];
  if (!options_.enable_projection_pushdown || !IsPlainFragment(*child)) {
    return project_node;
  }
  const SourceCapabilities* caps = CapsOf(child->fragment_source);
  if (caps == nullptr || !caps->projection_pushdown) return project_node;
  // A zero-column projection cannot be expressed in the protocol (an
  // empty list means "all columns").
  if (project_node->projections.empty()) return project_node;
  std::vector<ExprPtr> new_projs;
  new_projs.reserve(project_node->projections.size());
  for (const auto& p : project_node->projections) {
    GISQL_ASSIGN_OR_RETURN(ExprPtr sub, IntoTableSpace(*p, child->fragment));
    new_projs.push_back(std::move(sub));
  }
  child->fragment.projections = std::move(new_projs);
  child->fragment.projection_names.clear();
  for (size_t i = 0; i < project_node->projections.size(); ++i) {
    child->fragment.projection_names.push_back(
        i < project_node->projection_names.size()
            ? project_node->projection_names[i]
            : "");
  }
  child->output_schema = project_node->output_schema;
  return child;
}

Result<PlanNodePtr> Decomposer::TryAbsorbLimit(PlanNodePtr limit_node) {
  if (!options_.enable_limit_pushdown || limit_node->limit < 0) {
    return limit_node;
  }
  const int64_t want = limit_node->limit + limit_node->offset;
  auto push_into = [&](const PlanNodePtr& frag_node) {
    const SourceCapabilities* caps = CapsOf(frag_node->fragment_source);
    if (caps == nullptr || !caps->limit_pushdown) return;
    if (frag_node->fragment.limit < 0 || frag_node->fragment.limit > want) {
      frag_node->fragment.limit = want;
    }
  };
  // Top-N pushdown: LIMIT over SORT becomes a source-side top-k — each
  // member ships only its best `limit+offset` rows; the mediator's
  // Sort+Limit stay for the exact global merge.
  auto push_topn = [&](const PlanNodePtr& frag_node,
                       const std::vector<size_t>& cols,
                       const std::vector<bool>& ascending) {
    const SourceCapabilities* caps = CapsOf(frag_node->fragment_source);
    if (caps == nullptr || !caps->limit_pushdown || !caps->sort_pushdown) {
      return;
    }
    FragmentPlan& frag = frag_node->fragment;
    if (frag.limit >= 0 || !frag.order_by.empty()) return;
    for (size_t i = 0; i < cols.size(); ++i) {
      const Field& f = frag_node->output_schema->field(cols[i]);
      frag.order_by.push_back(MakeColumn(cols[i], f.type,
                                         f.QualifiedName()));
      frag.order_ascending.push_back(ascending[i]);
    }
    frag.limit = want;
  };

  PlanNodePtr child = limit_node->children[0];
  if (child->kind == PlanKind::kRemoteFragment) {
    push_into(child);
  } else if (child->kind == PlanKind::kUnionAll) {
    for (const auto& member : child->children) {
      if (member->kind == PlanKind::kRemoteFragment) push_into(member);
    }
  } else if (child->kind == PlanKind::kSort) {
    // Map the sort columns through any pass-through projections between
    // the sort and the fragment/union below; ordering by a pure column
    // commutes with projection.
    std::vector<size_t> cols = child->sort_columns;
    const PlanNode* below = child->children[0].get();
    bool traceable = true;
    while (traceable && below->kind == PlanKind::kProject) {
      for (auto& c : cols) {
        if (c >= below->projections.size()) {
          traceable = false;
          break;
        }
        const Expr* e = below->projections[c].get();
        while (e->kind == ExprKind::kCast) e = e->children[0].get();
        if (e->kind != ExprKind::kColumn) {
          traceable = false;
          break;
        }
        c = e->column_index;
      }
      if (traceable) below = below->children[0].get();
    }
    if (traceable) {
      if (below->kind == PlanKind::kRemoteFragment) {
        // push_topn needs the owning shared node; children[0] chains are
        // shared_ptrs, so locate the node by identity.
        VisitPlan(child, [&](const PlanNodePtr& node) {
          if (node.get() == below) {
            push_topn(node, cols, child->sort_ascending);
          }
        });
      } else if (below->kind == PlanKind::kUnionAll) {
        for (const auto& member : below->children) {
          if (member->kind == PlanKind::kRemoteFragment) {
            push_topn(member, cols, child->sort_ascending);
          }
        }
      }
    }
  }
  // The mediator-side limit remains for exactness (offset, union merge).
  return limit_node;
}

Result<PlanNodePtr> Decomposer::TryPushAggregate(PlanNodePtr agg_node) {
  if (!options_.enable_aggregate_pushdown) return agg_node;
  PlanNodePtr child = agg_node->children[0];

  // A fragment can absorb a partial aggregation if its source's dialect
  // supports it and the fragment has no prior aggregate/limit.
  auto pushable = [&](const PlanNodePtr& node) {
    if (node->kind != PlanKind::kRemoteFragment) return false;
    if (node->fragment.has_aggregate || node->fragment.limit >= 0) {
      return false;
    }
    const SourceCapabilities* caps = CapsOf(node->fragment_source);
    return caps != nullptr && caps->aggregate_pushdown;
  };

  // Classify the aggregation input. Union members that cannot absorb a
  // partial aggregation (incapable dialects, mediator-compensated
  // chains) get a *mediator-side* partial aggregate instead, so the
  // merge stage sees uniform partial rows from every member.
  size_t n_pushable = 0;
  if (child->kind == PlanKind::kRemoteFragment) {
    if (!pushable(child)) return agg_node;
    n_pushable = 1;
  } else if (child->kind == PlanKind::kUnionAll) {
    for (const auto& member : child->children) {
      if (pushable(member)) ++n_pushable;
    }
    // Without at least one source-side partial there is no benefit.
    if (n_pushable == 0) return agg_node;
  } else {
    return agg_node;
  }
  for (const auto& a : agg_node->aggregates) {
    if (a.distinct) return agg_node;  // not decomposable
  }

  const size_t k = agg_node->group_by.size();

  // Build the partial aggregate list (AVG → SUM + COUNT), deduplicated.
  struct PartialRef {
    size_t direct = static_cast<size_t>(-1);  ///< partial index
    size_t sum_idx = static_cast<size_t>(-1);  ///< AVG only
    size_t count_idx = static_cast<size_t>(-1);
  };
  std::vector<BoundAggregate> partials;
  auto intern = [&](const BoundAggregate& p) -> size_t {
    for (size_t i = 0; i < partials.size(); ++i) {
      if (partials[i].Equals(p)) return i;
    }
    partials.push_back(p);
    return partials.size() - 1;
  };
  std::vector<PartialRef> refs(agg_node->aggregates.size());
  for (size_t i = 0; i < agg_node->aggregates.size(); ++i) {
    const BoundAggregate& a = agg_node->aggregates[i];
    if (a.kind == AggKind::kAvg) {
      BoundAggregate sum;
      sum.kind = AggKind::kSum;
      sum.arg = a.arg;
      sum.result_type =
          a.arg->type == TypeId::kDouble ? TypeId::kDouble : TypeId::kInt64;
      sum.display = "SUM(" + a.arg->ToString() + ")";
      BoundAggregate count;
      count.kind = AggKind::kCount;
      count.arg = a.arg;
      count.result_type = TypeId::kInt64;
      count.display = "COUNT(" + a.arg->ToString() + ")";
      refs[i].sum_idx = intern(sum);
      refs[i].count_idx = intern(count);
    } else {
      refs[i].direct = intern(a);
    }
  }

  // Install the partial aggregation in every fragment, translating
  // group/arg expressions into each fragment's table space.
  std::vector<Field> partial_fields;
  for (size_t g = 0; g < k; ++g) {
    partial_fields.emplace_back(agg_node->group_by[g]->ToString(),
                                agg_node->group_by[g]->type);
  }
  for (const auto& p : partials) {
    partial_fields.emplace_back(p.display, p.result_type);
  }
  auto partial_schema = std::make_shared<Schema>(partial_fields);

  // Installs the partial aggregation into one pushable fragment,
  // translating group/arg expressions into its table space.
  auto install_in_fragment = [&](const PlanNodePtr& f) -> Status {
    FragmentPlan& frag = f->fragment;
    std::vector<ExprPtr> groups_ts;
    for (const auto& g : agg_node->group_by) {
      GISQL_ASSIGN_OR_RETURN(ExprPtr ts, IntoTableSpace(*g, frag));
      groups_ts.push_back(std::move(ts));
    }
    std::vector<BoundAggregate> partials_ts;
    for (const auto& p : partials) {
      BoundAggregate pt = p;
      if (pt.arg) {
        GISQL_ASSIGN_OR_RETURN(pt.arg, IntoTableSpace(*pt.arg, frag));
      }
      partials_ts.push_back(std::move(pt));
    }
    frag.projections.clear();
    frag.projection_names.clear();
    frag.has_aggregate = true;
    frag.group_by = std::move(groups_ts);
    frag.aggregates = std::move(partials_ts);
    f->output_schema = partial_schema;
    return Status::OK();
  };
  // Wraps a non-pushable member with a mediator-side partial aggregate
  // (its input space equals the aggregation input space).
  auto wrap_with_partial = [&](PlanNodePtr member) {
    auto part = std::make_shared<PlanNode>(PlanKind::kAggregate);
    for (const auto& g : agg_node->group_by) {
      part->group_by.push_back(g->Clone());
    }
    for (const auto& p : partials) {
      BoundAggregate pt = p;
      if (pt.arg) pt.arg = pt.arg->Clone();
      part->aggregates.push_back(std::move(pt));
    }
    part->output_schema = partial_schema;
    part->children.push_back(std::move(member));
    return part;
  };

  if (child->kind == PlanKind::kRemoteFragment) {
    GISQL_RETURN_NOT_OK(install_in_fragment(child));
  } else {
    for (auto& member : child->children) {
      if (pushable(member)) {
        GISQL_RETURN_NOT_OK(install_in_fragment(member));
      } else {
        member = wrap_with_partial(std::move(member));
      }
    }
    child->output_schema = partial_schema;
  }

  // Mediator-side merge aggregation over the partial rows.
  auto merge = std::make_shared<PlanNode>(PlanKind::kAggregate);
  merge->children.push_back(child);
  for (size_t g = 0; g < k; ++g) {
    merge->group_by.push_back(MakeColumn(
        g, agg_node->group_by[g]->type, partial_fields[g].name));
  }
  std::vector<Field> merge_fields(partial_fields.begin(),
                                  partial_fields.begin() + k);
  for (size_t j = 0; j < partials.size(); ++j) {
    BoundAggregate m;
    const BoundAggregate& p = partials[j];
    const TypeId col_type = p.result_type;
    ExprPtr col = MakeColumn(k + j, col_type, p.display);
    switch (p.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        m.kind = AggKind::kSum;
        m.result_type = TypeId::kInt64;
        break;
      case AggKind::kSum:
        m.kind = AggKind::kSum;
        m.result_type = p.result_type;
        break;
      case AggKind::kMin:
        m.kind = AggKind::kMin;
        m.result_type = p.result_type;
        break;
      case AggKind::kMax:
        m.kind = AggKind::kMax;
        m.result_type = p.result_type;
        break;
      case AggKind::kAvg:
        return Status::Internal("AVG must not appear among partials");
    }
    m.arg = std::move(col);
    m.display = p.display;
    merge->aggregates.push_back(m);
    merge_fields.emplace_back(p.display, m.result_type);
  }
  merge->output_schema = std::make_shared<Schema>(merge_fields);

  // Final projection restoring the original aggregate output shape
  // (groups + original aggregates, AVG computed from its partials).
  std::vector<ExprPtr> out_exprs;
  std::vector<std::string> out_names;
  for (size_t g = 0; g < k; ++g) {
    out_exprs.push_back(MakeColumn(g, agg_node->group_by[g]->type,
                                   partial_fields[g].name));
    out_names.push_back(agg_node->output_schema->field(g).name);
  }
  for (size_t i = 0; i < agg_node->aggregates.size(); ++i) {
    const BoundAggregate& a = agg_node->aggregates[i];
    ExprPtr e;
    if (a.kind == AggKind::kAvg) {
      ExprPtr sum = MakeColumn(k + refs[i].sum_idx,
                               merge_fields[k + refs[i].sum_idx].type,
                               "sum_partial");
      ExprPtr count = MakeColumn(k + refs[i].count_idx, TypeId::kInt64,
                                 "count_partial");
      if (sum->type != TypeId::kDouble) {
        sum = MakeCast(std::move(sum), TypeId::kDouble);
      }
      e = MakeArith(ArithOp::kDiv, std::move(sum),
                    MakeCast(std::move(count), TypeId::kDouble));
    } else {
      const size_t j = refs[i].direct;
      e = MakeColumn(k + j, merge_fields[k + j].type, a.display);
      // COUNT merged via SUM yields NULL on empty input; SQL COUNT
      // must be 0.
      if (a.kind == AggKind::kCount || a.kind == AggKind::kCountStar) {
        auto coalesce = std::make_shared<Expr>(ExprKind::kFunc);
        coalesce->func_name = "COALESCE";
        coalesce->type = TypeId::kInt64;
        coalesce->children = {std::move(e), MakeLiteral(Value::Int(0))};
        e = coalesce;
      }
    }
    out_exprs.push_back(std::move(e));
    out_names.push_back(agg_node->output_schema->field(k + i).name);
  }
  PlanNodePtr project =
      MakeProjectNode(merge, std::move(out_exprs), std::move(out_names));
  project->output_schema = agg_node->output_schema;
  return project;
}

Status Decomposer::ChooseJoinStrategy(const PlanNodePtr& join_node) {
  join_node->join_strategy = JoinStrategy::kShip;
  if (!options_.enable_semijoin || join_node->left_keys.empty()) {
    return Status::OK();
  }
  // Anti-joins must see every right key (incl. NULL markers) to decide
  // their three-valued outcome; semijoin reduction would lose that.
  if (join_node->join_type == JoinType::kAnti) return Status::OK();
  const PlanNodePtr& right = join_node->children[1];

  // Trace the probe key through mediator-side compensation (Project /
  // Filter chains above the fragment of a less-capable source) down to
  // a base table column of a plain fragment.
  const PlanNode* cur = right.get();
  size_t col = join_node->right_keys[0];
  while (true) {
    if (cur->kind == PlanKind::kProject) {
      if (col >= cur->projections.size()) return Status::OK();
      const Expr* e = cur->projections[col].get();
      while (e->kind == ExprKind::kCast) e = e->children[0].get();
      if (e->kind != ExprKind::kColumn) return Status::OK();
      col = e->column_index;
      cur = cur->children[0].get();
      continue;
    }
    if (cur->kind == PlanKind::kFilter) {
      // Semijoin reduction commutes with the compensated filter.
      cur = cur->children[0].get();
      continue;
    }
    break;
  }
  if (cur->kind != PlanKind::kRemoteFragment ||
      cur->fragment.has_aggregate || cur->fragment.limit >= 0 ||
      cur->fragment.semijoin_column >= 0 ||
      cur->fragment.index_column >= 0 ||
      !cur->fragment.join_table.empty()) {
    return Status::OK();
  }
  const SourceCapabilities* caps = CapsOf(cur->fragment_source);
  if (caps == nullptr || !caps->semijoin_pushdown) return Status::OK();

  // Locate the semijoin column in the fragment's table space.
  int64_t table_col = -1;
  if (cur->fragment.projections.empty()) {
    table_col = static_cast<int64_t>(col);
  } else if (col < cur->fragment.projections.size()) {
    const Expr* e = cur->fragment.projections[col].get();
    while (e->kind == ExprKind::kCast) e = e->children[0].get();
    if (e->kind == ExprKind::kColumn) {
      table_col = static_cast<int64_t>(e->column_index);
    }
  }
  if (table_col < 0) return Status::OK();
  if (caps->semijoin_key_only && table_col != 0) return Status::OK();

  // Cost the two strategies from the statistics.
  const PlanNodePtr& left = join_node->children[0];
  cost_->Annotate(left);
  cost_->Annotate(right);
  double ndv_left = left->est_rows;
  const int64_t d = cost_->EstimateDistinct(*left,
                                            join_node->left_keys[0]);
  if (d > 0) ndv_left = std::min(ndv_left, static_cast<double>(d));
  double ndv_right = std::max(right->est_rows, 1.0);
  const int64_t dr =
      cost_->EstimateDistinct(*right, join_node->right_keys[0]);
  if (dr > 0) ndv_right = static_cast<double>(dr);

  const double key_width = 8.0;
  const double right_width = static_cast<double>(
      right->output_schema->EstimatedRowWidth());
  const double reduction = std::min(1.0, ndv_left / ndv_right);
  const double semijoin_bytes =
      ndv_left * key_width + reduction * right->est_rows * right_width;
  const double ship_bytes = right->est_rows * right_width;

  if (options_.force_semijoin ||
      (ndv_left <= static_cast<double>(options_.semijoin_max_keys) &&
       semijoin_bytes < ship_bytes)) {
    join_node->join_strategy = JoinStrategy::kSemijoin;
    // The marker lives on the fragment node itself; the executor
    // injects the actual key values at run time.
    const_cast<PlanNode*>(cur)->fragment.semijoin_column = table_col;
  }
  return Status::OK();
}

Result<PlanNodePtr> Decomposer::TryCollapseIndexJoin(
    const PlanNodePtr& join_node) {
  if (!options_.enable_index_join) return PlanNodePtr();
  if (join_node->join_type != JoinType::kInner ||
      join_node->join_residual != nullptr ||
      join_node->left_keys.size() != 1) {
    return PlanNodePtr();
  }
  const PlanNodePtr& outer = join_node->children[0];
  const PlanNodePtr& inner = join_node->children[1];
  auto collapsible = [](const PlanNode& n) {
    return n.kind == PlanKind::kRemoteFragment &&
           !n.fragment.has_aggregate && n.fragment.limit < 0 &&
           n.fragment.projections.empty() && n.fragment.order_by.empty() &&
           n.fragment.semijoin_column < 0 && n.fragment.index_column < 0 &&
           n.fragment.join_table.empty();
  };
  // Only a *co-located* pair collapses: the probe loop runs inside one
  // source, so both tables must live there.
  if (!collapsible(*outer) || !collapsible(*inner) ||
      outer->fragment_source != inner->fragment_source) {
    return PlanNodePtr();
  }
  const SourceCapabilities* caps = CapsOf(outer->fragment_source);
  if (caps == nullptr || !caps->index_join) return PlanNodePtr();
  // The inner side must be indexed on the join key (from imported
  // statistics), or the source would fall back to an error.
  auto mapping = catalog_.GetTable(inner->scan_global_name);
  if (!mapping.ok()) return PlanNodePtr();
  const TableStats& st = (*mapping)->stats;
  const int64_t key = static_cast<int64_t>(join_node->right_keys[0]);
  const bool indexed =
      std::find(st.hash_indexed_columns.begin(),
                st.hash_indexed_columns.end(),
                key) != st.hash_indexed_columns.end() ||
      std::find(st.ordered_indexed_columns.begin(),
                st.ordered_indexed_columns.end(),
                key) != st.ordered_indexed_columns.end();
  if (!indexed) return PlanNodePtr();

  FragmentPlan& frag = outer->fragment;
  frag.join_table = inner->fragment.table;
  frag.join_outer_column = static_cast<int64_t>(join_node->left_keys[0]);
  frag.join_inner_column = key;
  frag.join_inner_filter = inner->fragment.filter;
  outer->output_schema = join_node->output_schema;
  // Failover replicas cannot be assumed to co-locate the inner table.
  outer->scan_alternates.clear();
  return outer;
}

void Decomposer::ApplyIndexRangeScans(const PlanNodePtr& root) {
  if (!options_.enable_index_range_scan) return;
  VisitPlan(root, [&](const PlanNodePtr& node) {
    if (node->kind != PlanKind::kRemoteFragment) return;
    FragmentPlan& frag = node->fragment;
    // Semijoin reduction is an alternative access path; a fragment
    // already carrying one keeps it.
    if (!frag.filter || frag.semijoin_column >= 0 ||
        frag.index_column >= 0) {
      return;
    }
    const SourceCapabilities* caps = CapsOf(node->fragment_source);
    if (caps == nullptr || !caps->index_range_scan) return;
    auto mapping = catalog_.GetTable(node->scan_global_name);
    if (!mapping.ok()) return;
    const std::vector<int64_t>& indexed =
        (*mapping)->stats.ordered_indexed_columns;
    if (indexed.empty()) return;

    // The whole filter stays on the fragment as the residual, so a
    // range implied by some of its conjuncts is always sound.
    const ColumnRange range = SargableRange(frag.filter, indexed);
    if (range.column < 0) return;
    frag.index_column = range.column;
    frag.range_lo = range.lo;
    frag.range_hi = range.hi;
    frag.range_lo_inclusive = range.lo_inclusive;
    frag.range_hi_inclusive = range.hi_inclusive;
  });
}

Result<PlanNodePtr> Decomposer::Rewrite(PlanNodePtr node) {
  for (auto& c : node->children) {
    GISQL_ASSIGN_OR_RETURN(c, Rewrite(std::move(c)));
  }
  switch (node->kind) {
    case PlanKind::kSourceScan: {
      auto frag = std::make_shared<PlanNode>(PlanKind::kRemoteFragment);
      frag->fragment_source = node->scan_source;
      frag->fragment.table = node->scan_exported_name;
      frag->scan_global_name = node->scan_global_name;
      frag->scan_alternates = node->scan_alternates;
      frag->output_schema = node->output_schema;
      return frag;
    }
    case PlanKind::kFilter:
      return TryAbsorbFilter(std::move(node));
    case PlanKind::kProject:
      return TryAbsorbProject(std::move(node));
    case PlanKind::kLimit:
      return TryAbsorbLimit(std::move(node));
    case PlanKind::kAggregate:
      return TryPushAggregate(std::move(node));
    case PlanKind::kJoin: {
      GISQL_ASSIGN_OR_RETURN(PlanNodePtr collapsed,
                             TryCollapseIndexJoin(node));
      if (collapsed != nullptr) return collapsed;
      GISQL_RETURN_NOT_OK(ChooseJoinStrategy(node));
      return node;
    }
    default:
      return node;
  }
}

Result<PlanNodePtr> Decomposer::Decompose(PlanNodePtr plan) {
  GISQL_ASSIGN_OR_RETURN(plan, Rewrite(std::move(plan)));
  ApplyIndexRangeScans(plan);
  cost_->Annotate(plan);
  return plan;
}

}  // namespace gisql
