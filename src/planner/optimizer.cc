#include "planner/optimizer.h"

#include <algorithm>
#include <numeric>

#include "expr/eval.h"

namespace gisql {

namespace {

PlanNodePtr WrapFilter(PlanNodePtr node, std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return node;
  return MakeFilterNode(std::move(node), ConjoinAll(std::move(conjuncts)));
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass 1: constant folding
// ---------------------------------------------------------------------------

PlanNodePtr Optimizer::FoldAllConstants(PlanNodePtr node) {
  for (auto& c : node->children) c = FoldAllConstants(std::move(c));
  if (!options_.enable_constant_folding) return node;
  if (node->filter) node->filter = FoldConstants(node->filter);
  if (node->join_residual) {
    node->join_residual = FoldConstants(node->join_residual);
  }
  for (auto& p : node->projections) p = FoldConstants(p);
  for (auto& g : node->group_by) g = FoldConstants(g);
  for (auto& a : node->aggregates) {
    if (a.arg) a.arg = FoldConstants(a.arg);
  }
  return node;
}

// ---------------------------------------------------------------------------
// Pass 2: filter pushdown
// ---------------------------------------------------------------------------

Result<PlanNodePtr> Optimizer::PushFilters(PlanNodePtr node,
                                           std::vector<ExprPtr> pending) {
  switch (node->kind) {
    case PlanKind::kFilter: {
      SplitConjuncts(node->filter, &pending);
      return PushFilters(node->children[0], std::move(pending));
    }

    case PlanKind::kProject: {
      std::vector<ExprPtr> below;
      below.reserve(pending.size());
      for (const auto& c : pending) {
        GISQL_ASSIGN_OR_RETURN(ExprPtr sub,
                               SubstituteColumns(*c, node->projections));
        below.push_back(std::move(sub));
      }
      GISQL_ASSIGN_OR_RETURN(
          node->children[0],
          PushFilters(node->children[0], std::move(below)));
      return node;
    }

    case PlanKind::kJoin: {
      const size_t lw = node->children[0]->output_schema->num_fields();
      const size_t total = node->output_schema->num_fields();
      const bool inner = node->join_type == JoinType::kInner;
      std::vector<ExprPtr> left_pending, right_pending, stay;

      // The residual joins the pending set for re-analysis (it may have
      // become single-sided after earlier rewrites).
      if (inner && node->join_residual) {
        SplitConjuncts(node->join_residual, &pending);
        node->join_residual = nullptr;
      }
      for (auto& c : pending) {
        if (c->ColumnsWithin(0, lw)) {
          left_pending.push_back(std::move(c));
          continue;
        }
        if (c->ColumnsWithin(lw, total)) {
          if (inner) {
            // Shift into right-child space.
            std::vector<size_t> mapping(total, static_cast<size_t>(-1));
            for (size_t i = lw; i < total; ++i) mapping[i] = i - lw;
            GISQL_ASSIGN_OR_RETURN(ExprPtr shifted,
                                   RemapColumns(*c, mapping));
            right_pending.push_back(std::move(shifted));
          } else {
            stay.push_back(std::move(c));  // unsafe below a LEFT join
          }
          continue;
        }
        // Mixed-side conjunct: promote equi-comparisons to join keys.
        bool promoted = false;
        if (inner && c->kind == ExprKind::kCompare &&
            c->compare_op == CompareOp::kEq) {
          auto unwrap = [](const ExprPtr& e) -> const Expr* {
            const Expr* p = e.get();
            while (p->kind == ExprKind::kCast) p = p->children[0].get();
            return p;
          };
          const Expr* l = unwrap(c->children[0]);
          const Expr* r = unwrap(c->children[1]);
          if (l->kind == ExprKind::kColumn && r->kind == ExprKind::kColumn) {
            size_t li = l->column_index, ri = r->column_index;
            if (li >= lw && ri < lw) std::swap(li, ri);
            if (li < lw && ri >= lw) {
              node->left_keys.push_back(li);
              node->right_keys.push_back(ri - lw);
              promoted = true;
            }
          }
        }
        if (!promoted) {
          if (inner) {
            // Keep as join residual (evaluated on candidate pairs).
            node->join_residual =
                node->join_residual
                    ? MakeLogic(LogicOp::kAnd, node->join_residual,
                                std::move(c))
                    : std::move(c);
          } else {
            stay.push_back(std::move(c));
          }
        }
      }
      GISQL_ASSIGN_OR_RETURN(
          node->children[0],
          PushFilters(node->children[0], std::move(left_pending)));
      GISQL_ASSIGN_OR_RETURN(
          node->children[1],
          PushFilters(node->children[1], std::move(right_pending)));
      return WrapFilter(node, std::move(stay));
    }

    case PlanKind::kUnionAll: {
      for (auto& child : node->children) {
        std::vector<ExprPtr> cloned;
        cloned.reserve(pending.size());
        for (const auto& c : pending) cloned.push_back(c->Clone());
        GISQL_ASSIGN_OR_RETURN(child,
                               PushFilters(child, std::move(cloned)));
      }
      return node;
    }

    case PlanKind::kAggregate: {
      const size_t ngroups = node->group_by.size();
      std::vector<ExprPtr> below, stay;
      for (auto& c : pending) {
        if (c->ColumnsWithin(0, ngroups)) {
          // Group-column conjunct: substitute group expressions to move
          // it below the aggregation.
          GISQL_ASSIGN_OR_RETURN(ExprPtr sub,
                                 SubstituteColumns(*c, node->group_by));
          below.push_back(std::move(sub));
        } else {
          stay.push_back(std::move(c));
        }
      }
      GISQL_ASSIGN_OR_RETURN(
          node->children[0],
          PushFilters(node->children[0], std::move(below)));
      return WrapFilter(node, std::move(stay));
    }

    case PlanKind::kSort:
    case PlanKind::kDistinct: {
      GISQL_ASSIGN_OR_RETURN(
          node->children[0],
          PushFilters(node->children[0], std::move(pending)));
      return node;
    }

    case PlanKind::kLimit: {
      // Filters must not cross a LIMIT; apply above it.
      GISQL_ASSIGN_OR_RETURN(node->children[0],
                             PushFilters(node->children[0], {}));
      return WrapFilter(node, std::move(pending));
    }

    case PlanKind::kValues:
    case PlanKind::kSourceScan:
    case PlanKind::kVirtualScan:
    case PlanKind::kRemoteFragment:
      return WrapFilter(node, std::move(pending));
  }
  return Status::Internal("unreachable plan kind in PushFilters");
}

// ---------------------------------------------------------------------------
// Pass 3: join reordering
// ---------------------------------------------------------------------------

namespace {

struct JoinLeaf {
  PlanNodePtr node;
  size_t offset = 0;  ///< column offset in the original concat order
  size_t width = 0;
};

struct EquiEdge {
  size_t left_leaf, left_col;    ///< leaf index + column within leaf
  size_t right_leaf, right_col;
};

struct Cluster {
  std::vector<JoinLeaf> leaves;
  std::vector<EquiEdge> edges;
  /// Residual predicates in the original global column space, with the
  /// set of leaves they touch.
  std::vector<std::pair<ExprPtr, std::vector<size_t>>> residuals;
};

/// Flattens a maximal inner-join subtree.
void FlattenJoins(const PlanNodePtr& node, size_t offset, Cluster* cluster) {
  if (node->kind == PlanKind::kJoin &&
      node->join_type == JoinType::kInner) {
    const size_t lw = node->children[0]->output_schema->num_fields();
    const size_t leaf_base = cluster->leaves.size();
    FlattenJoins(node->children[0], offset, cluster);
    const size_t right_leaf_base = cluster->leaves.size();
    FlattenJoins(node->children[1], offset + lw, cluster);

    auto locate = [&](size_t global_col, size_t lo_leaf,
                      size_t hi_leaf) -> std::pair<size_t, size_t> {
      for (size_t li = lo_leaf; li < hi_leaf; ++li) {
        const JoinLeaf& leaf = cluster->leaves[li];
        if (global_col >= leaf.offset &&
            global_col < leaf.offset + leaf.width) {
          return {li, global_col - leaf.offset};
        }
      }
      return {static_cast<size_t>(-1), 0};
    };
    for (size_t i = 0; i < node->left_keys.size(); ++i) {
      auto [ll, lc] =
          locate(offset + node->left_keys[i], leaf_base, right_leaf_base);
      auto [rl, rc] = locate(offset + lw + node->right_keys[i],
                             right_leaf_base, cluster->leaves.size());
      if (ll != static_cast<size_t>(-1) && rl != static_cast<size_t>(-1)) {
        cluster->edges.push_back({ll, lc, rl, rc});
      }
    }
    if (node->join_residual) {
      ExprPtr shifted = ShiftColumns(*node->join_residual, offset);
      std::vector<size_t> cols;
      shifted->CollectColumns(&cols);
      std::vector<size_t> touched;
      for (size_t col : cols) {
        auto [li, lc] = locate(col, leaf_base, cluster->leaves.size());
        (void)lc;
        if (li != static_cast<size_t>(-1) &&
            std::find(touched.begin(), touched.end(), li) == touched.end()) {
          touched.push_back(li);
        }
      }
      cluster->residuals.emplace_back(std::move(shifted),
                                      std::move(touched));
    }
    return;
  }
  JoinLeaf leaf;
  leaf.node = node;
  leaf.offset = offset;
  leaf.width = node->output_schema->num_fields();
  cluster->leaves.push_back(std::move(leaf));
}

/// Builds a left-deep join tree for the given placement order.
/// Returns the root and fills `layout` (leaf index → column offset in
/// the built tree's output).
Result<PlanNodePtr> BuildLeftDeep(const Cluster& cluster,
                                  const std::vector<size_t>& order,
                                  std::vector<size_t>* layout) {
  layout->assign(cluster.leaves.size(), static_cast<size_t>(-1));
  std::vector<bool> placed(cluster.leaves.size(), false);
  std::vector<bool> edge_used(cluster.edges.size(), false);
  std::vector<bool> residual_used(cluster.residuals.size(), false);

  PlanNodePtr acc = cluster.leaves[order[0]].node;
  (*layout)[order[0]] = 0;
  placed[order[0]] = true;
  size_t acc_width = cluster.leaves[order[0]].width;

  for (size_t step = 1; step < order.size(); ++step) {
    const size_t li = order[step];
    const JoinLeaf& leaf = cluster.leaves[li];
    auto join = std::make_shared<PlanNode>(PlanKind::kJoin);
    join->join_type = JoinType::kInner;
    join->output_schema = std::make_shared<Schema>(
        acc->output_schema->Concat(*leaf.node->output_schema));
    // Keys connecting the new leaf with anything already placed.
    for (size_t ei = 0; ei < cluster.edges.size(); ++ei) {
      if (edge_used[ei]) continue;
      const EquiEdge& e = cluster.edges[ei];
      size_t in_col = 0, new_col = 0;
      if (e.left_leaf == li && placed[e.right_leaf]) {
        in_col = (*layout)[e.right_leaf] + e.right_col;
        new_col = e.left_col;
      } else if (e.right_leaf == li && placed[e.left_leaf]) {
        in_col = (*layout)[e.left_leaf] + e.left_col;
        new_col = e.right_col;
      } else {
        continue;
      }
      join->left_keys.push_back(in_col);
      join->right_keys.push_back(new_col);
      edge_used[ei] = true;
    }
    placed[li] = true;
    (*layout)[li] = acc_width;
    acc_width += leaf.width;
    join->children = {acc, leaf.node};

    // Residuals whose leaves are now all placed.
    std::vector<ExprPtr> ready;
    for (size_t ri = 0; ri < cluster.residuals.size(); ++ri) {
      if (residual_used[ri]) continue;
      bool all = true;
      for (size_t tl : cluster.residuals[ri].second) {
        if (!placed[tl]) {
          all = false;
          break;
        }
      }
      if (!all) continue;
      residual_used[ri] = true;
      // Remap from the original global space into the current layout.
      size_t global_width = 0;
      for (const auto& l : cluster.leaves) {
        global_width = std::max(global_width, l.offset + l.width);
      }
      std::vector<size_t> mapping(global_width, static_cast<size_t>(-1));
      for (size_t l = 0; l < cluster.leaves.size(); ++l) {
        if (!placed[l]) continue;
        for (size_t c = 0; c < cluster.leaves[l].width; ++c) {
          mapping[cluster.leaves[l].offset + c] = (*layout)[l] + c;
        }
      }
      GISQL_ASSIGN_OR_RETURN(
          ExprPtr remapped,
          RemapColumns(*cluster.residuals[ri].first, mapping));
      ready.push_back(std::move(remapped));
    }
    if (!ready.empty()) {
      join->join_residual = ConjoinAll(std::move(ready));
    }
    acc = join;
  }
  return acc;
}

}  // namespace

Result<PlanNodePtr> Optimizer::ReorderJoinCluster(PlanNodePtr join_root) {
  Cluster cluster;
  FlattenJoins(join_root, 0, &cluster);
  const size_t n = cluster.leaves.size();
  if (n < 2) return join_root;
  // Recurse into leaves first (they may contain nested clusters below
  // aggregates etc.).
  for (auto& leaf : cluster.leaves) {
    GISQL_ASSIGN_OR_RETURN(leaf.node, ReorderJoins(leaf.node));
  }

  auto cost_of = [&](const std::vector<size_t>& order) -> double {
    std::vector<size_t> layout;
    auto plan = BuildLeftDeep(cluster, order, &layout);
    if (!plan.ok()) return 1e300;
    cost_->Annotate(*plan);
    // C_out: sum of intermediate join cardinalities.
    double total = 0;
    VisitPlan(*plan, [&](const PlanNodePtr& node) {
      if (node->kind == PlanKind::kJoin) total += node->est_rows;
    });
    return total;
  };

  std::vector<size_t> best_order(n);
  std::iota(best_order.begin(), best_order.end(), 0);

  switch (options_.join_ordering) {
    case JoinOrdering::kAsWritten:
      break;  // keep 0..n-1

    case JoinOrdering::kGreedy:
    case JoinOrdering::kWorst: {
      const bool minimize = options_.join_ordering == JoinOrdering::kGreedy;
      // Both heuristics extend through join edges only (cross products
      // are a last resort) — otherwise the adversarial baseline blows
      // up into cartesian products no real system would execute.
      auto connected_to = [&](const std::vector<bool>& taken, size_t leaf) {
        for (const auto& e : cluster.edges) {
          if ((e.left_leaf == leaf && taken[e.right_leaf]) ||
              (e.right_leaf == leaf && taken[e.left_leaf])) {
            return true;
          }
        }
        return false;
      };
      // Start from the smallest (resp. largest) leaf.
      for (auto& leaf : cluster.leaves) cost_->Annotate(leaf.node);
      std::vector<size_t> order;
      std::vector<bool> taken(n, false);
      size_t start = 0;
      for (size_t i = 1; i < n; ++i) {
        const bool better = cluster.leaves[i].node->est_rows <
                            cluster.leaves[start].node->est_rows;
        if (better == minimize && cluster.leaves[i].node->est_rows !=
                                      cluster.leaves[start].node->est_rows) {
          start = i;
        }
      }
      order.push_back(start);
      taken[start] = true;
      while (order.size() < n) {
        bool any_connected = false;
        for (size_t i = 0; i < n; ++i) {
          if (!taken[i] && connected_to(taken, i)) {
            any_connected = true;
            break;
          }
        }
        size_t pick = static_cast<size_t>(-1);
        double pick_cost = minimize ? 1e300 : -1.0;
        for (size_t i = 0; i < n; ++i) {
          if (taken[i]) continue;
          if (any_connected && !connected_to(taken, i)) continue;
          std::vector<size_t> candidate = order;
          candidate.push_back(i);
          // Cost of the partial left-deep prefix.
          const double c = cost_of(candidate);
          const bool better = minimize ? c < pick_cost : c > pick_cost;
          if (better) {
            pick = i;
            pick_cost = c;
          }
        }
        order.push_back(pick);
        taken[pick] = true;
      }
      best_order = order;
      break;
    }

    case JoinOrdering::kDp: {
      if (n > 10) {
        // Fall back to greedy for very wide clusters.
        PlannerOptions greedy_opts = options_;
        greedy_opts.join_ordering = JoinOrdering::kGreedy;
        Optimizer greedy(catalog_, greedy_opts, cost_);
        return greedy.ReorderJoinCluster(join_root);
      }
      // Left-deep DP over subsets: dp[mask] = best order covering mask.
      const size_t full = (1u << n) - 1;
      std::vector<double> dp_cost(full + 1, 1e300);
      std::vector<std::vector<size_t>> dp_order(full + 1);
      for (size_t i = 0; i < n; ++i) {
        dp_cost[1u << i] = 0.0;
        dp_order[1u << i] = {i};
      }
      // Prefer connected extensions; fall back to cross products only
      // when no connected extension exists for a mask.
      auto connected = [&](size_t mask, size_t leaf) {
        for (const auto& e : cluster.edges) {
          if ((e.left_leaf == leaf && (mask >> e.right_leaf) & 1) ||
              (e.right_leaf == leaf && (mask >> e.left_leaf) & 1)) {
            return true;
          }
        }
        return false;
      };
      for (size_t mask = 1; mask <= full; ++mask) {
        if (dp_cost[mask] >= 1e300 || mask == full) continue;
        bool any_connected = false;
        for (size_t j = 0; j < n; ++j) {
          if ((mask >> j) & 1) continue;
          if (connected(mask, j)) {
            any_connected = true;
            break;
          }
        }
        for (size_t j = 0; j < n; ++j) {
          if ((mask >> j) & 1) continue;
          if (any_connected && !connected(mask, j)) continue;
          std::vector<size_t> order = dp_order[mask];
          order.push_back(j);
          const double c = cost_of(order);
          const size_t next = mask | (1u << j);
          if (c < dp_cost[next]) {
            dp_cost[next] = c;
            dp_order[next] = std::move(order);
          }
        }
      }
      if (!dp_order[full].empty()) best_order = dp_order[full];
      break;
    }
  }

  std::vector<size_t> layout;
  GISQL_ASSIGN_OR_RETURN(PlanNodePtr rebuilt,
                         BuildLeftDeep(cluster, best_order, &layout));

  // Restore the original output column order with a projection.
  std::vector<ExprPtr> restore;
  std::vector<std::string> names;
  for (size_t l = 0; l < cluster.leaves.size(); ++l) {
    const JoinLeaf& leaf = cluster.leaves[l];
    for (size_t c = 0; c < leaf.width; ++c) {
      const Field& f = leaf.node->output_schema->field(c);
      restore.push_back(MakeColumn(layout[l] + c, f.type, f.QualifiedName()));
      names.push_back(f.name);
    }
  }
  PlanNodePtr projected =
      MakeProjectNode(std::move(rebuilt), std::move(restore), names);
  // Preserve the original (qualified) schema exactly.
  projected->output_schema = join_root->output_schema;
  return projected;
}

Result<PlanNodePtr> Optimizer::ReorderJoins(PlanNodePtr node) {
  if (node->kind == PlanKind::kJoin &&
      node->join_type == JoinType::kInner) {
    if (options_.join_ordering == JoinOrdering::kAsWritten) {
      for (auto& c : node->children) {
        GISQL_ASSIGN_OR_RETURN(c, ReorderJoins(std::move(c)));
      }
      return node;
    }
    return ReorderJoinCluster(node);
  }
  for (auto& c : node->children) {
    GISQL_ASSIGN_OR_RETURN(c, ReorderJoins(std::move(c)));
  }
  return node;
}

// ---------------------------------------------------------------------------
// Pass 4: projection pruning
// ---------------------------------------------------------------------------

namespace {

std::vector<size_t> UsedList(const std::vector<bool>& used) {
  std::vector<size_t> out;
  for (size_t i = 0; i < used.size(); ++i) {
    if (used[i]) out.push_back(i);
  }
  return out;
}

}  // namespace

Result<Optimizer::Pruned> Optimizer::PruneColumns(
    PlanNodePtr node, const std::vector<bool>& used_in) {
  const size_t width = node->output_schema->num_fields();
  // COUNT(*)-style parents need no columns at all, but zero-width rows
  // cannot be represented in fragments; keep the narrowest column.
  std::vector<bool> used = used_in;
  if (width > 0 &&
      std::none_of(used.begin(), used.end(), [](bool b) { return b; })) {
    size_t pick = 0;
    int64_t best = EstimatedWireSize(node->output_schema->field(0).type);
    for (size_t i = 1; i < width; ++i) {
      const int64_t w =
          EstimatedWireSize(node->output_schema->field(i).type);
      if (w < best) {
        best = w;
        pick = i;
      }
    }
    used[pick] = true;
  }
  auto identity_mapping = [&] {
    std::vector<size_t> m(width);
    std::iota(m.begin(), m.end(), 0);
    return m;
  };
  auto mapping_for = [&](const std::vector<bool>& kept) {
    std::vector<size_t> m(width, static_cast<size_t>(-1));
    size_t next = 0;
    for (size_t i = 0; i < width; ++i) {
      if (kept[i]) m[i] = next++;
    }
    return m;
  };
  const bool all_used =
      std::all_of(used.begin(), used.end(), [](bool b) { return b; });

  switch (node->kind) {
    case PlanKind::kValues:
      return Pruned{node, identity_mapping()};

    case PlanKind::kSourceScan:
    case PlanKind::kVirtualScan:
    case PlanKind::kRemoteFragment: {
      if (all_used) return Pruned{node, identity_mapping()};
      // Narrow with a projection the decomposer can absorb (executed at
      // the mediator for virtual scans, which never leave it).
      std::vector<ExprPtr> cols;
      std::vector<std::string> names;
      for (size_t i : UsedList(used)) {
        const Field& f = node->output_schema->field(i);
        cols.push_back(MakeColumn(i, f.type, f.QualifiedName()));
        names.push_back(f.name);
      }
      auto mapping = mapping_for(used);
      PlanNodePtr project =
          MakeProjectNode(node, std::move(cols), std::move(names));
      // Preserve qualifiers on the narrowed schema.
      std::vector<Field> fields;
      for (size_t i : UsedList(used)) {
        fields.push_back(node->output_schema->field(i));
      }
      project->output_schema = std::make_shared<Schema>(std::move(fields));
      return Pruned{std::move(project), std::move(mapping)};
    }

    case PlanKind::kFilter: {
      std::vector<bool> child_used = used;
      std::vector<size_t> filter_cols;
      node->filter->CollectColumns(&filter_cols);
      for (size_t c : filter_cols) child_used[c] = true;
      GISQL_ASSIGN_OR_RETURN(Pruned child,
                             PruneColumns(node->children[0], child_used));
      GISQL_ASSIGN_OR_RETURN(node->filter,
                             RemapColumns(*node->filter, child.mapping));
      node->children[0] = child.node;
      node->output_schema = child.node->output_schema;
      // Drop filter-only columns if the parent does not need them.
      std::vector<size_t> mapping(width, static_cast<size_t>(-1));
      bool needs_drop = false;
      size_t next = 0;
      for (size_t i = 0; i < width; ++i) {
        if (used[i]) {
          mapping[i] = next++;
        }
        if (!used[i] && child_used[i]) needs_drop = true;
      }
      if (!needs_drop) {
        // child kept exactly `used` columns; mapping composes directly.
        std::vector<size_t> composed(width, static_cast<size_t>(-1));
        for (size_t i = 0; i < width; ++i) {
          if (used[i]) composed[i] = child.mapping[i];
        }
        return Pruned{node, std::move(composed)};
      }
      std::vector<ExprPtr> cols;
      std::vector<std::string> names;
      std::vector<Field> fields;
      for (size_t i : UsedList(used)) {
        const Field& f = node->output_schema->field(child.mapping[i]);
        cols.push_back(MakeColumn(child.mapping[i], f.type,
                                  f.QualifiedName()));
        names.push_back(f.name);
        fields.push_back(f);
      }
      PlanNodePtr project =
          MakeProjectNode(node, std::move(cols), std::move(names));
      project->output_schema = std::make_shared<Schema>(std::move(fields));
      return Pruned{std::move(project), std::move(mapping)};
    }

    case PlanKind::kProject: {
      std::vector<bool> child_used(
          node->children[0]->output_schema->num_fields(), false);
      std::vector<ExprPtr> kept;
      std::vector<std::string> kept_names;
      std::vector<Field> kept_fields;
      std::vector<size_t> mapping(width, static_cast<size_t>(-1));
      size_t next = 0;
      for (size_t i = 0; i < width; ++i) {
        if (!used[i]) continue;
        mapping[i] = next++;
        std::vector<size_t> cols;
        node->projections[i]->CollectColumns(&cols);
        for (size_t c : cols) child_used[c] = true;
        kept.push_back(node->projections[i]);
        kept_names.push_back(i < node->projection_names.size()
                                 ? node->projection_names[i]
                                 : "");
        kept_fields.push_back(node->output_schema->field(i));
      }
      GISQL_ASSIGN_OR_RETURN(Pruned child,
                             PruneColumns(node->children[0], child_used));
      for (auto& e : kept) {
        GISQL_ASSIGN_OR_RETURN(e, RemapColumns(*e, child.mapping));
      }
      node->children[0] = child.node;
      node->projections = std::move(kept);
      node->projection_names = std::move(kept_names);
      node->output_schema =
          std::make_shared<Schema>(std::move(kept_fields));
      return Pruned{node, std::move(mapping)};
    }

    case PlanKind::kJoin: {
      const size_t lw = node->children[0]->output_schema->num_fields();
      const bool anti = node->join_type == JoinType::kAnti;
      const size_t rw = node->children[1]->output_schema->num_fields();
      std::vector<bool> lu(lw, false);
      std::vector<bool> ru(rw, false);
      for (size_t i = 0; i < width; ++i) {
        if (!used[i]) continue;
        if (i < lw) {
          lu[i] = true;
        } else if (!anti) {
          ru[i - lw] = true;
        }
      }
      for (size_t k : node->left_keys) lu[k] = true;
      for (size_t k : node->right_keys) ru[k] = true;
      if (node->join_residual) {
        std::vector<size_t> cols;
        node->join_residual->CollectColumns(&cols);
        for (size_t c : cols) {
          if (c < lw) {
            lu[c] = true;
          } else {
            ru[c - lw] = true;
          }
        }
      }
      GISQL_ASSIGN_OR_RETURN(Pruned left,
                             PruneColumns(node->children[0], lu));
      GISQL_ASSIGN_OR_RETURN(Pruned right,
                             PruneColumns(node->children[1], ru));
      const size_t new_lw = left.node->output_schema->num_fields();
      for (auto& k : node->left_keys) k = left.mapping[k];
      for (auto& k : node->right_keys) k = right.mapping[k];
      if (node->join_residual) {
        std::vector<size_t> combined(width, static_cast<size_t>(-1));
        for (size_t i = 0; i < lw; ++i) combined[i] = left.mapping[i];
        for (size_t i = lw; i < width; ++i) {
          const size_t rm = right.mapping[i - lw];
          combined[i] =
              rm == static_cast<size_t>(-1) ? rm : new_lw + rm;
        }
        GISQL_ASSIGN_OR_RETURN(
            node->join_residual,
            RemapColumns(*node->join_residual, combined));
      }
      node->children[0] = left.node;
      node->children[1] = right.node;
      if (anti) {
        node->output_schema = left.node->output_schema;
        return Pruned{node, left.mapping};
      }
      Schema concat =
          left.node->output_schema->Concat(*right.node->output_schema);
      node->output_schema = std::make_shared<Schema>(std::move(concat));

      std::vector<size_t> mapping(width, static_cast<size_t>(-1));
      for (size_t i = 0; i < width; ++i) {
        if (i < lw) {
          mapping[i] = left.mapping[i];
        } else {
          const size_t rm = right.mapping[i - lw];
          mapping[i] = rm == static_cast<size_t>(-1) ? rm : new_lw + rm;
        }
      }
      return Pruned{node, std::move(mapping)};
    }

    case PlanKind::kUnionAll: {
      if (all_used) {
        for (auto& c : node->children) {
          std::vector<bool> cu(c->output_schema->num_fields(), true);
          GISQL_ASSIGN_OR_RETURN(Pruned pc, PruneColumns(c, cu));
          c = pc.node;
        }
        return Pruned{node, identity_mapping()};
      }
      // Narrow every member identically so the union stays aligned.
      std::vector<Field> fields;
      for (size_t i : UsedList(used)) {
        fields.push_back(node->output_schema->field(i));
      }
      auto narrow_schema = std::make_shared<Schema>(std::move(fields));
      for (auto& c : node->children) {
        GISQL_ASSIGN_OR_RETURN(Pruned pc, PruneColumns(c, used));
        // pc.node outputs exactly the used columns in order for scans,
        // but a filtered member may retain extras; normalize.
        bool exact = pc.node->output_schema->num_fields() ==
                     narrow_schema->num_fields();
        if (exact) {
          size_t rank = 0;
          for (size_t i : UsedList(used)) {
            if (pc.mapping[i] != rank++) {
              exact = false;
              break;
            }
          }
        }
        if (!exact) {
          std::vector<ExprPtr> cols;
          std::vector<std::string> names;
          for (size_t i : UsedList(used)) {
            const size_t src = pc.mapping[i];
            const Field& f = pc.node->output_schema->field(src);
            cols.push_back(MakeColumn(src, f.type, f.QualifiedName()));
            names.push_back(f.name);
          }
          pc.node = MakeProjectNode(pc.node, std::move(cols),
                                    std::move(names));
        }
        c = pc.node;
      }
      node->output_schema = narrow_schema;
      return Pruned{node, mapping_for(used)};
    }

    case PlanKind::kAggregate: {
      const size_t ngroups = node->group_by.size();
      // Keep all group columns; prune unused aggregates.
      std::vector<BoundAggregate> kept_aggs;
      std::vector<size_t> mapping(width, static_cast<size_t>(-1));
      for (size_t i = 0; i < ngroups; ++i) mapping[i] = i;
      size_t next = ngroups;
      for (size_t i = ngroups; i < width; ++i) {
        if (used[i]) {
          mapping[i] = next++;
          kept_aggs.push_back(node->aggregates[i - ngroups]);
        }
      }
      std::vector<bool> child_used(
          node->children[0]->output_schema->num_fields(), false);
      for (const auto& g : node->group_by) {
        std::vector<size_t> cols;
        g->CollectColumns(&cols);
        for (size_t c : cols) child_used[c] = true;
      }
      for (const auto& a : kept_aggs) {
        if (a.arg) {
          std::vector<size_t> cols;
          a.arg->CollectColumns(&cols);
          for (size_t c : cols) child_used[c] = true;
        }
      }
      GISQL_ASSIGN_OR_RETURN(Pruned child,
                             PruneColumns(node->children[0], child_used));
      for (auto& g : node->group_by) {
        GISQL_ASSIGN_OR_RETURN(g, RemapColumns(*g, child.mapping));
      }
      for (auto& a : kept_aggs) {
        if (a.arg) {
          GISQL_ASSIGN_OR_RETURN(a.arg, RemapColumns(*a.arg, child.mapping));
        }
      }
      node->children[0] = child.node;
      node->aggregates = std::move(kept_aggs);
      std::vector<Field> fields;
      for (size_t i = 0; i < width; ++i) {
        if (mapping[i] != static_cast<size_t>(-1)) {
          fields.push_back(node->output_schema->field(i));
        }
      }
      node->output_schema = std::make_shared<Schema>(std::move(fields));
      return Pruned{node, std::move(mapping)};
    }

    case PlanKind::kSort: {
      std::vector<bool> child_used = used;
      for (size_t c : node->sort_columns) child_used[c] = true;
      GISQL_ASSIGN_OR_RETURN(Pruned child,
                             PruneColumns(node->children[0], child_used));
      for (auto& c : node->sort_columns) c = child.mapping[c];
      node->children[0] = child.node;
      node->output_schema = child.node->output_schema;
      std::vector<size_t> composed(width, static_cast<size_t>(-1));
      for (size_t i = 0; i < width; ++i) {
        if (child_used[i]) composed[i] = child.mapping[i];
      }
      return Pruned{node, std::move(composed)};
    }

    case PlanKind::kDistinct: {
      // Duplicate elimination depends on every column: no pruning below.
      std::vector<bool> all(node->children[0]->output_schema->num_fields(),
                            true);
      GISQL_ASSIGN_OR_RETURN(Pruned child,
                             PruneColumns(node->children[0], all));
      node->children[0] = child.node;
      return Pruned{node, identity_mapping()};
    }

    case PlanKind::kLimit: {
      GISQL_ASSIGN_OR_RETURN(Pruned child,
                             PruneColumns(node->children[0], used));
      node->children[0] = child.node;
      node->output_schema = child.node->output_schema;
      return Pruned{node, child.mapping};
    }
  }
  return Status::Internal("unreachable plan kind in PruneColumns");
}

Result<PlanNodePtr> Optimizer::PruneAll(PlanNodePtr root) {
  std::vector<bool> all(root->output_schema->num_fields(), true);
  GISQL_ASSIGN_OR_RETURN(Pruned pruned, PruneColumns(std::move(root), all));
  return pruned.node;
}

// ---------------------------------------------------------------------------
// Pass 5: project fusion
// ---------------------------------------------------------------------------

Result<PlanNodePtr> Optimizer::FuseProjects(PlanNodePtr node) {
  for (auto& c : node->children) {
    GISQL_ASSIGN_OR_RETURN(c, FuseProjects(std::move(c)));
  }
  if (node->kind != PlanKind::kProject ||
      node->children[0]->kind != PlanKind::kProject) {
    return node;
  }
  const PlanNodePtr& inner = node->children[0];
  std::vector<ExprPtr> fused;
  fused.reserve(node->projections.size());
  for (const auto& p : node->projections) {
    GISQL_ASSIGN_OR_RETURN(ExprPtr sub,
                           SubstituteColumns(*p, inner->projections));
    fused.push_back(std::move(sub));
  }
  node->projections = std::move(fused);
  node->children[0] = inner->children[0];
  // Output schema and names are unchanged: only the input changed.
  return FuseProjects(std::move(node));
}

// ---------------------------------------------------------------------------

Result<PlanNodePtr> Optimizer::Optimize(PlanNodePtr plan) {
  plan = FoldAllConstants(std::move(plan));
  if (options_.enable_filter_pushdown) {
    GISQL_ASSIGN_OR_RETURN(plan, PushFilters(std::move(plan), {}));
  }
  if (options_.join_ordering != JoinOrdering::kAsWritten) {
    GISQL_ASSIGN_OR_RETURN(plan, ReorderJoins(std::move(plan)));
  }
  if (options_.enable_projection_pushdown) {
    GISQL_ASSIGN_OR_RETURN(plan, PruneAll(std::move(plan)));
  }
  GISQL_ASSIGN_OR_RETURN(plan, FuseProjects(std::move(plan)));
  cost_->Annotate(plan);
  return plan;
}

}  // namespace gisql
