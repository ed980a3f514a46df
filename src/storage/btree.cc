#include "storage/btree.h"

#include <algorithm>

namespace gisql {

namespace {
bool ValueLess(const Value& a, const Value& b) { return a.Compare(b) < 0; }
}  // namespace

struct BPlusTree::Node {
  bool is_leaf;
  InternalNode* parent = nullptr;
  std::vector<Value> keys;  ///< entry keys in a leaf, separators above
  explicit Node(bool leaf) : is_leaf(leaf) {}
  virtual ~Node() = default;
};

struct BPlusTree::LeafNode : Node {
  std::vector<size_t> rids;
  LeafNode* next = nullptr;
  LeafNode() : Node(true) {}
};

struct BPlusTree::InternalNode : Node {
  std::vector<Node*> children;    ///< keys.size() + 1 entries
  InternalNode() : Node(false) {}
};

BPlusTree::BPlusTree(int fanout) : fanout_(fanout < 4 ? 4 : fanout) {}

BPlusTree::~BPlusTree() { Clear(); }

void BPlusTree::FreeTree(Node* node) {
  if (node == nullptr) return;
  if (!node->is_leaf) {
    auto* internal = static_cast<InternalNode*>(node);
    for (Node* c : internal->children) FreeTree(c);
  }
  delete node;
}

void BPlusTree::Clear() {
  FreeTree(root_);
  root_ = nullptr;
  size_ = 0;
  height_ = 0;
}

BPlusTree::LeafNode* BPlusTree::FirstLeafFor(const Value& lo) const {
  // With duplicate runs possibly spanning a separator, lower_bound
  // routing lands left of any equal separator, guaranteeing no equal
  // key to the left is missed.
  Node* node = root_;
  while (node != nullptr && !node->is_leaf) {
    auto* internal = static_cast<InternalNode*>(node);
    size_t idx = 0;
    if (!lo.is_null()) {
      idx = std::lower_bound(internal->keys.begin(), internal->keys.end(),
                             lo, ValueLess) -
            internal->keys.begin();
    }
    node = internal->children[idx];
  }
  return static_cast<LeafNode*>(node);
}

BPlusTree::LeafNode* BPlusTree::FindLeaf(const Value& key) const {
  Node* node = root_;
  while (node != nullptr && !node->is_leaf) {
    auto* internal = static_cast<InternalNode*>(node);
    // Keys equal to a separator route right (insertion goes after any
    // existing duplicates).
    const size_t idx =
        std::upper_bound(internal->keys.begin(), internal->keys.end(), key,
                         ValueLess) -
        internal->keys.begin();
    node = internal->children[idx];
  }
  return static_cast<LeafNode*>(node);
}

void BPlusTree::InsertIntoParent(Node* node, Value separator,
                                 Node* sibling) {
  InternalNode* parent = node->parent;
  if (parent == nullptr) {
    auto* new_root = new InternalNode();
    new_root->keys.push_back(std::move(separator));
    new_root->children = {node, sibling};
    node->parent = new_root;
    sibling->parent = new_root;
    root_ = new_root;
    ++height_;
    return;
  }
  // The sibling goes right after `node`. Locate it by pointer: with
  // duplicates, `separator` may equal the separator to its right.
  const size_t pos =
      std::find(parent->children.begin(), parent->children.end(), node) -
      parent->children.begin();
  parent->keys.insert(parent->keys.begin() + pos, std::move(separator));
  parent->children.insert(parent->children.begin() + pos + 1, sibling);
  sibling->parent = parent;

  if (static_cast<int>(parent->keys.size()) <= fanout_) return;

  // Split the internal node: the middle separator moves up.
  auto* right = new InternalNode();
  const size_t mid = parent->keys.size() / 2;
  Value up = parent->keys[mid];
  right->keys.assign(parent->keys.begin() + mid + 1, parent->keys.end());
  right->children.assign(parent->children.begin() + mid + 1,
                         parent->children.end());
  parent->keys.resize(mid);
  parent->children.resize(mid + 1);
  for (Node* c : right->children) c->parent = right;
  InsertIntoParent(parent, std::move(up), right);
}

Status BPlusTree::Insert(const Value& key, size_t row_id) {
  if (key.is_null()) {
    return Status::InvalidArgument("NULL keys are not indexable");
  }
  if (root_ == nullptr) {
    auto* leaf = new LeafNode();
    leaf->keys.push_back(key);
    leaf->rids.push_back(row_id);
    root_ = leaf;
    size_ = 1;
    height_ = 1;
    return Status::OK();
  }
  LeafNode* leaf = FindLeaf(key);
  const size_t pos =
      std::upper_bound(leaf->keys.begin(), leaf->keys.end(), key,
                       ValueLess) -
      leaf->keys.begin();
  leaf->keys.insert(leaf->keys.begin() + pos, key);
  leaf->rids.insert(leaf->rids.begin() + pos, row_id);
  ++size_;

  if (static_cast<int>(leaf->keys.size()) <= fanout_) return Status::OK();

  // Split the leaf; the right sibling's first key becomes the separator.
  auto* right = new LeafNode();
  const size_t mid = leaf->keys.size() / 2;
  right->keys.assign(leaf->keys.begin() + mid, leaf->keys.end());
  right->rids.assign(leaf->rids.begin() + mid, leaf->rids.end());
  leaf->keys.resize(mid);
  leaf->rids.resize(mid);
  right->next = leaf->next;
  leaf->next = right;
  InsertIntoParent(leaf, right->keys.front(), right);
  return Status::OK();
}

std::vector<size_t> BPlusTree::Lookup(const Value& key) const {
  return Range(key, true, key, true);
}

Status BPlusTree::Erase(const Value& key, size_t row_id) {
  // Walk `key`'s duplicate run along the leaf chain from the leftmost
  // leaf that can hold it.
  LeafNode* leaf = key.is_null() ? nullptr : FirstLeafFor(key);
  size_t i = leaf == nullptr ? 0
                             : std::lower_bound(leaf->keys.begin(),
                                                leaf->keys.end(), key,
                                                ValueLess) -
                                   leaf->keys.begin();
  for (; leaf != nullptr; leaf = leaf->next, i = 0) {
    for (; i < leaf->keys.size() && leaf->keys[i].Compare(key) == 0; ++i) {
      if (leaf->rids[i] != row_id) continue;
      leaf->keys.erase(leaf->keys.begin() + i);
      leaf->rids.erase(leaf->rids.begin() + i);
      --size_;
      Rebalance(leaf);
      return Status::OK();
    }
    if (i < leaf->keys.size()) break;  // past the run
  }
  return Status::NotFound("no index entry (", key.ToString(), ", ", row_id,
                          ")");
}

void BPlusTree::Rebalance(Node* node) {
  if (node == root_) {
    if (!node->keys.empty()) return;
    if (node->is_leaf) {
      root_ = nullptr;
      height_ = 0;
    } else {
      // A root left with a single child hands the root to it.
      auto* internal = static_cast<InternalNode*>(node);
      root_ = internal->children.front();
      root_->parent = nullptr;
      internal->children.clear();
      --height_;
    }
    delete node;
    return;
  }
  if (node->keys.size() >= MinKeys()) return;

  InternalNode* parent = node->parent;
  const size_t idx =
      std::find(parent->children.begin(), parent->children.end(), node) -
      parent->children.begin();
  Node* left = idx > 0 ? parent->children[idx - 1] : nullptr;
  Node* right =
      idx + 1 < parent->children.size() ? parent->children[idx + 1] : nullptr;

  // Borrow one entry through the parent separator from a sibling that
  // can spare it; the separator becomes the new boundary key.
  if (left != nullptr && left->keys.size() > MinKeys()) {
    if (node->is_leaf) {
      auto* l = static_cast<LeafNode*>(left);
      auto* n = static_cast<LeafNode*>(node);
      n->keys.insert(n->keys.begin(), std::move(l->keys.back()));
      n->rids.insert(n->rids.begin(), l->rids.back());
      l->keys.pop_back();
      l->rids.pop_back();
      parent->keys[idx - 1] = n->keys.front();
    } else {
      auto* l = static_cast<InternalNode*>(left);
      auto* n = static_cast<InternalNode*>(node);
      n->keys.insert(n->keys.begin(), std::move(parent->keys[idx - 1]));
      n->children.insert(n->children.begin(), l->children.back());
      n->children.front()->parent = n;
      parent->keys[idx - 1] = std::move(l->keys.back());
      l->keys.pop_back();
      l->children.pop_back();
    }
    return;
  }
  if (right != nullptr && right->keys.size() > MinKeys()) {
    if (node->is_leaf) {
      auto* r = static_cast<LeafNode*>(right);
      auto* n = static_cast<LeafNode*>(node);
      n->keys.push_back(std::move(r->keys.front()));
      n->rids.push_back(r->rids.front());
      r->keys.erase(r->keys.begin());
      r->rids.erase(r->rids.begin());
      parent->keys[idx] = r->keys.front();
    } else {
      auto* r = static_cast<InternalNode*>(right);
      auto* n = static_cast<InternalNode*>(node);
      n->keys.push_back(std::move(parent->keys[idx]));
      n->children.push_back(r->children.front());
      n->children.back()->parent = n;
      parent->keys[idx] = std::move(r->keys.front());
      r->keys.erase(r->keys.begin());
      r->children.erase(r->children.begin());
    }
    return;
  }

  // Neither sibling can spare an entry: fold the right node of the
  // pair into the left one (the result fits: at most 2 * MinKeys()
  // keys), drop their separator, and fix the parent in turn.
  const size_t li = left != nullptr ? idx - 1 : idx;
  Node* l = parent->children[li];
  Node* r = parent->children[li + 1];
  if (l->is_leaf) {
    auto* ll = static_cast<LeafNode*>(l);
    auto* rl = static_cast<LeafNode*>(r);
    ll->keys.insert(ll->keys.end(), std::make_move_iterator(rl->keys.begin()),
                    std::make_move_iterator(rl->keys.end()));
    ll->rids.insert(ll->rids.end(), rl->rids.begin(), rl->rids.end());
    ll->next = rl->next;
  } else {
    auto* li_node = static_cast<InternalNode*>(l);
    auto* ri_node = static_cast<InternalNode*>(r);
    li_node->keys.push_back(std::move(parent->keys[li]));
    li_node->keys.insert(li_node->keys.end(),
                         std::make_move_iterator(ri_node->keys.begin()),
                         std::make_move_iterator(ri_node->keys.end()));
    for (Node* c : ri_node->children) c->parent = li_node;
    li_node->children.insert(li_node->children.end(),
                             ri_node->children.begin(),
                             ri_node->children.end());
    ri_node->children.clear();
  }
  parent->keys.erase(parent->keys.begin() + li);
  parent->children.erase(parent->children.begin() + li + 1);
  delete r;
  Rebalance(parent);
}

std::vector<size_t> BPlusTree::Range(const Value& lo, bool lo_inclusive,
                                     const Value& hi,
                                     bool hi_inclusive) const {
  std::vector<size_t> out;
  if (root_ == nullptr) return out;

  for (LeafNode* leaf = FirstLeafFor(lo); leaf != nullptr;
       leaf = leaf->next) {
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      const Value& k = leaf->keys[i];
      if (!lo.is_null()) {
        const int c = k.Compare(lo);
        if (c < 0 || (c == 0 && !lo_inclusive)) continue;
      }
      if (!hi.is_null()) {
        const int c = k.Compare(hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) return out;
      }
      out.push_back(leaf->rids[i]);
    }
  }
  return out;
}

Status BPlusTree::ValidateNode(const Node* node, const Value* lo,
                               const Value* hi, int depth) const {
  const auto in_bounds = [&](const Value& k) {
    if (lo != nullptr && k.Compare(*lo) < 0) return false;
    if (hi != nullptr && k.Compare(*hi) > 0) return false;
    return true;
  };
  if (node->is_leaf) {
    if (depth != height_) {
      return Status::Internal("leaf at depth ", depth, ", expected ",
                              height_);
    }
    const auto* leaf = static_cast<const LeafNode*>(node);
    if (leaf->keys.size() != leaf->rids.size()) {
      return Status::Internal("leaf key/rid arity mismatch");
    }
    for (size_t i = 0; i < leaf->keys.size(); ++i) {
      if (!in_bounds(leaf->keys[i])) {
        return Status::Internal("leaf key out of separator bounds");
      }
      if (i > 0 && leaf->keys[i].Compare(leaf->keys[i - 1]) < 0) {
        return Status::Internal("leaf keys out of order");
      }
    }
    if (node != root_ &&
        static_cast<int>(leaf->keys.size()) < fanout_ / 3) {
      return Status::Internal("underfull leaf: ", leaf->keys.size(),
                              " keys with fanout ", fanout_);
    }
    return Status::OK();
  }
  const auto* internal = static_cast<const InternalNode*>(node);
  if (internal->children.size() != internal->keys.size() + 1) {
    return Status::Internal("internal child count mismatch");
  }
  if (node != root_ &&
      static_cast<int>(internal->keys.size()) < fanout_ / 3) {
    return Status::Internal("underfull internal node");
  }
  for (size_t i = 0; i < internal->keys.size(); ++i) {
    if (!in_bounds(internal->keys[i])) {
      return Status::Internal("separator out of bounds");
    }
    if (i > 0 && internal->keys[i].Compare(internal->keys[i - 1]) < 0) {
      return Status::Internal("separators out of order");
    }
  }
  for (size_t i = 0; i < internal->children.size(); ++i) {
    if (internal->children[i]->parent != internal) {
      return Status::Internal("broken parent pointer");
    }
    const Value* child_lo = i == 0 ? lo : &internal->keys[i - 1];
    const Value* child_hi =
        i == internal->keys.size() ? hi : &internal->keys[i];
    GISQL_RETURN_NOT_OK(
        ValidateNode(internal->children[i], child_lo, child_hi, depth + 1));
  }
  return Status::OK();
}

Status BPlusTree::Validate() const {
  if (root_ == nullptr) {
    if (size_ != 0 || height_ != 0) {
      return Status::Internal("empty tree with nonzero bookkeeping");
    }
    return Status::OK();
  }
  GISQL_RETURN_NOT_OK(ValidateNode(root_, nullptr, nullptr, 1));
  // Leaf chain: globally sorted, and covers exactly `size_` entries.
  const Node* node = root_;
  while (!node->is_leaf) {
    node = static_cast<const InternalNode*>(node)->children[0];
  }
  size_t count = 0;
  const Value* prev = nullptr;
  for (const auto* leaf = static_cast<const LeafNode*>(node);
       leaf != nullptr; leaf = leaf->next) {
    for (const auto& k : leaf->keys) {
      if (prev != nullptr && k.Compare(*prev) < 0) {
        return Status::Internal("leaf chain out of order");
      }
      prev = &k;
      ++count;
    }
  }
  if (count != size_) {
    return Status::Internal("leaf chain holds ", count, " entries, size_=",
                            size_);
  }
  return Status::OK();
}

}  // namespace gisql
