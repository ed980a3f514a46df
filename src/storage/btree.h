/// \file btree.h
/// \brief In-memory B+tree over Value keys mapping to row ids — the
/// ordered-index structure of the component-system storage engine.
///
/// Duplicate keys are allowed (secondary-index semantics). Leaves are
/// linked for range scans. Tables maintain the tree incrementally:
/// appended rows are inserted, and heap compaction erases the entries
/// of the rows it rewrites and re-inserts them under their new ids.

#pragma once

#include <memory>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace gisql {

class BPlusTree {
 public:
  /// \param fanout maximum keys per node (≥ 4).
  explicit BPlusTree(int fanout = 64);
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// \brief Inserts one (key, row id) pair. NULL keys are rejected
  /// (callers index only non-NULL values, per SQL index semantics).
  Status Insert(const Value& key, size_t row_id);

  /// \brief Row ids whose key compares equal to `key`, in insertion
  /// order among duplicates.
  std::vector<size_t> Lookup(const Value& key) const;

  /// \brief Removes the (key, row id) entry, rebalancing underfull
  /// nodes by borrowing from or merging with a sibling. NotFound when
  /// the pair is absent.
  Status Erase(const Value& key, size_t row_id);

  /// \brief Row ids with lo ≤/< key ≤/< hi, in key order. A NULL bound
  /// means unbounded on that side.
  std::vector<size_t> Range(const Value& lo, bool lo_inclusive,
                            const Value& hi, bool hi_inclusive) const;

  /// \brief Number of stored entries.
  size_t size() const { return size_; }

  /// \brief Levels from root to leaves (0 for an empty tree).
  int height() const { return height_; }

  /// \brief Checks structural invariants: key ordering within and
  /// across nodes, separator correctness, fill factors, leaf links.
  /// Used by tests; returns Internal on any violation.
  Status Validate() const;

  void Clear();

 private:
  struct Node;
  struct LeafNode;
  struct InternalNode;

  LeafNode* FindLeaf(const Value& key) const;
  /// The leftmost leaf that can hold a key >= `lo` (NULL: the first
  /// leaf); nullptr for an empty tree.
  LeafNode* FirstLeafFor(const Value& lo) const;
  /// Splits `leaf` and returns the (separator, new node) to insert into
  /// the parent.
  void InsertIntoParent(Node* node, Value separator, Node* sibling);
  /// Restores the fill factor of `node` after an erase, recursing up
  /// through parents that a merge leaves underfull.
  void Rebalance(Node* node);
  /// Smallest key count Validate() accepts for a non-root node.
  size_t MinKeys() const { return static_cast<size_t>(fanout_ / 3); }

  Status ValidateNode(const Node* node, const Value* lo,
                      const Value* hi, int depth) const;
  void FreeTree(Node* node);

  int fanout_;
  Node* root_ = nullptr;
  size_t size_ = 0;
  int height_ = 0;
};

}  // namespace gisql
