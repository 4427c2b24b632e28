#ifndef RESTORE_RESTORE_KD_TREE_H_
#define RESTORE_RESTORE_KD_TREE_H_

#include <cstddef>
#include <vector>

namespace restore {

/// A k-d tree over fixed-dimensional float points supporting exact and
/// approximate (leaf-budget bounded) nearest-neighbor queries. Used by the
/// Euclidean replacement step of the incompleteness join (Section 4.2),
/// where exact pairwise distances would be too expensive.
class KdTree {
 public:
  /// Builds a tree over `points` (row-major, `num_points` x `dim`).
  /// The data is copied. `leaf_size` bounds points per leaf.
  KdTree(std::vector<float> points, size_t num_points, size_t dim,
         size_t leaf_size = 16);

  size_t num_points() const { return num_points_; }
  size_t dim() const { return dim_; }

  /// Exact nearest neighbor of `query` (`dim` floats). Returns the point
  /// index; `num_points` must be > 0.
  size_t NearestNeighbor(const float* query) const;

  /// Approximate nearest neighbor: stops after visiting `max_leaves` leaves
  /// (defeatist-with-backtracking search). max_leaves >= total leaves gives
  /// the exact answer.
  size_t ApproxNearestNeighbor(const float* query, size_t max_leaves) const;

  /// Bytes held by the points, the permutation and the nodes.
  size_t MemoryBytes() const {
    return points_.capacity() * sizeof(float) +
           order_.capacity() * sizeof(size_t) +
           nodes_.capacity() * sizeof(Node);
  }

 private:
  struct Node {
    int left = -1;
    int right = -1;
    size_t split_dim = 0;
    float split_value = 0.0f;
    size_t begin = 0;  // leaf: range into order_
    size_t end = 0;
  };

  int BuildRecursive(size_t begin, size_t end, size_t depth);
  void Search(int node, const float* query, size_t* best, float* best_dist,
              size_t* leaves_left) const;
  float Distance2(size_t point, const float* query) const;

  std::vector<float> points_;
  size_t num_points_;
  size_t dim_;
  size_t leaf_size_;
  std::vector<size_t> order_;  // point indices, partitioned by the tree
  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace restore

#endif  // RESTORE_RESTORE_KD_TREE_H_
