// Exact spatial index over a KNN training matrix (DESIGN.md §11): the
// only p = 2 neighbour search of KnnClassifier and KnnRegressor.
//
// Two exactness-preserving accelerations layered on top of each other:
//
//  1. Exact-duplicate grouping. HPC traces submit the same job text
//     thousands of times (Fugaku jobs arrive in batches of identical
//     jobs, §V-C), and the hashed encoder maps identical feature
//     strings to identical byte rows. The index groups byte-equal rows
//     once at build time, computes each distance once per *unique*
//     point, and expands a group to its first min(k, group size)
//     original row ids — exactly the rows a sequential scan would have
//     kept, since duplicates tie on distance and the shared TopK breaks
//     ties toward the lower row id.
//
//  2. A bounding-box tree (k-d style, modeled on mlpack/THOR's
//     DHrectBound traversal) over the unique points: every node stores
//     a per-dimension hyperrectangle; traversal descends the nearer
//     child first and skips any subtree whose minimum possible distance
//     already exceeds the current k-th best.
//
// Exactness contract: leaf sweeps compute distances with the tile_dots
// kernel and the `||x||^2 - 2 q.x` key, candidates go through the shared
// TopK (ties toward the lower original row id), and pruning compares the
// geometric lower bound against the k-th best with a conservative
// slack, so the tree returns the neighbour set of a brute-force scan
// over the same kernel — the equivalence suite in
// tests/test_knn_index.cpp asserts it against the reference scans in
// tests/reference/ on duplicates, ties, narrow dims and tile-boundary
// shapes.
//
// Inputs outside the pruning algebra (NaN poisons box distances) take
// degenerate cases of the same search rather than another path: a set
// with at most leaf_size unique rows is a single leaf, non-finite
// training data builds one root leaf that every query sweeps whole, and
// a non-finite query sweeps every unique point. Each of those is the
// brute-force scan with the same kernel and tie-break.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace mcb {

struct KnnIndexStats {
  std::size_t rows = 0;         ///< original training rows
  std::size_t unique_rows = 0;  ///< byte-distinct rows indexed
  std::size_t nodes = 0;        ///< tree nodes
  std::size_t leaves = 0;       ///< tree leaves
};

class KnnIndex {
 public:
  /// Max unique points per tree leaf. build() takes it as an argument
  /// only so tests can force deep trees on small inputs.
  static constexpr std::size_t kLeafSize = 64;

  /// Build over a row-major matrix, replacing any previous index. Empty
  /// data leaves the index unready; any other matrix is indexed.
  void build(FeatureView data, std::size_t leaf_size = kLeafSize);

  bool ready() const noexcept { return !nodes_.empty(); }
  std::size_t dim() const noexcept { return dim_; }
  std::size_t rows() const noexcept { return stats_.rows; }
  const KnnIndexStats& stats() const noexcept { return stats_; }

  /// Top-k by the scan's distance key `||x||^2 - 2 q.x` (query norm
  /// omitted — constant across rows, so the ranking is unchanged).
  /// Fills min(k, rows()) slots, nearest first; slots no admissible
  /// candidate filled (e.g. a NaN query) hold kTopKNoRow. Returns false,
  /// with `idx` and `dist` emptied, only when the index is unready, the
  /// query width is not dim(), or k == 0.
  bool search(std::span<const float> query, std::size_t k, std::vector<std::size_t>& idx,
              std::vector<double>& dist) const;

  void clear();

 private:
  struct Node {
    std::int32_t left = -1;    ///< child node index; -1 = leaf
    std::int32_t right = -1;
    std::uint32_t begin = 0;   ///< unique-point range [begin, end)
    std::uint32_t end = 0;
  };

  double node_min_dist_sq(std::size_t node, const float* q) const;
  void scan_segment(std::uint32_t begin, std::uint32_t end, const float* q,
                    std::size_t k, class TopK& top) const;

  KnnIndexStats stats_;
  std::size_t dim_ = 0;

  // Unique points reordered into contiguous leaf segments.
  std::vector<float> points_;              ///< unique_rows x dim
  std::vector<float> norms_;               ///< ||x||^2 per unique point
  std::vector<std::uint32_t> group_offsets_;  ///< unique_rows + 1, into group_rows_
  std::vector<std::uint32_t> group_rows_;  ///< original row ids, ascending per group

  // Children always follow their parent (preorder build).
  std::vector<Node> nodes_;
  std::vector<float> bounds_lo_;           ///< nodes x dim
  std::vector<float> bounds_hi_;           ///< nodes x dim
};

}  // namespace mcb
