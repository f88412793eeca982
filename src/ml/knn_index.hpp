// Exact neighbour search over the unique points of a KNN training
// matrix (DESIGN.md §11): the only p = 2 neighbour search of
// KnnClassifier and KnnRegressor, and the only copy of their training
// rows — save() expands the unique points back into the original matrix.
//
// HPC traces submit the same job text thousands of times (Fugaku jobs
// arrive in batches of identical jobs, §V-C), and the hashed encoder
// maps identical feature strings to identical byte rows. The index
// groups byte-equal rows once at build time (group_identical_rows in
// ml/dataset.hpp), computes each distance once per *unique* point, and
// expands a group to its first min(k, group size) original row ids —
// exactly the rows a sequential scan would have kept, since duplicates
// tie on distance and the shared TopK breaks ties toward the lower row
// id.
//
// Every search sweeps every unique point with the tile_dots kernel and
// the `||x||^2 - 2 q.x` key, so its neighbour set is the brute-force
// scan's by construction, NaN and infinite coordinates included. The
// equivalence suite in tests/test_knn_index.cpp asserts it against the
// reference scans in tests/reference/.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <type_traits>
#include <vector>

#include "ml/dataset.hpp"

namespace mcb {

struct KnnIndexStats {
  std::size_t rows = 0;         ///< original training rows
  std::size_t unique_rows = 0;  ///< byte-distinct rows indexed
};

class KnnIndex {
 public:
  /// Build over a row-major matrix, replacing any previous index. Empty
  /// data leaves the index unready; any other matrix is indexed.
  void build(FeatureView data);

  bool ready() const noexcept { return stats_.rows != 0; }
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

  /// Write the indexed matrix exactly as io::write_vec writes its
  /// rows() x dim() floats: the element count, then every original row
  /// in row order, expanded from its byte-identical unique point.
  void write_rows(std::ostream& out) const;

 private:
  KnnIndexStats stats_;
  std::size_t dim_ = 0;

  // Unique points in first-seen order.
  std::vector<float> points_;                 ///< unique_rows x dim
  std::vector<float> norms_;                  ///< ||x||^2 per unique point
  std::vector<std::uint32_t> group_offsets_;  ///< unique_rows + 1, into group_rows_
  std::vector<std::uint32_t> group_rows_;     ///< original row ids, ascending per group
};

// The models build an index aside and commit it with a move; that
// commit must not throw.
static_assert(std::is_nothrow_move_assignable_v<KnnIndex>);

}  // namespace mcb
