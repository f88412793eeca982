#include "ml/knn_index.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "ml/knn_kernels.hpp"
#include "ml/serialize.hpp"
#include "ml/top_k.hpp"
#include "util/annotations.hpp"

namespace mcb {

void KnnIndex::build(FeatureView data) {
  if (data.rows > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("knn_index: more rows than 32-bit row ids can address");
  }
  *this = KnnIndex();
  if (data.empty()) return;
  dim_ = data.cols;
  const RowGroups groups = group_identical_rows(data);
  const std::size_t nu = groups.distinct.size();

  points_.resize(nu * dim_);
  norms_.resize(nu);
  for (std::size_t u = 0; u < nu; ++u) {
    const float* row = data.data + groups.distinct[u] * dim_;
    std::copy_n(row, dim_, points_.data() + u * dim_);
    norms_[u] = row_norm_sq(row, dim_);
  }

  // Per-group original row ids, ascending (rows visited in order).
  group_offsets_.assign(nu + 1, 0);
  for (const std::size_t g : groups.group) ++group_offsets_[g + 1];
  for (std::size_t u = 0; u < nu; ++u) group_offsets_[u + 1] += group_offsets_[u];
  group_rows_.resize(data.rows);
  std::vector<std::uint32_t> cursor(group_offsets_.begin(), group_offsets_.end() - 1);
  for (std::size_t i = 0; i < data.rows; ++i) {
    group_rows_[cursor[groups.group[i]]++] = static_cast<std::uint32_t>(i);
  }

  stats_.rows = data.rows;
  stats_.unique_rows = nu;
}

void KnnIndex::write_rows(std::ostream& out) const {
  std::vector<std::uint32_t> point_of(stats_.rows);
  for (std::uint32_t u = 0; u < stats_.unique_rows; ++u) {
    for (std::uint32_t j = group_offsets_[u]; j < group_offsets_[u + 1]; ++j) {
      point_of[group_rows_[j]] = u;
    }
  }
  io::write_pod(out, static_cast<std::uint64_t>(stats_.rows * dim_));
  const auto row_bytes = static_cast<std::streamsize>(dim_ * sizeof(float));
  for (const std::uint32_t u : point_of) {
    out.write(reinterpret_cast<const char*>(points_.data() + u * dim_), row_bytes);
  }
}

MCB_HOT_PATH bool KnnIndex::search(std::span<const float> query, std::size_t k,
                                   std::vector<std::size_t>& idx,
                                   std::vector<double>& dist) const {
  if (!ready() || query.size() != dim_ || k == 0) {
    // Never leave a previous query's row ids behind for the caller.
    idx.clear();
    dist.clear();
    return false;
  }

  const std::size_t k_eff = std::min(k, stats_.rows);
  TopK top(idx, dist, k_eff);
  float dots[kScanTile];
  for (std::size_t base = 0; base < stats_.unique_rows; base += kScanTile) {
    const std::size_t count = std::min(kScanTile, stats_.unique_rows - base);
    tile_dots(points_.data() + base * dim_, count, dim_, query.data(), dots);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t u = base + i;
      // Monotone in the true distance; the query norm is constant
      // across rows.
      const double d = static_cast<double>(norms_[u]) - 2.0 * static_cast<double>(dots[i]);
      const std::uint32_t off = group_offsets_[u];
      const std::uint32_t take =
          std::min<std::uint32_t>(static_cast<std::uint32_t>(k_eff), group_offsets_[u + 1] - off);
      // Duplicates tie on distance, so only the group's first k
      // (lowest) row ids can survive the shared tie-break.
      for (std::uint32_t j = 0; j < take; ++j) {
        top.consider(group_rows_[off + j], d);
      }
    }
  }
  return true;
}

}  // namespace mcb
