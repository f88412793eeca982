#include "ml/dataset.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace mcb {

RowGroups group_identical_rows(FeatureView x) {
  RowGroups out;
  out.group.resize(x.rows);
  const std::size_t row_bytes = x.cols * sizeof(float);
  std::unordered_map<std::string_view, std::size_t> seen;
  seen.reserve(x.rows);
  for (std::size_t i = 0; i < x.rows; ++i) {
    const char* bytes = reinterpret_cast<const char*>(x.data + i * x.cols);
    const auto [it, inserted] =
        seen.emplace(std::string_view(bytes, row_bytes), out.distinct.size());
    if (inserted) out.distinct.push_back(i);
    out.group[i] = it->second;
  }
  return out;
}

FeatureMatrix FeatureMatrix::gather(std::span<const std::size_t> indices) const {
  FeatureMatrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto src = row(indices[i]);
    std::copy(src.begin(), src.end(), out.row(i));
  }
  return out;
}

}  // namespace mcb
