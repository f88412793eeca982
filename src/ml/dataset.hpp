// Dense row-major feature matrices for the classifiers.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mcb {

/// Non-owning view of a dense row-major float matrix.
struct FeatureView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;

  std::span<const float> row(std::size_t i) const {
    assert(i < rows);
    return {data + i * cols, cols};
  }
  bool empty() const noexcept { return rows == 0 || cols == 0; }
};

/// Rows of a matrix grouped by their bytes. HPC traces submit the same
/// job text over and over and the encoder maps identical text to
/// identical bytes, so most rows of a window or a request are repeats.
/// Identical bytes give identical results under any deterministic
/// kernel, so one computation per distinct row stands in for its group.
/// NaN payloads group by their bytes too; -0.0 and 0.0 do not group.
struct RowGroups {
  std::vector<std::size_t> distinct;  ///< first row id of each group, ascending
  std::vector<std::size_t> group;     ///< per row: index into `distinct`
};

RowGroups group_identical_rows(FeatureView x);

/// Owning dense row-major float matrix.
class FeatureMatrix {
 public:
  FeatureMatrix() = default;
  FeatureMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0F) {}
  FeatureMatrix(std::size_t rows, std::size_t cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    assert(data_.size() == rows_ * cols_);
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  float* row(std::size_t i) { return data_.data() + i * cols_; }
  std::span<const float> row(std::size_t i) const { return {data_.data() + i * cols_, cols_}; }
  std::vector<float>& storage() noexcept { return data_; }
  const std::vector<float>& storage() const noexcept { return data_; }

  FeatureView view() const noexcept { return {data_.data(), rows_, cols_}; }

  /// Gather a subset of rows into a new matrix.
  FeatureMatrix gather(std::span<const std::size_t> indices) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Class labels are small dense integers [0, n_classes).
using Label = std::int32_t;

}  // namespace mcb
