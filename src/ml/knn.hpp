// k-Nearest-Neighbors classifier (paper §III-D "KNN").
//
// Mirrors scikit-learn's KNeighborsClassifier defaults: k = 5, Minkowski
// distance with p = 2 (the only metric served), majority vote with ties
// broken toward the lower class id. Training only indexes the data
// ("just building a model instance", §V-C); all the work happens at
// inference.
//
// fit()/load() build the exact index of ml/knn_index.hpp straight from
// the training matrix, and the index is the model's only copy of it: it
// groups duplicate training rows, sweeps every unique point with the
// tiled four-accumulator dot kernel of ml/knn_kernels.hpp (so its
// neighbour set is the brute-force scan's, DESIGN.md §11), and expands
// the unique points back into the original rows when the model is
// saved. predict() groups the query rows the same way and searches each
// distinct row once: identical bytes give identical neighbours, so the
// label is copied to the row's duplicates. Distinct queries are
// embarrassingly parallel across the thread pool. The scalar and tiled
// reference scans the index is checked and benchmarked against live in
// tests/reference/.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/knn_index.hpp"

namespace mcb {

struct KnnConfig {
  std::size_t k = 5;
};

class KnnClassifier final : public Classifier {
 public:
  explicit KnnClassifier(KnnConfig config = {});

  void fit(FeatureView x, std::span<const Label> y) override;

  /// Batched prediction, one index search per distinct query row.
  std::vector<Label> predict(FeatureView x, ThreadPool* pool = nullptr) const override;

  bool is_fitted() const noexcept override { return !labels_.empty(); }
  std::string name() const override { return "knn"; }
  std::size_t n_classes() const noexcept override { return n_classes_; }
  std::size_t train_size() const noexcept { return labels_.size(); }
  std::size_t dim() const noexcept { return index_.dim(); }
  const KnnConfig& config() const noexcept { return config_; }

  /// The unique-point index (ready() once fitted).
  const KnnIndex& index() const noexcept { return index_; }

  /// Indices of the k nearest training rows to `query` (ascending
  /// distance; kTopKNoRow pads slots no admissible candidate filled,
  /// e.g. NaN queries). Throws std::invalid_argument unless the query
  /// has dim() features. Exposed for tests and for the future-work
  /// "similar jobs" use cases the paper sketches (§VI).
  std::vector<std::size_t> kneighbors(std::span<const float> query) const;

  bool save(std::ostream& out) const override;
  bool load(std::istream& in) override;

 private:
  Label predict_one(std::span<const float> query) const;
  Label vote(std::span<const std::size_t> idx) const;
  void top_k(std::span<const float> query, std::vector<std::size_t>& idx,
             std::vector<double>& dist) const;

  KnnConfig config_;
  std::size_t n_classes_ = 0;
  std::vector<Label> labels_;
  KnnIndex index_;
};

}  // namespace mcb
