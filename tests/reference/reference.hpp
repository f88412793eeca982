// Reference oracles for the production inference paths in src/ml.
//
// Each function recomputes a model's answer the slow, obvious way, as a
// free function over the training matrix and its labels (or over a
// fitted forest), so tests can assert bit-identical results and the
// benches can measure the production path against it:
//
//  - knn_*_scalar: one training row at a time with a serial-reduction
//    dot, the baseline of bench_fig8's knn_batch_speedup;
//  - knn_*_tiled: the brute-force scan in row tiles through the
//    four-accumulator tile_dots kernel, the baseline of
//    knn_index_speedup and the exactness oracle of the spatial index;
//  - rf_*_scalar: bin each row with the forest's binner and recurse
//    every tree, the baseline of rf_batch_speedup.
//
// All KNN oracles rank by the p = 2 key ||x||^2 - 2 q.x through the
// shared TopK (ties toward the lower row id; kTopKNoRow pads slots no
// admissible candidate filled), vote like KnnClassifier and average like
// KnnRegressor. Linked by tests, fuzzers and benches only, never by src/.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"

namespace mcb::reference {

/// k nearest rows of `train` to `query`, scalar scan.
std::vector<std::size_t> knn_kneighbors_scalar(FeatureView train, std::span<const float> query,
                                               std::size_t k);

/// k nearest rows of `train` to `query`, tiled scan.
std::vector<std::size_t> knn_kneighbors_tiled(FeatureView train, std::span<const float> query,
                                              std::size_t k);

/// Majority-vote labels for every query row, scalar scan.
std::vector<Label> knn_predict_scalar(FeatureView train, std::span<const Label> labels,
                                      FeatureView queries, std::size_t k = 5);

/// Majority-vote labels for every query row, tiled scan.
std::vector<Label> knn_predict_tiled(FeatureView train, std::span<const Label> labels,
                                     FeatureView queries, std::size_t k = 5);

/// KnnRegressor's prediction (uniform or 1/d-weighted mean of the
/// neighbours' targets) for every query row, tiled scan.
std::vector<double> knn_regress_tiled(FeatureView train, std::span<const double> targets,
                                      FeatureView queries, std::size_t k,
                                      bool distance_weighted);

/// Averaged class probabilities, row-major [rows x n_classes], by
/// binning each row and recursing every tree of `rf`.
std::vector<double> rf_predict_proba_scalar(const RandomForestClassifier& rf, FeatureView x);

/// Argmax of rf_predict_proba_scalar (ties toward the lower class id).
std::vector<Label> rf_predict_scalar(const RandomForestClassifier& rf, FeatureView x);

}  // namespace mcb::reference
