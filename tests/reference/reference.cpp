#include "reference/reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/knn_kernels.hpp"
#include "ml/top_k.hpp"

namespace mcb::reference {

namespace {

std::vector<float> row_norms(FeatureView train) {
  std::vector<float> norms(train.rows);
  for (std::size_t i = 0; i < train.rows; ++i) {
    norms[i] = row_norm_sq(train.data + i * train.cols, train.cols);
  }
  return norms;
}

using Scan = void (*)(FeatureView train, const std::vector<float>& norms, const float* q,
                      TopK& top);

void scan_scalar(FeatureView train, const std::vector<float>& norms, const float* q,
                 TopK& top) {
  for (std::size_t i = 0; i < train.rows; ++i) {
    const float* row = train.data + i * train.cols;
    float dot = 0.0F;
    for (std::size_t j = 0; j < train.cols; ++j) dot += row[j] * q[j];
    top.consider(i, static_cast<double>(norms[i]) - 2.0 * static_cast<double>(dot));
  }
}

void scan_tiled(FeatureView train, const std::vector<float>& norms, const float* q,
                TopK& top) {
  float dots[kScanTile];
  for (std::size_t base = 0; base < train.rows; base += kScanTile) {
    const std::size_t rows = std::min(kScanTile, train.rows - base);
    tile_dots(train.data + base * train.cols, rows, train.cols, q, dots);
    for (std::size_t i = 0; i < rows; ++i) {
      top.consider(base + i,
                   static_cast<double>(norms[base + i]) - 2.0 * static_cast<double>(dots[i]));
    }
  }
}

void check_width(FeatureView train, std::size_t query_cols) {
  if (query_cols != train.cols) throw std::invalid_argument("reference: query width mismatch");
}

std::vector<std::size_t> kneighbors(Scan scan, FeatureView train, std::span<const float> query,
                                    std::size_t k) {
  check_width(train, query.size());
  std::vector<std::size_t> idx;
  std::vector<double> dist;
  TopK top(idx, dist, std::min(k, train.rows));
  scan(train, row_norms(train), query.data(), top);
  return idx;
}

std::vector<Label> predict(Scan scan, FeatureView train, std::span<const Label> labels,
                           FeatureView queries, std::size_t k) {
  check_width(train, queries.cols);
  const std::vector<float> norms = row_norms(train);
  std::size_t n_classes = 0;
  for (const Label l : labels) n_classes = std::max(n_classes, static_cast<std::size_t>(l) + 1);
  std::vector<std::size_t> idx;
  std::vector<double> dist;
  std::vector<Label> out(queries.rows, 0);
  for (std::size_t r = 0; r < queries.rows; ++r) {
    TopK top(idx, dist, std::min(k, train.rows));
    scan(train, norms, queries.row(r).data(), top);
    // Majority vote, ties toward the lowest class id; unfilled slots
    // carry no vote.
    std::vector<std::uint32_t> votes(n_classes, 0);
    for (const std::size_t i : idx) {
      if (i != kTopKNoRow) ++votes[static_cast<std::size_t>(labels[i])];
    }
    Label best = 0;
    for (std::size_t c = 1; c < votes.size(); ++c) {
      if (votes[c] > votes[static_cast<std::size_t>(best)]) best = static_cast<Label>(c);
    }
    out[r] = best;
  }
  return out;
}

}  // namespace

std::vector<std::size_t> knn_kneighbors_scalar(FeatureView train, std::span<const float> query,
                                               std::size_t k) {
  return kneighbors(scan_scalar, train, query, k);
}

std::vector<std::size_t> knn_kneighbors_tiled(FeatureView train, std::span<const float> query,
                                              std::size_t k) {
  return kneighbors(scan_tiled, train, query, k);
}

std::vector<Label> knn_predict_scalar(FeatureView train, std::span<const Label> labels,
                                      FeatureView queries, std::size_t k) {
  return predict(scan_scalar, train, labels, queries, k);
}

std::vector<Label> knn_predict_tiled(FeatureView train, std::span<const Label> labels,
                                     FeatureView queries, std::size_t k) {
  return predict(scan_tiled, train, labels, queries, k);
}

std::vector<double> knn_regress_tiled(FeatureView train, std::span<const double> targets,
                                      FeatureView queries, std::size_t k,
                                      bool distance_weighted) {
  check_width(train, queries.cols);
  const std::vector<float> norms = row_norms(train);
  std::vector<std::size_t> idx;
  std::vector<double> dist;
  std::vector<double> out(queries.rows, 0.0);
  for (std::size_t r = 0; r < queries.rows; ++r) {
    const auto query = queries.row(r);
    TopK top(idx, dist, std::min(k, train.rows));
    scan_tiled(train, norms, query.data(), top);
    double sum = 0.0, weight_sum = 0.0;
    if (!distance_weighted) {
      std::size_t count = 0;
      for (const std::size_t i : idx) {
        if (i == kTopKNoRow) continue;
        sum += targets[i];
        ++count;
      }
      out[r] = count > 0 ? sum / static_cast<double>(count) : 0.0;
      continue;
    }
    // The key omits the query norm; the 1/d weights need it back.
    double query_norm = 0.0;
    for (const float q : query) query_norm += static_cast<double>(q) * q;
    for (std::size_t j = 0; j < idx.size(); ++j) {
      if (idx[j] == kTopKNoRow) continue;
      const double w = 1.0 / (std::sqrt(std::max(dist[j] + query_norm, 0.0)) + 1e-9);
      sum += w * targets[idx[j]];
      weight_sum += w;
    }
    out[r] = weight_sum > 0.0 ? sum / weight_sum : 0.0;
  }
  return out;
}

std::vector<double> rf_predict_proba_scalar(const RandomForestClassifier& rf, FeatureView x) {
  if (!rf.is_fitted()) throw std::logic_error("reference: forest not fitted");
  const FeatureBinner& binner = rf.binner();
  if (x.cols != binner.n_features()) {
    throw std::invalid_argument("reference: feature dimension mismatch");
  }
  // Row-major codes: prediction walks one sample across features.
  std::vector<std::uint8_t> codes(x.rows * x.cols);
  for (std::size_t r = 0; r < x.rows; ++r) {
    const auto sample = x.row(r);
    for (std::size_t f = 0; f < x.cols; ++f) {
      codes[r * x.cols + f] = binner.bin_value(f, sample[f]);
    }
  }
  const std::size_t n_classes = rf.n_classes();
  const double inv = 1.0 / static_cast<double>(rf.tree_count());
  std::vector<double> probs(x.rows * n_classes, 0.0);
  for (std::size_t r = 0; r < x.rows; ++r) {
    double* out = probs.data() + r * n_classes;
    for (std::size_t t = 0; t < rf.tree_count(); ++t) {
      rf.tree(t).accumulate_proba(codes.data() + r * x.cols, out);
    }
    for (std::size_t c = 0; c < n_classes; ++c) out[c] *= inv;
  }
  return probs;
}

std::vector<Label> rf_predict_scalar(const RandomForestClassifier& rf, FeatureView x) {
  const std::vector<double> probs = rf_predict_proba_scalar(rf, x);
  const std::size_t n_classes = rf.n_classes();
  std::vector<Label> out(x.rows, 0);
  for (std::size_t r = 0; r < x.rows; ++r) {
    const double* row = probs.data() + r * n_classes;
    Label best = 0;
    for (std::size_t c = 1; c < n_classes; ++c) {
      if (row[c] > row[static_cast<std::size_t>(best)]) best = static_cast<Label>(c);
    }
    out[r] = best;
  }
  return out;
}

}  // namespace mcb::reference
