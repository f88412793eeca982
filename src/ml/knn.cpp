#include "ml/knn.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "ml/serialize.hpp"
#include "ml/top_k.hpp"
#include "util/annotations.hpp"
#include "util/thread_pool.hpp"

namespace mcb {

namespace {

/// Classes beyond this are a corrupt/hostile model file, not a real
/// MCBound classifier (the paper's taxonomy has two classes): vote()
/// allocates a counter per class, so the header field must be bounded
/// before it is trusted.
constexpr std::uint64_t kMaxClasses = 1ULL << 20;
constexpr std::uint64_t kMaxDim = 1ULL << 24;

/// The file header's metric field: earlier builds stored a general
/// Minkowski p there; only the Euclidean p = 2 is written or accepted.
constexpr double kMetricP = 2.0;

}  // namespace

KnnClassifier::KnnClassifier(KnnConfig config) : config_(config) {
  if (config_.k == 0) config_.k = 1;
}

void KnnClassifier::fit(FeatureView x, std::span<const Label> y) {
  if (x.rows != y.size()) throw std::invalid_argument("knn: rows/labels mismatch");
  if (x.empty()) throw std::invalid_argument("knn: empty training set");
  std::size_t n_classes = 0;
  for (const Label l : y) {
    if (l < 0) throw std::invalid_argument("knn: negative label");
    n_classes = std::max(n_classes, static_cast<std::size_t>(l) + 1);
  }
  // Build and copy before committing anything, then commit with moves
  // that cannot throw, so a throw leaves the model as it was.
  KnnIndex index;
  index.build(x);
  std::vector<Label> labels(y.begin(), y.end());
  index_ = std::move(index);
  labels_ = std::move(labels);
  n_classes_ = n_classes;
}

MCB_HOT_PATH void KnnClassifier::top_k(std::span<const float> query,
                                       std::vector<std::size_t>& idx,
                                       std::vector<double>& dist) const {
  // Fitted (so the index is built) and width-checked by every caller,
  // so the search always serves. Were it to refuse, it empties `idx`
  // and vote() reads no row.
  [[maybe_unused]] const bool served = index_.search(query, config_.k, idx, dist);
  assert(served && "knn: index refused a fitted, width-checked query");
}

Label KnnClassifier::vote(std::span<const std::size_t> idx) const {
  // Majority vote; ties go to the lowest class id (sklearn behaviour).
  // Unfilled slots (kTopKNoRow, possible when every distance was NaN)
  // carry no vote.
  std::vector<std::uint32_t> votes(n_classes_, 0);
  for (const std::size_t i : idx) {
    if (i == kTopKNoRow) continue;
    ++votes[static_cast<std::size_t>(labels_[i])];
  }
  Label best = 0;
  for (std::size_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[static_cast<std::size_t>(best)]) best = static_cast<Label>(c);
  }
  return best;
}

MCB_HOT_PATH Label KnnClassifier::predict_one(std::span<const float> query) const {
  thread_local std::vector<std::size_t> idx;
  thread_local std::vector<double> dist;
  top_k(query, idx, dist);
  return vote(idx);
}

std::vector<Label> KnnClassifier::predict(FeatureView x, ThreadPool* pool) const {
  if (!is_fitted()) throw std::logic_error("knn: predict before fit");
  if (x.cols != dim()) throw std::invalid_argument("knn: query dimension mismatch");
  // Identical bytes give identical neighbours: search each distinct
  // row once and copy its label to the row's duplicates.
  const RowGroups groups = group_identical_rows(x);
  std::vector<Label> distinct_labels(groups.distinct.size(), 0);
  parallel_for_each(
      pool, 0, groups.distinct.size(),
      [&](std::size_t g) { distinct_labels[g] = predict_one(x.row(groups.distinct[g])); },
      /*grain=*/8);
  std::vector<Label> out(x.rows);
  for (std::size_t i = 0; i < x.rows; ++i) out[i] = distinct_labels[groups.group[i]];
  return out;
}

std::vector<std::size_t> KnnClassifier::kneighbors(std::span<const float> query) const {
  if (!is_fitted()) throw std::logic_error("knn: kneighbors before fit");
  if (query.size() != dim()) throw std::invalid_argument("knn: query dimension mismatch");
  std::vector<std::size_t> idx;
  std::vector<double> dist;
  top_k(query, idx, dist);
  return idx;
}

bool KnnClassifier::save(std::ostream& out) const {
  // Refuse to serialize an unfitted model: it would write dim == 0,
  // which load() rejects — a silent success here just defers the
  // failure to whoever tries to read the file back.
  if (!is_fitted()) return false;
  io::write_header(out, io::kKindKnn);
  io::write_pod(out, static_cast<std::uint64_t>(config_.k));
  io::write_pod(out, kMetricP);
  io::write_pod(out, static_cast<std::uint64_t>(dim()));
  io::write_pod(out, static_cast<std::uint64_t>(n_classes_));
  index_.write_rows(out);
  io::write_vec(out, labels_);
  return static_cast<bool>(out);
}

bool KnnClassifier::load(std::istream& in) {
  std::uint32_t kind = 0;
  if (!io::read_header(in, kind) || kind != io::kKindKnn) return false;
  std::uint64_t k = 0, dim = 0, n_classes = 0;
  double minkowski_p = 0.0;
  if (!io::read_pod(in, k) || !io::read_pod(in, minkowski_p) || !io::read_pod(in, dim) ||
      !io::read_pod(in, n_classes)) {
    return false;
  }
  // Every header field is hostile until proven otherwise. The ctor
  // clamps k == 0 but a file bypasses the ctor: k == 0 would build an
  // empty TopK whose dist_.back() is UB. The index serves p = 2 only.
  // dim/n_classes bound downstream allocations before they happen.
  if (k == 0) return false;
  if (minkowski_p != kMetricP) return false;
  if (dim == 0 || dim > kMaxDim) return false;
  if (n_classes == 0 || n_classes > kMaxClasses) return false;
  // Read into locals and commit only after every check passes, so a
  // rejected stream leaves the model unfitted instead of half-loaded.
  std::vector<float> train_data;
  std::vector<Label> labels;
  if (!io::read_vec(in, train_data, io::kMaxVecElems) ||
      !io::read_vec(in, labels, io::kMaxVecElems)) {
    return false;
  }
  if (labels.empty() || labels.size() * static_cast<std::size_t>(dim) != train_data.size()) {
    return false;
  }
  for (const Label l : labels) {
    // Out-of-range labels would be an OOB write in vote().
    if (l < 0 || static_cast<std::uint64_t>(l) >= n_classes) return false;
  }
  KnnIndex index;
  index.build(FeatureView{train_data.data(), labels.size(), static_cast<std::size_t>(dim)});
  config_.k = static_cast<std::size_t>(k);
  n_classes_ = static_cast<std::size_t>(n_classes);
  labels_ = std::move(labels);
  index_ = std::move(index);
  return true;
}

}  // namespace mcb
