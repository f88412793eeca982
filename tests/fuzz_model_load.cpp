// Fuzz/property harness for model deserialization (the attack surface
// behind the PR 6 hardening: k == 0, out-of-range labels, colliding
// kind tags, unbounded allocations).
//
// Properties checked on arbitrary bytes b:
//   P1  KnnClassifier/KnnRegressor/FlatForest load(b) always
//       returns cleanly (true/false) — never crashes, reads out of
//       bounds, loops, or over-allocates (ASan/UBSan in CI make
//       violations fatal; libFuzzer's malloc limit catches the rest).
//   P2  kind tags are mutually exclusive: at most one loader accepts b
//       (the KnnRegressor/FlatForest tag collision regression).
//   P3  anything a loader accepts is consistent enough to run: a
//       defensively-sized query through predict/search must not fault —
//       this drives the historical UB sites (empty TopK, vote() OOB,
//       accumulate_proba feature OOB) on every accepted input. NaN and
//       ±inf queries, which the KNN index answers by sweeping every
//       point, return only kTopKNoRow or in-range row ids.
//   P4  accept → save → load: a loaded model re-serializes to a stream
//       the same loader accepts again (loaders accept nothing they
//       cannot round-trip). KNN models re-save byte for byte: the
//       stream equals the bytes their load consumed, since the index
//       expands its unique points back into the original rows.
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ml/flat_forest.hpp"
#include "ml/knn.hpp"
#include "ml/knn_regressor.hpp"
#include "ml/top_k.hpp"
#include "tests/fuzz_common.hpp"

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_model_load: property violated: %s\n", what);
    std::abort();
  }
}

/// One query per hostile value, each filling every feature.
std::vector<std::vector<float>> non_finite_queries(std::size_t dim) {
  std::vector<std::vector<float>> queries;
  for (const float v : {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()}) {
    queries.emplace_back(dim, v);
  }
  return queries;
}

void check_neighbor_ids(const std::vector<std::size_t>& idx, std::size_t rows) {
  for (const std::size_t row : idx) {
    check(row == mcb::kTopKNoRow || row < rows, "P3 neighbor ids are kTopKNoRow or in range");
  }
}

/// The prefix of `bytes` that a successful load read from `in`.
std::string consumed_bytes(const std::string& bytes, std::istringstream& in) {
  const std::streampos pos = in.tellg();
  return pos < 0 ? bytes : bytes.substr(0, static_cast<std::size_t>(pos));
}

}  // namespace

int mcb_fuzz_one(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  int accepted = 0;

  {
    std::istringstream in(bytes);
    mcb::KnnClassifier knn;
    if (knn.load(in)) {  // P1
      ++accepted;
      check(knn.is_fitted(), "P3 accepted classifier is fitted");
      check(knn.config().k >= 1, "P3 accepted classifier has k >= 1");
      check(knn.dim() >= 1, "P3 accepted classifier has dim >= 1");
      const std::vector<float> query(knn.dim(), 0.0F);
      const mcb::FeatureView view{query.data(), 1, knn.dim()};
      const auto pred = knn.predict(view);  // P3: TopK + vote() on file data
      check(pred.size() == 1 && pred[0] >= 0 &&
                static_cast<std::size_t>(pred[0]) < knn.n_classes(),
            "P3 classifier prediction is a valid class");
      check(knn.kneighbors(query).size() == std::min(knn.config().k, knn.train_size()),
            "P3 kneighbors returns min(k, n) slots");
      for (const auto& hostile : non_finite_queries(knn.dim())) {
        check_neighbor_ids(knn.kneighbors(hostile), knn.train_size());
        const mcb::FeatureView hostile_view{hostile.data(), 1, knn.dim()};
        const auto label = knn.predict(hostile_view);
        check(label[0] >= 0 && static_cast<std::size_t>(label[0]) < knn.n_classes(),
              "P3 non-finite query still predicts a valid class");
      }
      std::ostringstream out;
      check(knn.save(out), "P4 accepted classifier saves");
      check(out.str() == consumed_bytes(bytes, in), "P4 classifier re-saves byte for byte");
      std::istringstream again(out.str());
      mcb::KnnClassifier reloaded;
      check(reloaded.load(again), "P4 classifier save/load round trip");
    }
  }

  {
    std::istringstream in(bytes);
    mcb::KnnRegressor reg;
    if (reg.load(in)) {  // P1
      ++accepted;
      check(reg.is_fitted(), "P3 accepted regressor is fitted");
      check(reg.config().k >= 1, "P3 accepted regressor has k >= 1");
      const std::vector<float> query(reg.dim(), 0.0F);
      (void)reg.predict_one(query);  // P3: TopK + k-division on file data
      std::vector<std::size_t> idx;
      std::vector<double> dist;
      for (const auto& hostile : non_finite_queries(reg.dim())) {
        (void)reg.predict_one(hostile);
        check(reg.index().search(hostile, reg.config().k, idx, dist),
              "P3 regressor index serves non-finite queries");
        check_neighbor_ids(idx, reg.train_size());
      }
      std::ostringstream out;
      check(reg.save(out), "P4 accepted regressor saves");
      check(out.str() == consumed_bytes(bytes, in), "P4 regressor re-saves byte for byte");
      std::istringstream again(out.str());
      mcb::KnnRegressor reloaded;
      check(reloaded.load(again), "P4 regressor save/load round trip");
    }
  }

  {
    std::istringstream in(bytes);
    mcb::FlatForest forest;
    if (forest.load(in)) {  // P1
      ++accepted;
      check(!forest.empty() && forest.n_classes() >= 1, "P3 accepted forest is usable");
      // min_row_width is load-bounded, so this allocation is too.
      const std::vector<float> row(std::max<std::size_t>(forest.min_row_width(), 1), 0.0F);
      std::vector<double> probs(forest.n_classes(), 0.0);
      forest.accumulate_proba(row, probs.data());  // P3: traversal on file data
      std::ostringstream out;
      forest.save(out);
      std::istringstream again(out.str());
      mcb::FlatForest reloaded;
      check(reloaded.load(again), "P4 forest save/load round trip");
    }
  }

  check(accepted <= 1, "P2 model kind tags are mutually exclusive");
  return 0;
}
