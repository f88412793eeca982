// Equivalence tests for the KNN index (DESIGN.md §11), the only p = 2
// neighbour search of KnnClassifier and KnnRegressor: the unique-point
// scan must return results *identical* to the reference scans in
// tests/reference/ — same neighbor ids, same predictions — on
// randomized inputs and on the shapes that stress its invariants
// (duplicate rows and equal distances, k larger than the training set,
// narrow dims, tile boundaries, value-equal but byte-distinct rows,
// small training sets, non-finite training rows and queries). The
// query sets hold repeated rows, so KnnClassifier::predict's grouping
// of distinct query rows is checked on the same inputs. Plus the
// query-width contract.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>

#include "ml/knn.hpp"
#include "ml/knn_index.hpp"
#include "ml/knn_regressor.hpp"
#include "ml/top_k.hpp"
#include "reference/reference.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mcb {
namespace {

struct RandomData {
  FeatureMatrix x;
  std::vector<Label> y;
};

RandomData make_random_data(std::size_t rows, std::size_t dims, std::uint64_t seed,
                            std::size_t n_classes = 2) {
  Rng rng(seed);
  RandomData data{FeatureMatrix(rows, dims), std::vector<Label>(rows)};
  for (std::size_t i = 0; i < rows; ++i) {
    const Label label = static_cast<Label>(rng.bounded(n_classes));
    data.y[i] = label;
    float* row = data.x.row(i);
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = static_cast<float>(rng.normal(d == 0 ? static_cast<double>(label) : 0.0, 1.0));
    }
  }
  return data;
}

/// HPC-trace-shaped data: many byte-identical rows (Fugaku jobs arrive
/// in batches of identical jobs), so equal distances are the common
/// case, not the corner case.
RandomData make_duplicate_data(std::size_t rows, std::size_t dims, std::size_t unique,
                               std::uint64_t seed, std::size_t n_classes = 2) {
  const RandomData base = make_random_data(unique, dims, seed, n_classes);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  RandomData data{FeatureMatrix(rows, dims), std::vector<Label>(rows)};
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t pick = rng.bounded(unique);
    data.y[i] = base.y[pick];
    std::copy_n(base.x.row(pick).data(), dims, data.x.row(i));
  }
  return data;
}

KnnClassifier fitted_knn(const RandomData& train, std::size_t k) {
  KnnConfig config;
  config.k = k;
  KnnClassifier knn(config);
  knn.fit(train.x.view(), train.y);
  return knn;
}

/// The core contract: neighbors and predictions of the classifier must
/// be bit-identical to the scalar reference scan, query by query.
void expect_knn_matches_scalar(const KnnClassifier& knn, const RandomData& train,
                               FeatureView queries) {
  ASSERT_TRUE(knn.index().ready()) << "every fitted p = 2 classifier searches the index";
  const std::size_t k = knn.config().k;
  EXPECT_EQ(knn.predict(queries),
            reference::knn_predict_scalar(train.x.view(), train.y, queries, k));
  for (std::size_t i = 0; i < queries.rows; ++i) {
    EXPECT_EQ(knn.kneighbors(queries.row(i)),
              reference::knn_kneighbors_scalar(train.x.view(), queries.row(i), k))
        << "query " << i;
  }
}

/// The same contract on a KnnIndex built directly.
void expect_index_matches_scalar(FeatureView train, FeatureView queries, std::size_t k) {
  KnnIndex index;
  index.build(train);
  ASSERT_TRUE(index.ready());
  std::vector<std::size_t> idx;
  std::vector<double> dist;
  for (std::size_t i = 0; i < queries.rows; ++i) {
    ASSERT_TRUE(index.search(queries.row(i), k, idx, dist));
    EXPECT_EQ(idx, reference::knn_kneighbors_scalar(train, queries.row(i), k)) << "query " << i;
  }
}

/// `base` with rows appended: each listed row of `base` copied again,
/// in order, so predict() sees repeats of earlier rows.
FeatureMatrix with_repeats(const FeatureMatrix& base, std::initializer_list<std::size_t> rows) {
  std::vector<std::size_t> order(base.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  order.insert(order.end(), rows);
  return base.gather(order);
}

// ---------------------------------------------------------------------------
// Unique-point scan vs scalar scan
// ---------------------------------------------------------------------------

TEST(KnnIndexScan, MatchesScalarOnRandomizedInputs) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    const auto train = make_random_data(500, 8, seed);
    const auto queries = make_random_data(100, 8, seed + 1000);
    const KnnClassifier knn = fitted_knn(train, 5);
    expect_knn_matches_scalar(knn, train, queries.x.view());
  }
}

TEST(KnnIndexScan, MatchesScalarOnDuplicateHeavyData) {
  // 1500 rows collapsing onto 60 unique points: every neighbor set is
  // decided by the (distance, row id) tie-break, and queries drawn from
  // the same pool hit exact distance-0 matches.
  const auto train = make_duplicate_data(1500, 6, 60, 91);
  const auto queries = make_duplicate_data(80, 6, 60, 91);
  const KnnClassifier knn = fitted_knn(train, 5);
  EXPECT_LT(knn.index().stats().unique_rows, 100U);
  expect_knn_matches_scalar(knn, train, queries.x.view());
  expect_index_matches_scalar(train.x.view(), queries.x.view(), 5);
}

TEST(KnnIndexScan, DuplicateGroupExpandsToLowestRowIds) {
  // Four copies of the same point scattered through the training set:
  // k = 3 must return the three *lowest* original row ids, exactly as a
  // sequential first-seen-wins scan would.
  RandomData train{FeatureMatrix(6, 2), {0, 1, 0, 1, 1, 1}};
  const float rows[6][2] = {{5, 5}, {0, 0}, {9, 9}, {0, 0}, {0, 0}, {0, 0}};
  for (std::size_t i = 0; i < 6; ++i) std::copy_n(rows[i], 2, train.x.row(i));
  const KnnClassifier knn = fitted_knn(train, 3);
  const std::vector<float> query{0.1F, 0.1F};
  const std::vector<std::size_t> expected{1, 3, 4};
  EXPECT_EQ(knn.kneighbors(query), expected);
  EXPECT_EQ(reference::knn_kneighbors_scalar(train.x.view(), query, 3), expected);
  // Plus repeats of the rows {5, 5} and {9, 9}, whose training groups
  // (one row each) are smaller than k.
  FeatureMatrix queries(3, 2);
  std::copy_n(query.data(), 2, queries.row(0));
  std::copy_n(rows[0], 2, queries.row(1));
  std::copy_n(rows[2], 2, queries.row(2));
  const FeatureMatrix repeated = with_repeats(queries, {1, 2, 1, 0});
  expect_index_matches_scalar(train.x.view(), repeated.view(), 3);
  expect_knn_matches_scalar(knn, train, repeated.view());
}

TEST(KnnIndexScan, NarrowDimsAndTileBoundaries) {
  for (const std::size_t dims : {1U, 2U, 3U, 4U, 5U}) {
    for (const std::size_t rows : {127U, 128U, 129U, 256U}) {
      const auto train = make_random_data(rows, dims, dims * 1000 + rows);
      const auto queries = make_random_data(20, dims, dims * 2000 + rows);
      expect_knn_matches_scalar(fitted_knn(train, 5), train, queries.x.view());
      expect_index_matches_scalar(train.x.view(), queries.x.view(), 5);
    }
  }
}

TEST(KnnIndexScan, KLargerThanTrainingSet) {
  const auto train = make_random_data(10, 3, 5);
  const auto queries = make_random_data(8, 3, 6);
  const KnnClassifier knn = fitted_knn(train, 50);
  expect_knn_matches_scalar(knn, train, queries.x.view());
  EXPECT_EQ(knn.kneighbors(queries.x.row(0)).size(), 10U);
  expect_index_matches_scalar(train.x.view(), queries.x.view(), 50);
}

TEST(KnnIndexScan, SignedZeroRowsGroupApart) {
  // All rows value-equal but byte-distinct in one dimension (-0.0 vs
  // 0.0): they form two groups, every distance ties, and the lowest row
  // ids across both groups must win. The queries are the same kind of
  // pair, each repeated, so predict() groups them apart as well.
  RandomData train{FeatureMatrix(64, 2), std::vector<Label>(64)};
  for (std::size_t i = 0; i < 64; ++i) {
    train.x.row(i)[0] = (i % 2 == 0) ? 0.0F : -0.0F;
    train.x.row(i)[1] = 1.0F;
    train.y[i] = static_cast<Label>(i % 2);
  }
  KnnIndex index;
  index.build(train.x.view());
  EXPECT_EQ(index.stats().unique_rows, 2U);
  FeatureMatrix queries(2, 2);
  queries.row(0)[1] = 0.9F;
  queries.row(1)[0] = -0.0F;
  queries.row(1)[1] = 0.9F;
  const FeatureMatrix repeated = with_repeats(queries, {1, 0, 1});
  expect_index_matches_scalar(train.x.view(), repeated.view(), 5);
  expect_knn_matches_scalar(fitted_knn(train, 5), train, repeated.view());
}

TEST(KnnIndexScan, NonFiniteQueriesMatchScalar) {
  // NaN and ±inf queries: neighbors must still match the scan (NaN
  // distances are never admitted; -inf ones tie toward low ids). The
  // NaN rows repeat, and group by their bytes like any other row.
  const auto train = make_random_data(300, 4, 17);
  const KnnClassifier knn = fitted_knn(train, 5);
  FeatureMatrix base(4, 4);
  base.row(0)[1] = std::numeric_limits<float>::quiet_NaN();
  base.row(1)[2] = std::numeric_limits<float>::infinity();
  base.row(2)[0] = -std::numeric_limits<float>::infinity();
  for (std::size_t d = 0; d < 4; ++d) base.row(3)[d] = std::numeric_limits<float>::quiet_NaN();
  const FeatureMatrix queries = with_repeats(base, {3, 0, 3, 1, 0});
  expect_knn_matches_scalar(knn, train, queries.view());
  for (const std::size_t row : knn.kneighbors(queries.view().row(3))) {
    EXPECT_EQ(row, kTopKNoRow) << "an all-NaN query admits no neighbor";
  }
}

TEST(KnnIndexScan, NanTrainingRowsMatchScalar) {
  auto train = make_random_data(300, 4, 19);
  train.x.row(7)[2] = std::numeric_limits<float>::quiet_NaN();
  train.x.row(150)[0] = std::numeric_limits<float>::quiet_NaN();
  const KnnClassifier knn = fitted_knn(train, 5);
  const auto queries = make_random_data(20, 4, 20);
  expect_knn_matches_scalar(knn, train, queries.x.view());
}

TEST(KnnIndexScan, SmallTrainingSetsMatchScalar) {
  // Fewer rows than k (1) and than one tile (5, 63).
  for (const std::size_t rows : {1U, 5U, 63U}) {
    const auto train = make_random_data(rows, 4, 21 + rows);
    const KnnClassifier knn = fitted_knn(train, 5);
    const auto queries = make_random_data(20, 4, 22 + rows);
    expect_knn_matches_scalar(knn, train, queries.x.view());
  }
}

TEST(KnnIndexScan, ParallelPredictionMatchesSerial) {
  // Every fifth query repeated, so the pool also runs over a distinct
  // set smaller than the batch and both copies must get the label.
  const auto train = make_duplicate_data(4000, 5, 700, 33);
  const auto random = make_random_data(64, 5, 34);
  const FeatureMatrix queries =
      with_repeats(random.x, {0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 0, 5});
  const KnnClassifier knn = fitted_knn(train, 5);
  ThreadPool pool(4);
  const std::vector<Label> parallel = knn.predict(queries.view(), &pool);
  EXPECT_EQ(parallel, knn.predict(queries.view(), nullptr));
  EXPECT_EQ(parallel, reference::knn_predict_scalar(train.x.view(), train.y, queries.view(), 5));
}

TEST(KnnIndexScan, SearchContractOnUnreadyOrBadInput) {
  KnnIndex index;
  std::vector<std::size_t> idx;
  std::vector<double> dist;
  const std::vector<float> query{1.0F, 2.0F};
  EXPECT_FALSE(index.search(query, 5, idx, dist)) << "unbuilt index";

  const auto train = make_random_data(100, 2, 115);
  index.build(train.x.view());
  ASSERT_TRUE(index.ready());
  // A refusal empties the outputs, so no caller can read a previous
  // query's row ids.
  const std::vector<float> wrong_dim{1.0F, 2.0F, 3.0F};
  for (const bool zero_k : {true, false}) {
    ASSERT_TRUE(index.search(query, 5, idx, dist));
    EXPECT_EQ(idx.size(), 5U);
    EXPECT_FALSE(zero_k ? index.search(query, 0, idx, dist)
                        : index.search(wrong_dim, 5, idx, dist))
        << (zero_k ? "k == 0" : "dimension mismatch");
    EXPECT_TRUE(idx.empty());
    EXPECT_TRUE(dist.empty());
  }
}

// ---------------------------------------------------------------------------
// Query width: a query of the wrong width is refused, never read past
// ---------------------------------------------------------------------------

TEST(KnnQueryWidth, ShortAndLongQueriesThrow) {
  const auto train = make_random_data(200, 6, 41);
  const KnnClassifier knn = fitted_knn(train, 5);
  std::vector<double> targets(train.y.begin(), train.y.end());
  KnnRegressor regressor;
  regressor.fit(train.x.view(), targets);
  for (const std::size_t width : {0U, 5U, 7U}) {
    const std::vector<float> query(width, 0.5F);
    EXPECT_THROW(knn.kneighbors(query), std::invalid_argument) << "width " << width;
    EXPECT_THROW(regressor.predict_one(query), std::invalid_argument) << "width " << width;
  }
  const std::vector<float> exact(6, 0.5F);
  EXPECT_EQ(knn.kneighbors(exact).size(), 5U);
  EXPECT_NO_THROW(regressor.predict_one(exact));
}

// ---------------------------------------------------------------------------
// Regressor on the same index
// ---------------------------------------------------------------------------

TEST(KnnIndexRegressor, IndexedPredictionsMatchScanBitwise) {
  for (const bool weighted : {false, true}) {
    const auto train = make_duplicate_data(4000, 5, 700, 77);
    std::vector<double> targets(train.y.size());
    Rng rng(78);
    for (auto& t : targets) t = rng.uniform(0.0, 100.0);

    KnnRegressorConfig config;
    config.k = 5;
    config.distance_weighted = weighted;
    KnnRegressor regressor(config);
    regressor.fit(train.x.view(), targets);
    ASSERT_TRUE(regressor.index().ready());

    const auto queries = make_duplicate_data(60, 5, 700, 79);
    EXPECT_EQ(regressor.predict(queries.x.view()),
              reference::knn_regress_tiled(train.x.view(), targets, queries.x.view(), 5,
                                           weighted))
        << "weighted = " << weighted;
  }
}

}  // namespace
}  // namespace mcb
