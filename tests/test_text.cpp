// Tests for the text module: tokenization, n-grams, hashing and the
// sentence encoder's embedding properties (determinism, normalization,
// locality — the properties the SBERT substitution must preserve).
#include <gtest/gtest.h>

#include <cmath>

#include "text/sentence_encoder.hpp"
#include "text/tokenizer.hpp"
#include "util/rng.hpp"

namespace mcb {
namespace {

// ------------------------------------------------------------ tokenizer

TEST(Tokenizer, SplitsOnNonAlnumAndLowercases) {
  const auto tokens = word_tokens("WRF_run-12,user/03");
  ASSERT_EQ(tokens.size(), 5U);
  EXPECT_EQ(tokens[0], "wrf");
  EXPECT_EQ(tokens[1], "run");
  EXPECT_EQ(tokens[2], "12");
  EXPECT_EQ(tokens[3], "user");
  EXPECT_EQ(tokens[4], "03");
}

TEST(Tokenizer, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(word_tokens("").empty());
  EXPECT_TRUE(word_tokens(",;- /").empty());
}

TEST(Tokenizer, CharNgramsWithBoundaries) {
  const auto grams = char_ngrams("wrf", 3);
  ASSERT_EQ(grams.size(), 3U);
  EXPECT_EQ(grams[0], "^wr");
  EXPECT_EQ(grams[1], "wrf");
  EXPECT_EQ(grams[2], "rf$");
}

TEST(Tokenizer, ShortWordYieldsWholePaddedWord) {
  const auto grams = char_ngrams("a", 3);
  ASSERT_EQ(grams.size(), 1U);
  EXPECT_EQ(grams[0], "^a$");
}

TEST(Tokenizer, ZeroNgramSize) { EXPECT_TRUE(char_ngrams("abc", 0).empty()); }

TEST(Tokenizer, Fnv1a64KnownProperties) {
  // Deterministic, salt-sensitive, content-sensitive.
  EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
  EXPECT_NE(fnv1a64("abc", 0), fnv1a64("abc", 1));
  EXPECT_NE(fnv1a64(""), fnv1a64("a"));
}

// -------------------------------------------------------------- encoder

TEST(SentenceEncoder, OutputDimensionAndDefaults) {
  const SentenceEncoder encoder;
  EXPECT_EQ(encoder.dim(), 384U);  // matches SBERT all-MiniLM
  EXPECT_EQ(encoder.encode("hello world").size(), 384U);
}

TEST(SentenceEncoder, Deterministic) {
  const SentenceEncoder encoder;
  const auto a = encoder.encode("u00123,wrf_solve,192,4,lang/tcsds,2200");
  const auto b = encoder.encode("u00123,wrf_solve,192,4,lang/tcsds,2200");
  EXPECT_EQ(a, b);
}

TEST(SentenceEncoder, L2Normalized) {
  const SentenceEncoder encoder;
  const auto v = encoder.encode("some job feature string,48,2");
  double norm = 0.0;
  for (const float x : v) norm += static_cast<double>(x) * x;
  EXPECT_NEAR(norm, 1.0, 1e-5);
}

TEST(SentenceEncoder, EmptyStringIsZeroVector) {
  const SentenceEncoder encoder;
  const auto v = encoder.encode("");
  for (const float x : v) EXPECT_EQ(x, 0.0F);
}

TEST(SentenceEncoder, SimilarStringsAreCloserThanDissimilar) {
  const SentenceEncoder encoder;
  const auto base = encoder.encode("u00123,wrf_solve_a1,192,4,lang/tcsds-1.2.38,2200");
  const auto variant = encoder.encode("u00123,wrf_solve_a2,192,4,lang/tcsds-1.2.38,2200");
  const auto unrelated = encoder.encode("u09999,gemm_bench_zz,48,1,python/3.11,2000");
  EXPECT_GT(cosine_similarity(base, variant), 0.8);
  EXPECT_GT(cosine_similarity(base, variant), cosine_similarity(base, unrelated) + 0.3);
}

TEST(SentenceEncoder, SeedChangesEmbedding) {
  EncoderConfig a_cfg, b_cfg;
  b_cfg.seed = a_cfg.seed + 1;
  const SentenceEncoder a(a_cfg), b(b_cfg);
  const auto va = a.encode("wrf_solve");
  const auto vb = b.encode("wrf_solve");
  EXPECT_NE(va, vb);
}

TEST(SentenceEncoder, CustomDimension) {
  EncoderConfig cfg;
  cfg.dim = 64;
  const SentenceEncoder encoder(cfg);
  EXPECT_EQ(encoder.encode("abc def").size(), 64U);
}

TEST(SentenceEncoder, ZeroDimClampedToOne) {
  EncoderConfig cfg;
  cfg.dim = 0;
  const SentenceEncoder encoder(cfg);
  EXPECT_EQ(encoder.dim(), 1U);
}

TEST(SentenceEncoder, FieldTokensChangeEmbedding) {
  EncoderConfig with, without;
  with.use_field_tokens = true;
  without.use_field_tokens = false;
  const SentenceEncoder a(with), b(without);
  EXPECT_NE(a.encode("x,y"), b.encode("x,y"));
}

TEST(SentenceEncoder, FieldTokensDistinguishFieldOrder) {
  EncoderConfig cfg;
  cfg.use_field_tokens = true;
  cfg.use_word_tokens = false;
  cfg.ngram_sizes = {};
  const SentenceEncoder encoder(cfg);
  // Same multiset of values in different fields must differ.
  EXPECT_NE(encoder.encode("48,192"), encoder.encode("192,48"));
}

TEST(SentenceEncoder, DensifyPreservesDistancesApproximately) {
  EncoderConfig sparse_cfg, dense_cfg;
  dense_cfg.densify = true;
  const SentenceEncoder sparse(sparse_cfg), dense(dense_cfg);
  const std::string s1 = "u00123,wrf_solve_a1,192,4,lang/tcsds,2200";
  const std::string s2 = "u00123,wrf_solve_a2,192,4,lang/tcsds,2200";
  const std::string s3 = "u09999,gemm_bench,48,1,python/3.11,2000";
  const double sim12_sparse = cosine_similarity(sparse.encode(s1), sparse.encode(s2));
  const double sim12_dense = cosine_similarity(dense.encode(s1), dense.encode(s2));
  const double sim13_dense = cosine_similarity(dense.encode(s1), dense.encode(s3));
  // JL-style rotation: similar pairs stay similar, ordering preserved.
  EXPECT_NEAR(sim12_dense, sim12_sparse, 0.15);
  EXPECT_GT(sim12_dense, sim13_dense);
}

TEST(SentenceEncoder, MultiHashingSpreadsMass) {
  EncoderConfig one, three;
  one.hashes_per_feature = 1;
  three.hashes_per_feature = 3;
  const SentenceEncoder a(one), b(three);
  const auto va = a.encode("single_token");
  const auto vb = b.encode("single_token");
  const auto nonzeros = [](const std::vector<float>& v) {
    std::size_t n = 0;
    for (const float x : v) n += x != 0.0F;
    return n;
  };
  EXPECT_GT(nonzeros(vb), nonzeros(va));
}

TEST(CosineSimilarity, EdgeCases) {
  const std::vector<float> zero(4, 0.0F);
  const std::vector<float> unit{1.0F, 0.0F, 0.0F, 0.0F};
  EXPECT_DOUBLE_EQ(cosine_similarity(zero, unit), 0.0);
  EXPECT_NEAR(cosine_similarity(unit, unit), 1.0, 1e-9);
  const std::vector<float> neg{-1.0F, 0.0F, 0.0F, 0.0F};
  EXPECT_NEAR(cosine_similarity(unit, neg), -1.0, 1e-9);
}

// ------------------------------------------- property tests (TEST_P)

class EncoderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EncoderProperty, RandomStringsAreNormalizedAndDeterministic) {
  Rng rng(GetParam());
  const SentenceEncoder encoder;
  for (int i = 0; i < 50; ++i) {
    std::string s;
    const int len = static_cast<int>(rng.range(1, 60));
    for (int c = 0; c < len; ++c) {
      static constexpr char kAlphabet[] = "abcdefghij0123456789_,-/";
      s += kAlphabet[rng.bounded(sizeof(kAlphabet) - 1)];
    }
    const auto v1 = encoder.encode(s);
    const auto v2 = encoder.encode(s);
    EXPECT_EQ(v1, v2);
    double norm = 0.0;
    for (const float x : v1) norm += static_cast<double>(x) * x;
    EXPECT_TRUE(norm == 0.0 || std::abs(norm - 1.0) < 1e-5) << "norm=" << norm;
  }
}

TEST_P(EncoderProperty, IdenticalUpToCaseAndSeparators) {
  Rng rng(GetParam() + 99);
  const SentenceEncoder encoder;
  // Tokenization lower-cases and strips separators, so these collide by
  // construction — a documented property of the hashed encoder.
  EXPECT_EQ(encoder.encode("WRF RUN"), encoder.encode("wrf run"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncoderProperty, ::testing::Values(1, 2, 3, 520, 1905));

}  // namespace
}  // namespace mcb
