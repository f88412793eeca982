#include "text/sentence_encoder.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "text/tokenizer.hpp"
#include "util/rng.hpp"

namespace mcb {

SentenceEncoder::SentenceEncoder(EncoderConfig config) : config_(std::move(config)) {
  if (config_.dim == 0) config_.dim = 1;
}

void SentenceEncoder::accumulate(std::string_view feature, double weight,
                                 std::vector<double>& accum) const {
  const std::uint64_t h_index = fnv1a64(feature, config_.seed);
  const std::uint64_t h_sign = fnv1a64(feature, config_.seed + 1);
  for (std::size_t h = 0; h < config_.hashes_per_feature; ++h) {
    const std::size_t index =
        static_cast<std::size_t>(mix64(h_index + h * 0x9e3779b97f4a7c15ULL) % config_.dim);
    const double sign = ((h_sign >> (63 - h)) & 1U) != 0 ? 1.0 : -1.0;
    accum[index] += sign * weight;
  }
}

std::vector<float> SentenceEncoder::encode(std::string_view sentence) const {
  // Term-frequency pass: features are few (short feature strings), so a
  // transient map is cheap and gives sub-linear tf weighting.
  std::unordered_map<std::string, std::pair<double, int>> features;  // weight, count
  const auto add_feature = [&features](std::string feature, double weight) {
    auto [it, inserted] = features.try_emplace(std::move(feature), std::make_pair(weight, 0));
    it->second.second += 1;
    (void)inserted;
  };

  if (config_.use_field_tokens) {
    std::size_t field = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= sentence.size(); ++i) {
      if (i == sentence.size() || sentence[i] == ',') {
        add_feature("f" + std::to_string(field) + ":" +
                        std::string(sentence.substr(start, i - start)),
                    config_.field_weight);
        ++field;
        start = i + 1;
      }
    }
  }

  const auto words = word_tokens(sentence);
  for (const auto& word : words) {
    if (config_.use_word_tokens) add_feature("w:" + word, config_.word_weight);
    for (const std::size_t n : config_.ngram_sizes) {
      for (auto& gram : char_ngrams(word, n)) {
        add_feature("g" + std::to_string(n) + ":" + std::move(gram), config_.ngram_weight);
      }
    }
  }

  std::vector<double> accum(config_.dim, 0.0);
  for (const auto& [feature, info] : features) {
    accumulate(feature, info.first * std::log1p(static_cast<double>(info.second)), accum);
  }

  if (config_.densify) {
    // Random-sign rotation: out[j] = sum_i accum[i] * R[i][j] with
    // R[i][j] = +-1 drawn from a per-row SplitMix64 stream. Only the
    // nonzero inputs contribute, so cost is O(nnz * dim).
    std::vector<double> dense(config_.dim, 0.0);
    for (std::size_t i = 0; i < config_.dim; ++i) {
      const double v = accum[i];
      if (v == 0.0) continue;
      std::uint64_t stream = config_.seed * 0x9e3779b97f4a7c15ULL + i + 2;
      std::uint64_t bits = 0;
      for (std::size_t j = 0; j < config_.dim; ++j) {
        if ((j & 63U) == 0) bits = splitmix64(stream);
        dense[j] += (bits & 1U) != 0 ? v : -v;
        bits >>= 1;
      }
    }
    accum.swap(dense);
  }

  double norm_sq = 0.0;
  for (const double v : accum) norm_sq += v * v;
  const double inv_norm = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0;

  std::vector<float> out(config_.dim);
  for (std::size_t i = 0; i < config_.dim; ++i) {
    out[i] = static_cast<float>(accum[i] * inv_norm);
  }
  return out;
}

double cosine_similarity(std::span<const float> a, std::span<const float> b) {
  const std::size_t n = std::min(a.size(), b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    dot += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    na += static_cast<double>(a[i]) * static_cast<double>(a[i]);
    nb += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

}  // namespace mcb
