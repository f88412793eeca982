// HashedSentenceEncoder — the repository's stand-in for SBERT
// (all-MiniLM-L6-v2) in the Feature Encoder (paper §III-B).
//
// The paper encodes the comma-joined job feature string with SBERT into a
// fixed 384-dimensional float vector. What the downstream models need
// from that representation is:
//   (1) determinism — identical strings map to identical vectors;
//   (2) locality — strings sharing tokens (same user, same job-name
//       family, same resource shape) land close in cosine distance;
//   (3) a fixed, modest dimensionality.
// A signed feature-hashing ("hashing trick") encoder over word tokens and
// boundary-marked character n-grams provides exactly these properties
// without a 90 MB transformer checkpoint, and is what we ship offline.
// DESIGN.md §3 documents the substitution; bench_micro_overhead compares
// its cost with the paper's reported 2 ms/job SBERT encoding time.
//
// Vector construction for a sentence s:
//   for each feature f (word token, weighted kWordWeight; or char n-gram,
//   weighted kNgramWeight):
//     i    = fnv1a64(f, salt=seed)            mod dim
//     sign = bit 63 of fnv1a64(f, salt=seed+1) ? +1 : -1
//     v[i] += sign * weight * log(1 + tf(f))
//   v /= ||v||2                 (zero vectors are left as all-zeros)
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace mcb {

struct EncoderConfig {
  std::size_t dim = 384;              ///< matches SBERT all-MiniLM output
  std::vector<std::size_t> ngram_sizes = {3, 4};
  bool use_word_tokens = true;
  /// Positions each feature is hashed to (Bloom-style multi-hashing;
  /// >1 makes single-dimension collisions recoverable for tree splits).
  std::size_t hashes_per_feature = 3;
  double word_weight = 1.0;
  double ngram_weight = 0.5;
  /// Ablation option (off by default; see bench_ablation_encoder):
  /// treat top-level comma-separated segments as fields and hash each
  /// whole (index, value) pair as one feature. Job feature strings are
  /// comma-joined by construction (paper §III-B), so this gives every
  /// exact field value its own signed dimension — the positional
  /// awareness a learned sentence embedding provides — which axis-
  /// aligned tree splits exploit directly.
  bool use_field_tokens = false;
  double field_weight = 1.5;
  /// Ablation option (off by default; hurts tree splits in practice):
  /// apply a deterministic random-sign rotation (dense Johnson-
  /// Lindenstrauss projection) to the hashed vector before
  /// normalization. Pairwise distances are approximately preserved, so
  /// KNN behaviour is unchanged, but every output dimension becomes a
  /// dense linear view of the whole token set — the dense geometry a
  /// learned sentence embedding has, which axis-aligned decision-tree
  /// splits need (bench_ablation_encoder measures the effect).
  bool densify = false;
  std::uint64_t seed = 0x5be11aULL;   ///< hashing salt (model identity)
};

class SentenceEncoder {
 public:
  explicit SentenceEncoder(EncoderConfig config = {});

  const EncoderConfig& config() const noexcept { return config_; }
  std::size_t dim() const noexcept { return config_.dim; }

  /// Encode one sentence into an L2-normalized vector of `dim()` floats.
  std::vector<float> encode(std::string_view sentence) const;

 private:
  void accumulate(std::string_view feature, double weight,
                  std::vector<double>& accum) const;
  EncoderConfig config_;
};

/// Cosine similarity between two equal-length vectors.
double cosine_similarity(std::span<const float> a, std::span<const float> b);

}  // namespace mcb
