// Feature Encoder (paper §III-B): selects a subset of submission-time
// job features, joins their values into a comma-separated string, and
// encodes that string into a fixed-size float vector.
//
// The default feature set is the paper's augmented set for Fugaku
// (§V-A): user name, job name, #cores requested, #nodes requested,
// environment, plus frequency requested.
//
// Encodings are content-addressed by that feature string in a
// ShardedEmbeddingCache, so retraining re-uses the vectors computed by
// earlier Training/Inference workflow triggers (paper §V-A: "we save the
// job characterizations and encodings of every trigger ... to avoid
// redundant computations") and recurring job names hit across job ids.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/job_record.hpp"
#include "ml/dataset.hpp"
#include "text/embedding_cache.hpp"
#include "text/sentence_encoder.hpp"

namespace mcb {

class ThreadPool;

enum class JobFeature : std::uint8_t {
  kUserName,
  kJobName,
  kCoresRequested,
  kNodesRequested,
  kEnvironment,
  kFrequency,
};

const char* job_feature_name(JobFeature feature) noexcept;

/// The paper's augmented feature set for Fugaku.
std::vector<JobFeature> default_feature_set();

class FeatureEncoder {
 public:
  explicit FeatureEncoder(std::vector<JobFeature> features = default_feature_set(),
                          EncoderConfig encoder_config = {});

  std::size_t dim() const noexcept { return encoder_.dim(); }
  const std::vector<JobFeature>& features() const noexcept { return features_; }
  const SentenceEncoder& sentence_encoder() const noexcept { return encoder_; }

  /// The comma-separated feature string fed to the sentence encoder.
  std::string feature_string(const JobRecord& job) const;

  /// Encode one job.
  std::vector<float> encode(const JobRecord& job) const;

  /// Encode a batch into a row-major matrix. When `cache` is non-null,
  /// rows whose feature string is cached are copied out of it and the
  /// misses are encoded (in parallel on `pool`) and inserted. The cache
  /// is keyed by content, so it stays valid across job ids and retrains.
  FeatureMatrix encode_batch(std::span<const JobRecord> jobs,
                             ShardedEmbeddingCache* cache = nullptr,
                             ThreadPool* pool = nullptr) const;

 private:
  std::vector<JobFeature> features_;
  SentenceEncoder encoder_;
};

}  // namespace mcb
