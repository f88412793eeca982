// mcbound::Framework — the top-level facade tying the components of
// Figure 1 together: Data Fetcher + Job Characterizer + Feature Encoder +
// Classification Model + model registry, wired by a FrameworkConfig.
//
// A deployment constructs one Framework over its jobs data storage and
// drives it with the two workflows:
//   framework.train_now(now)        -> Training Workflow (cron, every beta days)
//   framework.predict_job(job)      -> Inference Workflow (per submission)
//   framework.predict_range(a, b)   -> Inference Workflow (periodic batch)
// The HTTP facade in src/serve exposes the same operations over JSON.
//
// Concurrency: a Framework is safe to share. The live model is an
// immutable ModelSnapshot behind a shared_ptr: every predict call copies
// the pointer once and classifies with exactly that model, even while
// train_now() builds the next one off to the side and swaps the pointer.
// Trainers serialize on their own mutex so registry versions cannot
// collide. The one embedding cache is internally synchronized.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/model_registry.hpp"
#include "core/online_evaluator.hpp"
#include "core/workflows.hpp"
#include "data/data_fetcher.hpp"
#include "util/sync.hpp"

namespace mcb {

/// A trained model and the registry version it was saved (or loaded)
/// as. Published once, never mutated.
struct ModelSnapshot {
  ClassificationModel model;
  std::optional<std::uint32_t> version;  ///< nullopt when the save failed
};

class Framework {
 public:
  /// The store is the deployment's jobs data storage; it must outlive
  /// the framework.
  Framework(FrameworkConfig config, const JobStore& store, ThreadPool* pool = nullptr);

  const FrameworkConfig& config() const noexcept { return config_; }
  const Characterizer& characterizer() const noexcept { return characterizer_; }
  const FeatureEncoder& encoder() const noexcept { return encoder_; }
  /// Direct registry access, not serialized with train_now(): for
  /// single-threaded maintenance (pruning, offline saves).
  ModelRegistry& registry() noexcept { return registry_; }
  const JobStore& store() const noexcept { return *store_; }

  /// The embedding cache every encode goes through (training, the
  /// workflows and serving), keyed by canonical feature string.
  const ShardedEmbeddingCache& embedding_cache() const noexcept { return cache_; }

  /// The live model and its version, or nullptr before the first
  /// train_now()/load_latest_model(). Callers that need both read one
  /// snapshot rather than calling model() and model_version().
  std::shared_ptr<const ModelSnapshot> snapshot() const MCB_EXCLUDES(snapshot_mutex_) {
    MutexLock lock(snapshot_mutex_);
    return snapshot_;
  }
  bool has_model() const { return snapshot() != nullptr; }
  std::optional<std::uint32_t> model_version() const {
    const auto snap = snapshot();
    return snap != nullptr ? snap->version : std::nullopt;
  }
  std::string model_name() const { return model_kind_name(config_.model); }

  /// The live model, or nullptr before the first train_now()/
  /// load_latest_model(); stays valid while the caller holds it.
  std::shared_ptr<const ClassificationModel> model() const {
    auto snap = snapshot();
    if (snap == nullptr) return nullptr;
    const ClassificationModel* model = &snap->model;
    return {std::move(snap), model};
  }

  /// Training Workflow: fetch the trailing alpha-day window ending at
  /// `now`, characterize, encode, train, and persist a new model version
  /// to the registry. Returns the report (jobs_used == 0 means the
  /// window was empty and no model was produced).
  TrainingReport train_now(TimePoint now);

  /// Load the newest persisted model that loads instead of training
  /// (warm restart); a corrupt newest file falls back to its predecessor.
  bool load_latest_model();

  /// Inference Workflow for one not-yet-executed job.
  std::optional<Boundedness> predict_job(const JobRecord& job) const;

  /// Batched Inference Workflow (serving fast path): encode all jobs
  /// through the embedding cache and classify them in a single pool
  /// dispatch over the batched model kernels. Returns an empty vector
  /// when no model is trained.
  std::vector<Label> predict_batch(std::span<const JobRecord> jobs) const;

  /// Inference Workflow for all jobs submitted in [start, end).
  InferenceReport predict_range(TimePoint start, TimePoint end) const;

  /// Stand-alone characterization of an executed job (paper §VI:
  /// MCBound as an analysis tool).
  std::optional<Boundedness> characterize_job(const JobRecord& job) const {
    return characterizer_.characterize(job);
  }
  std::optional<JobMetrics> job_metrics(const JobRecord& job) const {
    return characterizer_.compute_metrics(job);
  }

 private:
  ClassificationModel make_model() const;
  void publish(ClassificationModel model, std::optional<std::uint32_t> version);

  FrameworkConfig config_;
  const JobStore* store_;
  StoreDataFetcher fetcher_;
  Characterizer characterizer_;
  FeatureEncoder encoder_;
  mutable ShardedEmbeddingCache cache_;  // internally synchronized
  ModelRegistry registry_;
  ThreadPool* pool_;
  Mutex train_mutex_;  ///< serializes train_now / load_latest_model
  /// Held only to copy or swap the pointer, never across a predict or a
  /// train. (libstdc++ 12's std::atomic<std::shared_ptr> releases its
  /// internal lock with a relaxed RMW, which ThreadSanitizer reports as a
  /// race between load and store.)
  mutable Mutex snapshot_mutex_;
  std::shared_ptr<const ModelSnapshot> snapshot_ MCB_GUARDED_BY(snapshot_mutex_);
};

}  // namespace mcb
