#include "core/mcbound.hpp"

#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace mcb {

Framework::Framework(FrameworkConfig config, const JobStore& store, ThreadPool* pool)
    : config_(std::move(config)),
      store_(&store),
      fetcher_(store),
      characterizer_(config_.machine),
      encoder_(config_.features, config_.encoder),
      cache_(encoder_.dim()),
      registry_(config_.registry_dir),
      pool_(pool) {}

ClassificationModel Framework::make_model() const {
  return ClassificationModel(config_.model, config_.knn, config_.forest);
}

void Framework::publish(ClassificationModel model, std::optional<std::uint32_t> version) {
  auto next = std::make_shared<const ModelSnapshot>(ModelSnapshot{std::move(model), version});
  MutexLock lock(snapshot_mutex_);
  snapshot_.swap(next);
  // `next` now holds the previous snapshot; it is released after the
  // lock, by the last in-flight request still using it.
}

TrainingReport Framework::train_now(TimePoint now) {
  MutexLock lock(train_mutex_);
  const TimePoint window_start =
      now - static_cast<std::int64_t>(config_.alpha_days) * kSecondsPerDay;
  const TrainingWorkflow workflow(fetcher_, characterizer_, encoder_, &cache_, pool_);
  ClassificationModel candidate = make_model();
  TrainingReport report = workflow.run(candidate, window_start, now, config_.theta);
  if (candidate.is_trained()) {
    report.version = registry_.save(candidate, model_name());
    publish(std::move(candidate), report.version);
  }
  return report;
}

bool Framework::load_latest_model() {
  MutexLock lock(train_mutex_);
  const std::vector<std::uint32_t> versions = registry_.versions(model_name());
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    auto loaded = registry_.load(config_.model, model_name(), *it);
    if (loaded.has_value() && loaded->is_trained()) {
      publish(std::move(*loaded), *it);
      return true;
    }
    log::warn("core", "model version does not load; trying the previous one",
              {log::Field("path", registry_.path_for(model_name(), *it))});
  }
  return false;
}

std::optional<Boundedness> Framework::predict_job(const JobRecord& job) const {
  const std::vector<Label> labels = predict_batch({&job, 1});
  if (labels.empty()) return std::nullopt;
  return to_boundedness(labels.front());
}

std::vector<Label> Framework::predict_batch(std::span<const JobRecord> jobs) const {
  const auto snap = snapshot();
  if (snap == nullptr || jobs.empty()) return {};
  // encode_batch opens its own kCacheLookup/kEncode spans.
  const FeatureMatrix x = encoder_.encode_batch(jobs, &cache_, pool_);
  obs::Span classify_span(obs::Stage::kClassify);
  return snap->model.inference(x.view(), pool_);
}

InferenceReport Framework::predict_range(TimePoint start, TimePoint end) const {
  const auto snap = snapshot();
  if (snap == nullptr) return {};
  const InferenceWorkflow workflow(fetcher_, encoder_, &cache_, pool_);
  return workflow.run(snap->model, start, end);
}

}  // namespace mcb
