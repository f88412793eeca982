#include "data/job_store.hpp"

#include <algorithm>
#include <fstream>

#include "util/csv.hpp"

namespace mcb {

std::string JobQuery::to_sql() const {
  const char* column = field == TimeField::kEndTime ? "end_time" : "submit_time";
  std::string sql = "SELECT * FROM jobs WHERE ";
  sql += column;
  sql += " >= " + std::to_string(start_time);
  sql += " AND ";
  sql += column;
  sql += " < " + std::to_string(end_time);
  if (user_name.has_value()) sql += " AND user_name = '" + *user_name + "'";
  if (frequency.has_value()) {
    sql += " AND freq_mhz = " + std::to_string(frequency_mhz(*frequency));
  }
  sql += " ORDER BY ";
  sql += column;
  return sql;
}

JobStore::JobStore(JobStore&& other) noexcept {
  ExclusiveLock lock(other.mutex_);
  jobs_ = std::move(other.jobs_);
  sorted_ = other.sorted_;
  by_submit_ = std::move(other.by_submit_);
  submit_index_valid_ = other.submit_index_valid_;
  id_index_ = std::move(other.id_index_);
  other.jobs_.clear();
  other.by_submit_.clear();
  other.id_index_.clear();
  other.sorted_ = true;
  other.submit_index_valid_ = false;
}

bool JobStore::insert(JobRecord job) {
  ExclusiveLock lock(mutex_);
  return insert_locked(std::move(job));
}

bool JobStore::insert_locked(JobRecord job) {
  // Appending never moves a slot, so the id index stays exact across
  // out-of-order inserts; only the re-sort in ensure_sorted_locked
  // moves slots, and it rebuilds the index.
  if (!id_index_.emplace(job.job_id, static_cast<std::uint32_t>(jobs_.size())).second) {
    return false;
  }
  if (!jobs_.empty() && sorted_) {
    const JobRecord& last = jobs_.back();
    sorted_ = !(job.end_time < last.end_time ||
                (job.end_time == last.end_time && job.job_id < last.job_id));
  }
  jobs_.push_back(std::move(job));
  submit_index_valid_ = false;
  return true;
}

std::size_t JobStore::insert_all(std::vector<JobRecord> jobs) {
  ExclusiveLock lock(mutex_);
  std::size_t inserted = 0;
  jobs_.reserve(jobs_.size() + jobs.size());
  for (auto& job : jobs) {
    if (insert_locked(std::move(job))) ++inserted;
  }
  return inserted;
}

std::size_t JobStore::size() const {
  SharedLock lock(mutex_);
  return jobs_.size();
}

bool JobStore::empty() const {
  SharedLock lock(mutex_);
  return jobs_.empty();
}

void JobStore::ensure_sorted_locked() const {
  if (sorted_) return;
  std::sort(jobs_.begin(), jobs_.end(), [](const JobRecord& a, const JobRecord& b) {
    return a.end_time != b.end_time ? a.end_time < b.end_time : a.job_id < b.job_id;
  });
  sorted_ = true;
  for (std::uint32_t i = 0; i < jobs_.size(); ++i) id_index_[jobs_[i].job_id] = i;
}

void JobStore::ensure_submit_index_locked() const {
  ensure_sorted_locked();
  if (submit_index_valid_) return;
  by_submit_.resize(jobs_.size());
  for (std::uint32_t i = 0; i < jobs_.size(); ++i) by_submit_[i] = i;
  // Bind the guarded vector to a local under the (held) lock: the
  // analysis cannot see through lambda captures, but a plain reference
  // read here is checked and the comparator stays annotation-free.
  const std::vector<JobRecord>& jobs = jobs_;
  std::sort(by_submit_.begin(), by_submit_.end(),
            [&jobs](std::uint32_t a, std::uint32_t b) {
              return jobs[a].submit_time != jobs[b].submit_time
                         ? jobs[a].submit_time < jobs[b].submit_time
                         : jobs[a].job_id < jobs[b].job_id;
            });
  submit_index_valid_ = true;
}

bool JobStore::sorted_ready_locked() const { return sorted_; }

bool JobStore::query_ready_locked(JobQuery::TimeField field) const {
  return field == JobQuery::TimeField::kEndTime ? sorted_
                                                : sorted_ && submit_index_valid_;
}

const JobRecord* JobStore::find_locked(std::uint64_t job_id) const {
  const auto it = id_index_.find(job_id);
  return it != id_index_.end() ? &jobs_[it->second] : nullptr;
}

const JobRecord* JobStore::find(std::uint64_t job_id) const {
  {
    SharedLock lock(mutex_);
    if (sorted_ready_locked()) return find_locked(job_id);
  }
  ExclusiveLock lock(mutex_);
  ensure_sorted_locked();
  return find_locked(job_id);
}

std::optional<JobRecord> JobStore::find_record(std::uint64_t job_id) const {
  {
    SharedLock lock(mutex_);
    if (sorted_ready_locked()) {
      const JobRecord* job = find_locked(job_id);
      return job != nullptr ? std::optional<JobRecord>(*job) : std::nullopt;
    }
  }
  ExclusiveLock lock(mutex_);
  ensure_sorted_locked();
  const JobRecord* job = find_locked(job_id);
  return job != nullptr ? std::optional<JobRecord>(*job) : std::nullopt;
}

std::vector<const JobRecord*> JobStore::query_locked(const JobQuery& q) const {
  std::vector<const JobRecord*> out;

  const auto matches_filters = [&q](const JobRecord& job) {
    if (q.user_name.has_value() && job.user_name != *q.user_name) return false;
    if (q.frequency.has_value() && job.frequency != *q.frequency) return false;
    return true;
  };

  if (q.field == JobQuery::TimeField::kEndTime) {
    const auto lo = std::lower_bound(jobs_.begin(), jobs_.end(), q.start_time,
                                     [](const JobRecord& j, TimePoint t) { return j.end_time < t; });
    for (auto it = lo; it != jobs_.end() && it->end_time < q.end_time; ++it) {
      if (matches_filters(*it)) out.push_back(&*it);
    }
    return out;
  }

  // submit_time queries go through the secondary index (built by
  // ensure_submit_index_locked before this runs). The comparator reads
  // jobs_ through a local reference bound under the held lock — see
  // ensure_submit_index_locked for why.
  const std::vector<JobRecord>& jobs = jobs_;
  const auto lo = std::lower_bound(
      by_submit_.begin(), by_submit_.end(), q.start_time,
      [&jobs](std::uint32_t idx, TimePoint t) { return jobs[idx].submit_time < t; });
  for (auto it = lo; it != by_submit_.end() && jobs_[*it].submit_time < q.end_time; ++it) {
    if (matches_filters(jobs_[*it])) out.push_back(&jobs_[*it]);
  }
  return out;
}

std::vector<const JobRecord*> JobStore::query(const JobQuery& q) const {
  {
    SharedLock lock(mutex_);
    if (query_ready_locked(q.field)) return query_locked(q);
  }
  ExclusiveLock lock(mutex_);
  if (q.field == JobQuery::TimeField::kSubmitTime) {
    ensure_submit_index_locked();
  } else {
    ensure_sorted_locked();
  }
  return query_locked(q);
}

std::vector<JobRecord> JobStore::query_records(const JobQuery& q) const {
  const auto materialize = [](const std::vector<const JobRecord*>& hits) {
    std::vector<JobRecord> out;
    out.reserve(hits.size());
    for (const JobRecord* job : hits) out.push_back(*job);
    return out;
  };
  {
    SharedLock lock(mutex_);
    if (query_ready_locked(q.field)) return materialize(query_locked(q));
  }
  ExclusiveLock lock(mutex_);
  if (q.field == JobQuery::TimeField::kSubmitTime) {
    ensure_submit_index_locked();
  } else {
    ensure_sorted_locked();
  }
  return materialize(query_locked(q));
}

std::span<const JobRecord> JobStore::all() const {
  {
    SharedLock lock(mutex_);
    if (sorted_ready_locked()) return {jobs_.data(), jobs_.size()};
  }
  ExclusiveLock lock(mutex_);
  ensure_sorted_locked();
  return {jobs_.data(), jobs_.size()};
}

TimePoint JobStore::min_end_time() const {
  {
    SharedLock lock(mutex_);
    if (sorted_ready_locked()) return jobs_.empty() ? 0 : jobs_.front().end_time;
  }
  ExclusiveLock lock(mutex_);
  ensure_sorted_locked();
  return jobs_.empty() ? 0 : jobs_.front().end_time;
}

TimePoint JobStore::max_end_time() const {
  {
    SharedLock lock(mutex_);
    if (sorted_ready_locked()) return jobs_.empty() ? 0 : jobs_.back().end_time;
  }
  ExclusiveLock lock(mutex_);
  ensure_sorted_locked();
  return jobs_.empty() ? 0 : jobs_.back().end_time;
}

bool JobStore::save_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  CsvWriter writer(out);
  writer.write_row(job_csv_header());
  ExclusiveLock lock(mutex_);
  ensure_sorted_locked();
  for (const auto& job : jobs_) writer.write_row(job_to_csv(job));
  return static_cast<bool>(out);
}

bool JobStore::load_csv(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  return load_csv(in, error);
}

bool JobStore::load_csv(std::istream& in, std::string* error) {
  ExclusiveLock lock(mutex_);
  jobs_.clear();
  id_index_.clear();
  sorted_ = true;
  submit_index_valid_ = false;

  CsvReader reader(in);
  std::vector<std::string> fields;
  if (!reader.next_row(fields) || fields != job_csv_header()) {
    if (error != nullptr) *error = "missing or mismatched CSV header";
    return false;
  }
  std::size_t line = 1;
  while (reader.next_row(fields)) {
    ++line;
    JobRecord job;
    if (!job_from_csv(fields, job)) {
      if (error != nullptr) *error = "malformed record at data row " + std::to_string(line);
      return false;
    }
    if (!insert_locked(std::move(job))) {
      if (error != nullptr) *error = "duplicate job id at data row " + std::to_string(line);
      return false;
    }
  }
  return true;
}

}  // namespace mcb
