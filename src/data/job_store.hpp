// JobStore — the "jobs data storage" substrate.
//
// On Fugaku the operations software records every job in a relational
// database; MCBound's Data Fetcher issues time-range SQL queries against
// it. Here the store is an embeddable in-memory table with:
//   * O(1) lookup by job id,
//   * O(log n + k) range scans over end_time (jobs *executed* in a
//     window — what the Training Workflow fetches) and over submit_time
//     (what the Inference Workflow fetches),
//   * CSV persistence (our stand-in for the F-DATA export).
//
// Records are kept sorted by end_time; insertion is amortized append
// (the workload generator emits jobs roughly in completion order) with a
// lazy re-sort when out-of-order inserts accumulate.
//
// Concurrency: the store is internally synchronized by a reader/writer
// SharedMutex — the serving layer reads it from HTTP handlers while
// ingest code appends (paper §III: the online framework's Data Fetcher
// and Inference Workflow run concurrently). Reads take a shared hold
// when the lazy indexes are fresh and upgrade to exclusive only to
// rebuild them. Two kinds of read API:
//   * copying (find_record, query_records, size, min/max_end_time):
//     safe under concurrent insert — results are materialized under the
//     lock.
//   * borrowing (find, query, all): return pointers/spans into the
//     table; insert invalidates them, so they are for single-writer
//     phases (analysis passes, tests) — not for concurrent use.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/job_record.hpp"
#include "util/sync.hpp"
#include "util/time.hpp"

namespace mcb {

/// Declarative range query; `to_sql()` renders the equivalent SQL the
/// Fugaku deployment would issue (used for logging and tested for
/// fidelity with the paper's description of the Data Fetcher).
struct JobQuery {
  enum class TimeField { kEndTime, kSubmitTime };

  TimeField field = TimeField::kEndTime;
  TimePoint start_time = 0;                 ///< inclusive
  TimePoint end_time = 0;                   ///< exclusive
  std::optional<std::string> user_name;     ///< optional equality filter
  std::optional<FrequencyMode> frequency;   ///< optional equality filter

  std::string to_sql() const;
};

class JobStore {
 public:
  JobStore() = default;

  /// Move is a construction-time hand-off (workload builders return
  /// stores by value); the source must not be in concurrent use. Each
  /// store keeps its own mutex — only the data moves.
  JobStore(JobStore&& other) noexcept;
  JobStore(const JobStore&) = delete;
  JobStore& operator=(const JobStore&) = delete;
  JobStore& operator=(JobStore&&) = delete;

  /// Insert one record. Duplicate job ids are rejected (returns false).
  bool insert(JobRecord job) MCB_EXCLUDES(mutex_);

  /// Bulk insert; returns the number of records actually inserted.
  std::size_t insert_all(std::vector<JobRecord> jobs) MCB_EXCLUDES(mutex_);

  std::size_t size() const MCB_EXCLUDES(mutex_);
  bool empty() const MCB_EXCLUDES(mutex_);

  /// Lookup by id; nullptr if absent. Pointers are invalidated by insert
  /// (single-writer phases only — concurrent readers use find_record).
  const JobRecord* find(std::uint64_t job_id) const MCB_EXCLUDES(mutex_);

  /// Copying lookup, safe while other threads insert.
  std::optional<JobRecord> find_record(std::uint64_t job_id) const
      MCB_EXCLUDES(mutex_);

  /// Execute a range query; results ordered by the queried time field.
  /// Borrowing variant — see find() for the invalidation caveat.
  std::vector<const JobRecord*> query(const JobQuery& q) const MCB_EXCLUDES(mutex_);

  /// Copying range query, safe while other threads insert: matching
  /// records are materialized under the store lock.
  std::vector<JobRecord> query_records(const JobQuery& q) const MCB_EXCLUDES(mutex_);

  /// All records ordered by end_time (stable view for analysis passes;
  /// invalidated by insert like the other borrowing reads).
  std::span<const JobRecord> all() const MCB_EXCLUDES(mutex_);

  /// Earliest / latest end_time in the store (0 if empty).
  TimePoint min_end_time() const MCB_EXCLUDES(mutex_);
  TimePoint max_end_time() const MCB_EXCLUDES(mutex_);

  /// CSV persistence. save() writes header + one row per record;
  /// load() replaces the store contents. Both return false on I/O or
  /// parse failure (load leaves a partially-filled store on failure).
  /// Malformed input (truncated rows, non-numeric fields, duplicate job
  /// ids, mismatched header) is always reported through `error` with the
  /// offending data row — never an abort or exception.
  bool save_csv(const std::string& path) const MCB_EXCLUDES(mutex_);
  bool load_csv(const std::string& path, std::string* error = nullptr)
      MCB_EXCLUDES(mutex_);
  /// Stream variant of load_csv (used directly by the fuzz harness).
  bool load_csv(std::istream& in, std::string* error = nullptr) MCB_EXCLUDES(mutex_);

 private:
  bool insert_locked(JobRecord job) MCB_REQUIRES(mutex_);
  void ensure_sorted_locked() const MCB_REQUIRES(mutex_);
  void ensure_submit_index_locked() const MCB_REQUIRES(mutex_);
  bool sorted_ready_locked() const MCB_REQUIRES_SHARED(mutex_);
  bool query_ready_locked(JobQuery::TimeField field) const
      MCB_REQUIRES_SHARED(mutex_);
  const JobRecord* find_locked(std::uint64_t job_id) const
      MCB_REQUIRES_SHARED(mutex_);
  std::vector<const JobRecord*> query_locked(const JobQuery& q) const
      MCB_REQUIRES_SHARED(mutex_);

  mutable SharedMutex mutex_;
  mutable std::vector<JobRecord> jobs_
      MCB_GUARDED_BY(mutex_);  // sorted by (end_time, job_id)
  mutable bool sorted_ MCB_GUARDED_BY(mutex_) = true;
  mutable std::vector<std::uint32_t> by_submit_
      MCB_GUARDED_BY(mutex_);  // indices sorted by submit_time
  mutable bool submit_index_valid_ MCB_GUARDED_BY(mutex_) = false;
  mutable std::unordered_map<std::uint64_t, std::uint32_t> id_index_
      MCB_GUARDED_BY(mutex_);  // id -> slot; exact after every insert and sort
};

}  // namespace mcb
