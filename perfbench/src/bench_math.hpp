// The benchmark's own arithmetic, kept apart from perfbench_driver so that
// perfbench_selftest can check it: the tail-percentile rule, span self
// time, the open-loop schedule and the residual a replay leaves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// A tail percentile as reported: the value, the percentile it really is
/// and the sample count it came from.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t count = 0;
};

/// The highest percentile <= `wanted` that leaves at least ten samples
/// beyond it, never below the median. With n samples that is
/// min(wanted, 100 * (n - 10) / n): mcb::percentile then interpolates
/// between the sorted samples n - 11 and n - 10 (0-based), so the last
/// ten lie beyond it.
double supported_percentile(std::size_t n, double wanted);

/// `supported_percentile` applied to a sample.
Tail tail(const std::vector<double>& samples, double wanted);

/// One timed interval. Spans of one request share `request`; `parent`
/// is the index of the enclosing span in the same recorder, or -1 for
/// the request's root.
struct Span {
  std::uint64_t request = 0;
  std::int64_t parent = -1;
  std::uint32_t layer = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span store, written out once at the end of a run.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::vector<std::string> layer_names)
      : names_(std::move(layer_names)) {}

  /// Append a finished span and return its index.
  std::size_t add(std::uint64_t request, std::int64_t parent, std::uint32_t layer,
                  std::uint64_t start_ns, std::uint64_t end_ns);
  /// Open a span now; close it with end().
  std::size_t begin(std::uint64_t request, std::int64_t parent, std::uint32_t layer);
  void end(std::size_t index);

  /// Self time per layer, in ns: each span's duration minus the part of
  /// its interval that its direct children cover (overlapping children
  /// are counted once, parts outside the parent not at all). A filter,
  /// when given, keeps only the spans of the requests it accepts.
  std::vector<double> self_ns_by_layer(
      const std::function<bool(std::uint64_t request)>& keep = {}) const;

  /// One JSON object per line: request, span, parent, layer, start_ns,
  /// end_ns. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Monotonic nanoseconds (steady clock).
std::uint64_t now_ns();

/// Open-loop arrival schedule: request i is due at start + i / rate.
struct Schedule {
  std::uint64_t start_ns = 0;
  double rate_per_s = 1.0;

  std::uint64_t due_ns(std::uint64_t i) const;
};

/// Open-loop timing of one request. Latency runs from when it was due,
/// so a stall also counts against the requests queued behind it. The
/// generator is late by how long after max(due, a connection was free)
/// it actually sent: waiting for a busy server is the server's time,
/// not the generator's.
struct OpenLoopTiming {
  std::uint64_t due_ns = 0;
  std::uint64_t conn_free_ns = 0;  ///< when a connection was first free for it
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;

  double latency_ms() const;
  double generator_late_ms() const;
};

/// What a replay leaves unexplained: the live mean minus the summed
/// per-request means of the replayed layers (reactor, socket I/O, pool
/// hand-off and lock waits). The fraction is over the live mean.
struct Residual {
  double us = 0.0;
  double fraction = 0.0;
};
Residual residual(double live_mean_us, const std::vector<double>& layer_us_per_request);

}  // namespace perfbench
