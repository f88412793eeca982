#include "bench_math.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <utility>

#include "util/stats.hpp"

namespace perfbench {

double supported_percentile(std::size_t n, double wanted) {
  if (n <= 20) return std::min(wanted, 50.0);
  const double cap = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return std::max(50.0, std::min(wanted, cap));
}

Tail tail(const std::vector<double>& samples, double wanted) {
  Tail out;
  out.count = samples.size();
  out.percentile = supported_percentile(samples.size(), wanted);
  out.value = mcb::percentile(samples, out.percentile);
  return out;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::size_t SpanRecorder::add(std::uint64_t request, std::int64_t parent, std::uint32_t layer,
                              std::uint64_t start_ns, std::uint64_t end_ns) {
  spans_.push_back(Span{request, parent, layer, start_ns, end_ns});
  return spans_.size() - 1;
}

std::size_t SpanRecorder::begin(std::uint64_t request, std::int64_t parent,
                                std::uint32_t layer) {
  const std::uint64_t t = now_ns();
  return add(request, parent, layer, t, t);
}

void SpanRecorder::end(std::size_t index) { spans_[index].end_ns = now_ns(); }

std::vector<double> SpanRecorder::self_ns_by_layer(
    const std::function<bool(std::uint64_t)>& keep) const {
  // Children of each span, clipped to the parent's interval.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(names_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (keep && !keep(s.request)) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;  // end of the union walked so far
    for (const auto& [lo, hi] : kids) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    const std::uint64_t duration = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    if (s.layer < self.size()) self[s.layer] += static_cast<double>(duration - covered);
  }
  return self;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"request\":" << s.request << ",\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"layer\":\"" << (s.layer < names_.size() ? names_[s.layer] : "?")
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

std::uint64_t Schedule::due_ns(std::uint64_t i) const {
  return start_ns + static_cast<std::uint64_t>(std::llround(static_cast<double>(i) * 1e9 /
                                                            rate_per_s));
}

double OpenLoopTiming::latency_ms() const {
  return done_ns > due_ns ? static_cast<double>(done_ns - due_ns) * 1e-6 : 0.0;
}

double OpenLoopTiming::generator_late_ms() const {
  const std::uint64_t ready = std::max(due_ns, conn_free_ns);
  return sent_ns > ready ? static_cast<double>(sent_ns - ready) * 1e-6 : 0.0;
}

Residual residual(double live_mean_us, const std::vector<double>& layer_us_per_request) {
  Residual out;
  double explained = 0.0;
  for (const double us : layer_us_per_request) explained += us;
  out.us = live_mean_us - explained;
  out.fraction = live_mean_us > 0.0 ? out.us / live_mean_us : 0.0;
  return out;
}

}  // namespace perfbench
