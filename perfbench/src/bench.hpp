// Shared pieces of the benchmark program: the clock, the median,
// the span recorder used by traced runs, and the result a workload
// returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median (mean of the middle two for an even count). `values` must
/// be non-empty.
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// In-memory span recorder for traced runs. A span times one call into
/// a layer's public function, made by the benchmark itself; spans of
/// one operation share its index, and nested spans name their parent.
/// Nothing is recorded inside fedshare.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    int parent = -1;  ///< index of the enclosing span, -1 at the root
    double start_ms = 0.0;  ///< since the tracer was made
    double end_ms = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far, in ms.
    [[nodiscard]] double elapsed_ms() const;

   private:
    Tracer& tracer_;
    int index_;
    int saved_parent_;
    Clock::time_point start_;
  };

  [[nodiscard]] Scope span(const char* name, std::uint64_t op) {
    return Scope(*this, name, op);
  }

  /// Per name, the total time the spans of that name took in each
  /// operation that has one, in ms.
  [[nodiscard]] std::map<std::string, std::vector<double>> per_op_ms() const;

  /// Writes every span as one JSON object per line. Returns false when
  /// the file cannot be written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Report workloads: reports checked in full, and how many of them
  /// had a non-empty core, so that the nucleolus-in-core check ran.
  std::uint64_t reports_checked = 0;
  std::uint64_t core_nonempty = 0;
  std::vector<Metric> metrics;
  /// First few check failures, for stderr.
  std::vector<std::string> errors;

  void fail_check(const std::string& what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Run parameters shared by the workloads.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  /// Scratch directory inside the checkout (durable log, span file).
  std::string work_dir;
};

/// Where a traced run writes its spans.
[[nodiscard]] inline std::string spans_path(const RunConfig& config) {
  return config.work_dir + "/spans-" + config.workload + "-" +
         std::to_string(config.seed) + ".jsonl";
}

/// End-to-end metrics from the per-operation latencies of the timed
/// loop (ms) and the set-up times (s). Throws when no operation
/// completed.
void add_end_to_end(RunResult& result, const std::vector<double>& setup_s,
                    const std::vector<double>& latency_ms);

/// Per-layer time metric: median over operations of the per-operation
/// total of the named spans; 0 when the workload's path has no such
/// span.
void add_span_metric(
    RunResult& result,
    const std::map<std::string, std::vector<double>>& per_op_ms,
    const std::string& span, const std::string& metric);

/// Traced runs interleave untraced operations; the difference of the
/// two latency medians is the tracing overhead.
void add_overhead(RunResult& result, const std::vector<double>& traced_ms,
                  const std::vector<double>& untraced_ms);

RunResult run_report_hetero(const RunConfig& config);
RunResult run_report_typed(const RunConfig& config);
RunResult run_serve_churn(const RunConfig& config);

}  // namespace perfbench
