#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t op)
    : tracer_(tracer),
      index_(static_cast<int>(tracer.spans_.size())),
      saved_parent_(tracer.current_),
      start_(Clock::now()) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = tracer.current_;
  span.start_ms = ms_between(tracer.origin_, start_);
  tracer.spans_.push_back(span);
  tracer.current_ = index_;
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ms =
      ms_between(tracer_.origin_, Clock::now());
  tracer_.current_ = saved_parent_;
}

double Tracer::Scope::elapsed_ms() const {
  return ms_between(start_, Clock::now());
}

std::map<std::string, std::vector<double>> Tracer::per_op_ms() const {
  std::map<std::string, std::map<std::uint64_t, double>> totals;
  for (const Span& s : spans_) {
    totals[s.name][s.op] += s.end_ms - s.start_ms;
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [name, by_op] : totals) {
    auto& v = out[name];
    for (const auto& [op, ms] : by_op) v.push_back(ms);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"parent\": %d, \"op\": %llu, \"name\": "
                  "\"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                  i, s.parent, static_cast<unsigned long long>(s.op), s.name,
                  s.start_ms, s.end_ms);
    out << line;
  }
  out.flush();
  return static_cast<bool>(out);
}

void add_end_to_end(RunResult& result, const std::vector<double>& setup_s,
                    const std::vector<double>& latency_ms) {
  if (latency_ms.empty()) throw std::runtime_error("no operation completed");
  double total_ms = 0.0;
  for (const double ms : latency_ms) total_ms += ms;
  result.metrics.push_back({"setup_s", median(setup_s), "s"});
  result.metrics.push_back({"latency_ms.p50", median(latency_ms), "ms"});
  result.metrics.push_back(
      {"throughput_per_s",
       static_cast<double>(latency_ms.size()) / (total_ms / 1000.0), "1/s"});
  result.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

void add_span_metric(
    RunResult& result,
    const std::map<std::string, std::vector<double>>& per_op_ms,
    const std::string& span, const std::string& metric) {
  const auto it = per_op_ms.find(span);
  result.metrics.push_back(
      {metric, it == per_op_ms.end() ? 0.0 : median(it->second), "ms"});
}

void add_overhead(RunResult& result, const std::vector<double>& traced_ms,
                  const std::vector<double>& untraced_ms) {
  result.metrics.push_back(
      {"trace.overhead_ms", median(traced_ms) - median(untraced_ms), "ms"});
}

}  // namespace perfbench
