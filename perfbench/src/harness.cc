#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "common/rng.h"
#include "profile/profiler.h"

namespace perfbench {

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& label) {
  // FNV-1a over the label, mixed with the run seed through splitmix64.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : label) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (h | 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

lowino::Tensor<float> random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  lowino::Tensor<float> t(std::move(shape));
  lowino::Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(-1.0f, 1.0f);
  return t;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::ceil(q * static_cast<double>(v.size())) - 1.0;
  const auto idx = static_cast<std::size_t>(std::clamp(pos, 0.0, v.size() - 1.0));
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quantile tail(std::vector<double> v, double cap) {
  Quantile t;
  t.n = v.size();
  if (t.n < 20) {
    t.q = 0.5;
    t.value = median(std::move(v));
    return t;
  }
  t.q = std::min(cap, 1.0 - 10.0 / static_cast<double>(t.n));
  t.value = quantile(std::move(v), t.q);
  return t;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double snr_db(const float* ref, const float* actual, std::size_t n) {
  double signal = 0.0, noise = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(actual[i]) - static_cast<double>(ref[i]);
    signal += static_cast<double>(ref[i]) * static_cast<double>(ref[i]);
    noise += d * d;
  }
  if (!std::isfinite(noise)) return -std::numeric_limits<double>::infinity();
  if (noise == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(signal / noise);
}

namespace {

thread_local std::vector<std::int64_t> t_open_spans;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

std::int64_t Tracer::open(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  s.request = request;
  s.thread = thread_number();
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(s);
  }
  t_open_spans.push_back(index);
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].start_ns = start;
  return index;
}

void Tracer::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  if (!t_open_spans.empty() && t_open_spans.back() == index) t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

namespace {

void write_json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (c == '\n') {
      std::fputs("\\n", f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

}  // namespace

bool Tracer::write(const std::string& path, const std::vector<std::string>& notes) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.thread, 1e-3 * static_cast<double>(s.start_ns - t0),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n],\"notes\":[", f);
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i != 0) std::fputc(',', f);
    write_json_string(f, notes[i]);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

void TraceSession::enable(bool on) {
  enabled_ = on;
  lowino::profiler_set_enabled(on);
}

}  // namespace perfbench
