#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---- spans -----------------------------------------------------------------

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

int SpanLog::open(const char* layer, const char* name) {
  SpanRecord r;
  r.name = name;
  r.layer = layer;
  r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
                   .count();
  r.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(r));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"pcd_perfbench\"}}";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  s.name.c_str(), s.layer.c_str(), static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::vector<SpanLog::LayerTime> SpanLog::layer_times() const {
  std::vector<double> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, LayerTime> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    LayerTime& lt = by_layer[s.layer];
    lt.layer = s.layer;
    lt.calls += 1;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    lt.total_s += dur * 1e-9;
    lt.self_s += (dur - child_ns[i]) * 1e-9;
  }
  std::vector<LayerTime> out;
  for (auto& [layer, lt] : by_layer) out.push_back(lt);
  return out;
}

// ---- checks ----------------------------------------------------------------

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

bool Checks::near(double got, double want, double tol, const std::string& what) {
  char buf[160];
  std::snprintf(buf, sizeof buf, " (got %.17g, want %.17g +- %g)", got, want, tol);
  return expect(std::abs(got - want) <= tol, what + buf);
}

// ---- files -----------------------------------------------------------------

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string make_temp_dir(const std::string& parent, const std::string& prefix) {
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  std::string templ = parent + "/" + prefix + "XXXXXX";
  if (::mkdtemp(templ.data()) == nullptr) {
    std::perror("mkdtemp");
    std::exit(2);
  }
  return templ;
}

}  // namespace perfbench
