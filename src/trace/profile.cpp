#include "trace/profile.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

namespace pcd::trace {

const char* to_string(Cat c) {
  switch (c) {
    case Cat::Compute: return "Compute";
    case Cat::MemStall: return "MemStall";
    case Cat::Send: return "Send";
    case Cat::Recv: return "Recv";
    case Cat::Wait: return "Wait";
    case Cat::Collective: return "Collective";
  }
  return "?";
}

bool is_comm(Cat c) {
  return c == Cat::Send || c == Cat::Recv || c == Cat::Wait || c == Cat::Collective;
}

double TraceProfile::total_comm_s() const {
  double s = 0;
  for (const auto& r : ranks) s += r.comm_s();
  return s;
}

double TraceProfile::total_comp_s() const {
  double s = 0;
  for (const auto& r : ranks) s += r.comp_s();
  return s;
}

double TraceProfile::comm_to_comp() const {
  const double comp = total_comp_s();
  return comp > 0 ? total_comm_s() / comp : 0.0;
}

double TraceProfile::imbalance() const {
  if (ranks.empty()) return 0;
  double sum = 0;
  for (const auto& r : ranks) sum += r.comp_s();
  const double mean = sum / ranks.size();
  if (mean <= 0) return 0;
  double worst = 0;
  for (const auto& r : ranks) {
    worst = std::max(worst, std::abs(r.comp_s() - mean) / mean);
  }
  return worst;
}

TraceProfile analyze(const Tracer& tracer) {
  TraceProfile p;
  p.ranks.resize(tracer.ranks());
  for (int rank = 0; rank < tracer.ranks(); ++rank) {
    RankProfile& rp = p.ranks[rank];
    for (const Record& rec : tracer.records(rank)) {
      const double dur = sim::to_seconds(rec.end - rec.begin);
      CategoryTotals& c = rp.at(rec.cat);
      c.seconds += dur;
      ++c.count;
      c.joules += rec.energy_j;
      c.cpu_joules += rec.cpu_energy_j;
      c.cycles += rec.cycles;
      c.bytes += rec.bytes;
      rp.seconds += dur;
      rp.joules += rec.energy_j;
      rp.cycles += rec.cycles;
    }
  }
  if (tracer.ranks() > 0) {
    const auto& marks = tracer.iteration_marks(0);
    if (marks.size() >= 2) {
      p.iterations = static_cast<int>(marks.size()) - 1;
      p.mean_iteration_s = sim::to_seconds(marks.back() - marks.front()) / p.iterations;
    }
  }
  return p;
}

namespace {

char glyph(Cat c) {
  switch (c) {
    case Cat::Compute: return '#';
    case Cat::MemStall: return 'm';
    case Cat::Send: return 's';
    case Cat::Recv: return 'r';
    case Cat::Wait: return 'w';
    case Cat::Collective: return 'A';
  }
  return '?';
}

}  // namespace

std::string render_timeline(const Tracer& tracer, int width) {
  sim::SimTime t0 = std::numeric_limits<sim::SimTime>::max();
  sim::SimTime t1 = std::numeric_limits<sim::SimTime>::min();
  for (int rank = 0; rank < tracer.ranks(); ++rank) {
    for (const Record& rec : tracer.records(rank)) {
      t0 = std::min(t0, rec.begin);
      t1 = std::max(t1, rec.end);
    }
  }
  if (t0 >= t1) return "(empty trace)\n";

  std::string out;
  const double span = static_cast<double>(t1 - t0);
  for (int rank = 0; rank < tracer.ranks(); ++rank) {
    // Per column, keep the category with the largest time share.
    std::vector<std::array<double, 6>> share(width, std::array<double, 6>{});
    for (const Record& rec : tracer.records(rank)) {
      const double b = (rec.begin - t0) / span * width;
      const double e = (rec.end - t0) / span * width;
      for (int col = std::max(0, static_cast<int>(b));
           col < std::min(width, static_cast<int>(std::ceil(e))); ++col) {
        const double lo = std::max(b, static_cast<double>(col));
        const double hi = std::min(e, static_cast<double>(col + 1));
        if (hi > lo) share[col][static_cast<int>(rec.cat)] += hi - lo;
      }
    }
    char line[16];
    std::snprintf(line, sizeof line, "r%-3d |", rank);
    out += line;
    for (int col = 0; col < width; ++col) {
      int best = -1;
      double best_v = 0;
      for (int c = 0; c < 6; ++c) {
        if (share[col][c] > best_v) { best_v = share[col][c]; best = c; }
      }
      out += best < 0 ? '.' : glyph(static_cast<Cat>(best));
    }
    out += "|\n";
  }
  out += "     legend: #=compute m=memstall s=send r=recv w=wait A=collective .=idle\n";
  return out;
}

std::string render_profile(const TraceProfile& p) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "%-5s %10s %10s %10s %10s %10s %8s %8s %11s %11s %9s\n", "rank",
                "comp(s)", "mem(s)", "send(s)", "recv(s)", "wait(s)", "coll(s)",
                "#msgs", "sent(B)", "recv(B)", "comm/comp");
  out += line;
  for (std::size_t i = 0; i < p.ranks.size(); ++i) {
    const RankProfile& r = p.ranks[i];
    std::snprintf(line, sizeof line,
                  "%-5zu %10.2f %10.2f %10.2f %10.2f %10.2f %8.2f %8d %11lld %11lld %9.2f\n",
                  i, r.at(Cat::Compute).seconds, r.at(Cat::MemStall).seconds,
                  r.at(Cat::Send).seconds, r.at(Cat::Recv).seconds, r.at(Cat::Wait).seconds,
                  r.at(Cat::Collective).seconds, r.at(Cat::Send).count + r.at(Cat::Recv).count,
                  static_cast<long long>(r.at(Cat::Send).bytes),
                  static_cast<long long>(r.at(Cat::Recv).bytes), r.comm_to_comp());
    out += line;
  }
  std::snprintf(line, sizeof line,
                "total comm/comp = %.2f, mean iteration = %.4f s (%d iterations), "
                "imbalance = %.1f%%\n",
                p.comm_to_comp(), p.mean_iteration_s, p.iterations,
                p.imbalance() * 100.0);
  out += line;
  return out;
}

}  // namespace pcd::trace
