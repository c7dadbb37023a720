// service_replay: a long-lived in-process CampaignService behind its
// AF_UNIX SocketServer, with a persistent ResultCache in a fresh temporary
// directory.  Four clients, each on its own connection and thread, send
// closed loops of seeded submissions in blocks of four: the first of each
// block carries a fresh seed (48 cells to run and append to the cache), the
// other three re-submit one of the client's earlier requests (48 cache
// reads), so reads run beside other clients' writes.  Every fresh request
// covers all eight NPB codes, so misses cost about the same and the latency
// percentiles do not depend on which codes a request happened to draw.
//
// Why four clients and not one: on a shared VM a single busy thread runs
// as fast as the one vCPU it sits on, and that vCPU's speed changes from
// minute to minute; one client made wall_s and op_p90_ms spread by 0.3 to
// 0.45 (IQR/median) over ten runs.  Four busy threads average over the
// vCPUs, as paper_sweep's pool does.
//
// The replay serves a fixed number of iterations per second of the run
// length, so the request mix and the cache's final size do not depend on how
// fast the service answers.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>

#include "bench.hpp"
#include "campaign/runner.hpp"
#include "service/json.hpp"
#include "service/request.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace perfbench {

// ---- harness ---------------------------------------------------------------

struct ServiceHarness::Impl {
  std::unique_ptr<pcd::service::CampaignService> service;
  std::unique_ptr<pcd::service::SocketServer> server;
  struct Connection {
    int fd = -1;
    std::string pending;  // bytes received past the last complete line
  };
  std::vector<Connection> conns;
};

ServiceHarness::ServiceHarness(const std::string& work_dir, int clients)
    : impl_(std::make_unique<Impl>()), dir_(make_temp_dir(work_dir, "service-")) {
  using namespace pcd::service;
  ServiceOptions so;
  // One worker per client, one campaign thread per request: each client
  // has one request in flight, and a miss runs its cells serially.
  so.workers = clients;
  so.campaign_threads = 1;
  so.cache_dir = dir_ + "/cache";
  // Appends reach the log but are not fsync'd: on a shared disk the fsync
  // wait follows other tenants' I/O and moved wall_s by up to a quarter
  // between runs whose CPU time agreed within 5 %.  The fsync'd insert is
  // measured on its own by the traced run's service.cache_insert_us.
  so.cache_sync = false;
  impl_->service = std::make_unique<CampaignService>(so);
  // A path relative to the working directory keeps sun_path short.
  const std::string sock = dir_ + "/s.sock";
  impl_->server = std::make_unique<SocketServer>(*impl_->service, sock);
  std::string err;
  if (!impl_->server->start(&err)) {
    std::fprintf(stderr, "service: %s\n", err.c_str());
    return;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock.c_str(), std::min(sock.size() + 1, sizeof addr.sun_path));
  impl_->conns.resize(static_cast<std::size_t>(clients));
  for (Impl::Connection& c : impl_->conns) {
    c.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (c.fd >= 0 && ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      std::fprintf(stderr, "connect %s: %s\n", sock.c_str(), std::strerror(errno));
      ::close(c.fd);
      c.fd = -1;
    }
  }
}

ServiceHarness::~ServiceHarness() {
  for (const Impl::Connection& c : impl_->conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  impl_->server->stop();
  impl_->service->drain();
  impl_->server.reset();
  impl_->service.reset();
  remove_tree(dir_);
}

std::string ServiceHarness::call(int client, const std::string& line) {
  Impl::Connection& conn = impl_->conns.at(static_cast<std::size_t>(client));
  const int fd = conn.fd;
  if (fd < 0) return "";
  const std::string data = line + "\n";
  for (std::size_t off = 0; off < data.size();) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "";
    off += static_cast<std::size_t>(n);
  }
  std::string& buf = conn.pending;
  char chunk[65536];
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      std::string reply = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return reply;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "";
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

// ---- workload --------------------------------------------------------------

namespace {

constexpr int kBlock = 4;  // requests per block: 1 fresh + 3 re-submits
constexpr int kClients = 4;
constexpr int kBlocksPerClient = 2;  // per iteration
constexpr double kIterationsPerSecond = 5;
constexpr double kScale = 0.025;

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

pcd::service::SpecRequest replay_request(std::uint64_t seed, std::size_t id) {
  pcd::service::SpecRequest req;
  req.workloads = {"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"};
  req.scale = kScale;
  // Distinct per fresh request, so every cell of it misses the cache.
  req.seed = seed * 1000003ULL + id;
  req.strategies.push_back({"auto", 0, "v1.2.1"});
  for (int f : {600, 800, 1000, 1200, 1400}) {
    req.strategies.push_back({std::to_string(f), f, ""});
  }
  return req;
}

namespace {

class ServiceReplay final : public Workload {
 public:
  explicit ServiceReplay(const Options& o)
      : opts_(o), clients_(std::min(kClients, std::max(1, o.threads))) {}

  int fixed_iterations(double seconds) const override {
    return static_cast<int>(seconds * kIterationsPerSecond);
  }

  void setup() override {
    harness_ = std::make_unique<ServiceHarness>(opts_.work_dir, clients_);
    rngs_.clear();
    mine_.assign(static_cast<std::size_t>(clients_), {});
    for (int c = 0; c < clients_; ++c) rngs_.push_back(opts_.seed * 7919ULL + c);
    fresh_.clear();
    responses_.clear();
  }

  void iterate(int, Iteration& it) override {
    // The iteration's fresh requests, made before the clients start so
    // they only read fresh_: client c's block b gets id
    // first + c * kBlocksPerClient + b.
    const std::size_t first = fresh_.size();
    for (int k = 0; k < clients_ * kBlocksPerClient; ++k) {
      fresh_.push_back(replay_request(opts_.seed, fresh_.size()));
    }
    std::vector<std::vector<Response>> out(static_cast<std::size_t>(clients_));
    {
      Span s("service", "service.replay");
      std::vector<std::thread> threads;
      for (int c = 0; c < clients_; ++c) {
        threads.emplace_back([this, c, first, &out] {
          client_loop(c, first + static_cast<std::size_t>(c * kBlocksPerClient),
                      out[static_cast<std::size_t>(c)]);
        });
      }
      for (auto& t : threads) t.join();
    }
    for (auto& client : out) {
      for (Response& r : client) {
        it.op_ms.push_back(r.ms);
        it.attempted += 1;
        it.failed += r.status == "ok" ? 0 : 1;
        if (r.fresh) it.runs += static_cast<int>(r.misses > 0 ? r.misses : 0);
        responses_.push_back(std::move(r));
      }
    }
  }

  void verify(Checks& c) override {
    using namespace pcd;
    // Every fresh request, run directly on a serial CampaignRunner; the
    // requests are spread over one thread per available CPU.
    std::vector<std::string> direct(fresh_.size()), errors(fresh_.size());
    fresh_events_.assign(fresh_.size(), 0);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      campaign::CampaignOptions co;
      co.threads = 1;
      for (std::size_t id; (id = next++) < fresh_.size();) {
        try {
          const auto spec = fresh_[id].to_spec(&errors[id]);
          if (!spec) continue;
          const auto res = campaign::CampaignRunner(co).run(*spec);
          char hex[24];
          std::snprintf(hex, sizeof hex, "%016" PRIx64, res.fingerprint());
          direct[id] = hex;
          for (const auto& cell : res.cells) fresh_events_[id] += cell.result.events;
        } catch (const std::exception& e) {
          errors[id] = e.what();
        }
      }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < opts_.threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    for (std::size_t id = 0; id < fresh_.size(); ++id) {
      c.expect(errors[id].empty(), "request " + std::to_string(id) + ": " + errors[id]);
    }
    const int cells = static_cast<int>(kCellsPerRequest);
    int hits = 0;
    for (std::size_t i = 0; i < responses_.size(); ++i) {
      const Response& r = responses_[i];
      const std::string what = "request " + std::to_string(i) + (r.fresh ? " (fresh)" : " (re-submit)");
      c.expect(r.status == "ok", what + " status " + r.status);
      c.expect(r.cell_failures == 0, what + " has failed cells");
      c.expect(r.fingerprint == direct[r.id],
               what + " fingerprint " + r.fingerprint + " != direct run " + direct[r.id]);
      c.expect(r.fresh ? (r.misses == cells && r.hits == 0) : (r.hits == cells && r.misses == 0),
               what + " cache hits/misses " + std::to_string(r.hits) + "/" +
                   std::to_string(r.misses));
      hits += r.fresh ? 0 : 1;
    }
    c.expect(hits * kBlock == static_cast<int>(responses_.size()) * (kBlock - 1),
             "re-submit share is 3/4");
  }

  std::int64_t late_events(int i) const override {
    const std::size_t n = fresh_per_iteration();
    std::int64_t events = 0;
    for (std::size_t id = n * static_cast<std::size_t>(i); id < n * (i + 1u); ++id) {
      events += fresh_events_.at(id);
    }
    return events;
  }

  std::vector<RunJob> first_iteration_jobs() const override {
    std::vector<RunJob> jobs;
    for (std::size_t id = 0; id < fresh_per_iteration(); ++id) {
      std::string err;
      const auto spec = fresh_.at(id).to_spec(&err);
      const auto& entries = spec->workload_entries();
      for (const auto& plan : spec->expand()) {
        jobs.push_back({entries.at(plan.workload).second, plan.config});
      }
    }
    return jobs;
  }

  bool request_latencies(std::vector<double>& hit_ms,
                         std::vector<double>& miss_ms) const override {
    for (const Response& r : responses_) (r.fresh ? miss_ms : hit_ms).push_back(r.ms);
    return true;
  }

  void teardown() override { harness_.reset(); }

 private:
  static constexpr std::size_t kCellsPerRequest = 48;  // 8 codes x 6 settings

  struct Response {
    std::size_t id = 0;
    bool fresh = false;
    double ms = 0;  // round trip, send to reply
    std::string status;
    std::string fingerprint;
    std::int64_t hits = -1, misses = -1, cell_failures = -1;
  };

  std::size_t fresh_per_iteration() const {
    return static_cast<std::size_t>(clients_ * kBlocksPerClient);
  }

  /// Client `c`'s share of an iteration: kBlocksPerClient blocks, each its
  /// fresh request `first + b` followed by three re-submits of the client's
  /// own earlier fresh requests, picked by the client's seeded generator.
  void client_loop(int c, std::size_t first, std::vector<Response>& out) {
    using pcd::service::JsonValue;
    std::vector<std::size_t>& mine = mine_[static_cast<std::size_t>(c)];
    std::uint64_t& rng = rngs_[static_cast<std::size_t>(c)];
    for (int b = 0; b < kBlocksPerClient; ++b) {
      mine.push_back(first + static_cast<std::size_t>(b));
      for (int k = 0; k < kBlock; ++k) {
        Response r;
        r.fresh = k == 0;
        r.id = r.fresh ? mine.back() : mine[splitmix64(rng) % mine.size()];
        JsonValue req = fresh_[r.id].to_json();
        req.set("op", JsonValue::of("submit"));
        const std::string line = req.write();
        const auto t0 = Clock::now();
        const std::string reply = harness_->call(c, line);
        r.ms = seconds_since(t0) * 1e3;
        if (auto v = pcd::service::json_parse(reply)) {
          r.status = v->str_or("status", "");
          r.fingerprint = v->str_or("fingerprint", "");
          r.hits = v->int_or("cache_hits", -1);
          r.misses = v->int_or("cache_misses", -1);
          r.cell_failures = v->int_or("cell_failures", -1);
        }
        out.push_back(std::move(r));
      }
    }
  }

  Options opts_;
  int clients_;
  std::unique_ptr<ServiceHarness> harness_;
  std::vector<std::uint64_t> rngs_;               // per client
  std::vector<std::vector<std::size_t>> mine_;    // per client: its fresh ids
  std::vector<pcd::service::SpecRequest> fresh_;
  std::vector<Response> responses_;
  std::vector<std::int64_t> fresh_events_;
};

}  // namespace

std::unique_ptr<Workload> make_service_replay(const Options& o) {
  return std::make_unique<ServiceReplay>(o);
}

}  // namespace perfbench
