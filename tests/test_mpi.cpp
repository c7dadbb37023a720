// Tests for the simulated MPI layer over the cluster model.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "machine/cluster.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"

namespace sim = pcd::sim;
using pcd::machine::Cluster;
using pcd::machine::ClusterConfig;
using pcd::mpi::Comm;
using pcd::mpi::CostParams;

namespace {

ClusterConfig small_cluster(int nodes) {
  ClusterConfig c;
  c.nodes = nodes;
  c.network.collision_coeff = 0.0;  // deterministic timing in unit tests
  c.node.cpu.transition_min = c.node.cpu.transition_max = sim::from_micros(20);
  return c;
}

struct MpiFixture {
  sim::Engine engine;
  Cluster cluster;
  Comm comm;
  explicit MpiFixture(int ranks, CostParams costs = {})
      : cluster(engine, small_cluster(ranks)), comm(cluster, iota(ranks), costs) {}

  static std::vector<int> iota(int n) {
    std::vector<int> v(n);
    std::iota(v.begin(), v.end(), 0);
    return v;
  }
};

}  // namespace

TEST(Mpi, BlockingSendRecvDeliversBytes) {
  MpiFixture f(2);
  std::int64_t got = 0;
  auto sender = [&]() -> sim::Process { co_await f.comm.send(0, 1, 5, 4096); };
  auto receiver = [&]() -> sim::Process { got = co_await f.comm.recv(1, 0, 5); };
  sim::spawn(f.engine, sender());
  sim::spawn(f.engine, receiver());
  f.engine.run();
  EXPECT_EQ(got, 4096);
  EXPECT_EQ(f.comm.stats().messages, 1);
  EXPECT_EQ(f.comm.stats().bytes, 4096);
}

TEST(Mpi, MessagesBetweenSamePairAreOrdered) {
  MpiFixture f(2);
  std::vector<std::int64_t> got;
  auto sender = [&]() -> sim::Process {
    co_await f.comm.send(0, 1, 1, 100);
    co_await f.comm.send(0, 1, 1, 200);
    co_await f.comm.send(0, 1, 1, 300);
  };
  auto receiver = [&]() -> sim::Process {
    for (int i = 0; i < 3; ++i) got.push_back(co_await f.comm.recv(1, 0, 1));
  };
  sim::spawn(f.engine, sender());
  sim::spawn(f.engine, receiver());
  f.engine.run();
  EXPECT_EQ(got, (std::vector<std::int64_t>{100, 200, 300}));
}

TEST(Mpi, TagsSelectMessages) {
  MpiFixture f(2);
  std::int64_t got_a = 0, got_b = 0;
  auto sender = [&]() -> sim::Process {
    std::vector<Comm::Request> reqs;
    reqs.push_back(f.comm.isend(0, 1, /*tag=*/7, 111));
    reqs.push_back(f.comm.isend(0, 1, /*tag=*/9, 222));
    co_await f.comm.waitall(0, std::move(reqs));
  };
  auto receiver = [&]() -> sim::Process {
    got_b = co_await f.comm.recv(1, 0, 9);  // out of arrival order
    got_a = co_await f.comm.recv(1, 0, 7);
  };
  sim::spawn(f.engine, sender());
  sim::spawn(f.engine, receiver());
  f.engine.run();
  EXPECT_EQ(got_a, 111);
  EXPECT_EQ(got_b, 222);
}

TEST(Mpi, AnySourceReceivesFromEither) {
  MpiFixture f(3);
  std::int64_t total = 0;
  auto sender = [&](int rank) -> sim::Process { co_await f.comm.send(rank, 2, 1, 50); };
  auto receiver = [&]() -> sim::Process {
    total += co_await f.comm.recv(2, Comm::kAnySource, 1);
    total += co_await f.comm.recv(2, Comm::kAnySource, 1);
  };
  sim::spawn(f.engine, sender(0));
  sim::spawn(f.engine, sender(1));
  sim::spawn(f.engine, receiver());
  f.engine.run();
  EXPECT_EQ(total, 100);
}

TEST(Mpi, EagerSendCompletesWithoutReceiver) {
  CostParams costs;
  costs.eager_limit = 64 * 1024;
  MpiFixture f(2, costs);
  bool sent = false;
  auto sender = [&]() -> sim::Process {
    co_await f.comm.send(0, 1, 1, 1024);  // below eager limit
    sent = true;
  };
  sim::spawn(f.engine, sender());
  f.engine.run();
  EXPECT_TRUE(sent);  // no matching recv ever posted
}

TEST(Mpi, RendezvousSendWaitsForReceivePosting) {
  CostParams costs;
  costs.eager_limit = 1024;
  MpiFixture f(2, costs);
  sim::SimTime sent_at = 0, recv_posted_at = 0;
  auto sender = [&]() -> sim::Process {
    co_await f.comm.send(0, 1, 1, 1'000'000);  // rendezvous
    sent_at = f.engine.now();
  };
  auto receiver = [&]() -> sim::Process {
    co_await sim::delay(2 * sim::kSecond);  // receiver is late
    recv_posted_at = f.engine.now();
    co_await f.comm.recv(1, 0, 1);
  };
  sim::spawn(f.engine, sender());
  sim::spawn(f.engine, receiver());
  f.engine.run();
  EXPECT_GE(sent_at, recv_posted_at);
  EXPECT_GE(sent_at, 2 * sim::kSecond);
}

TEST(Mpi, UnmatchedRecvNeverCompletes) {
  MpiFixture f(2);
  auto req = f.comm.irecv(1, 0, 1);
  f.engine.run();
  EXPECT_FALSE(req->done.signaled());
}

TEST(Mpi, WaitallCompletesAllRequests) {
  MpiFixture f(2);
  auto sender = [&]() -> sim::Process {
    std::vector<Comm::Request> reqs;
    for (int i = 0; i < 4; ++i) reqs.push_back(f.comm.isend(0, 1, i, 2048));
    co_await f.comm.waitall(0, reqs);
    for (const auto& r : reqs) EXPECT_TRUE(r->done.signaled());
  };
  auto receiver = [&]() -> sim::Process {
    for (int i = 0; i < 4; ++i) co_await f.comm.recv(1, 0, i);
  };
  sim::spawn(f.engine, sender());
  sim::spawn(f.engine, receiver());
  f.engine.run();
}

TEST(Mpi, CpuIsWaitPollingDuringBlockingRecv) {
  MpiFixture f(2);
  auto receiver = [&]() -> sim::Process { co_await f.comm.recv(1, 0, 1); };
  auto sender = [&]() -> sim::Process {
    co_await sim::delay(sim::kSecond);
    co_await f.comm.send(0, 1, 1, 100);
  };
  sim::spawn(f.engine, receiver());
  sim::spawn(f.engine, sender());
  pcd::cpu::CpuState seen{};
  f.engine.schedule_at(500 * sim::kMillisecond,
                       [&] { seen = f.cluster.node(1).cpu().state(); });
  f.engine.run();
  EXPECT_EQ(seen, pcd::cpu::CpuState::WaitPoll);
}

// ---- Collectives ------------------------------------------------------------

namespace {

// Runs `body(rank)` on every rank and returns per-rank completion times.
template <typename MakeProc>
std::vector<sim::SimTime> run_all(MpiFixture& f, int ranks, MakeProc make) {
  std::vector<sim::SimTime> done(ranks, 0);
  for (int r = 0; r < ranks; ++r) {
    sim::spawn(f.engine, make(r, &done[r]));
  }
  f.engine.run();
  return done;
}

}  // namespace

TEST(Mpi, BarrierSynchronizesAllRanks) {
  MpiFixture f(8);
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await sim::delay(rank * 100 * sim::kMillisecond);  // staggered arrival
    co_await f.comm.barrier(rank);
    *out = f.engine.now();
  };
  auto done = run_all(f, 8, proc);
  // No rank may leave before the last (rank 7) arrives at t = 700 ms.
  for (auto t : done) EXPECT_GE(t, 700 * sim::kMillisecond);
}

TEST(Mpi, BcastDeliversToAllRanks) {
  MpiFixture f(8);
  int received = 0;
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.bcast(rank, /*root=*/3, 100'000);
    ++received;
    *out = f.engine.now();
  };
  run_all(f, 8, proc);
  EXPECT_EQ(received, 8);
  // Binomial tree over 8 ranks: 7 messages.
  EXPECT_EQ(f.comm.stats().messages, 7);
}

TEST(Mpi, ReduceConvergesAtRoot) {
  MpiFixture f(8);
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.reduce(rank, /*root=*/0, 50'000);
    *out = f.engine.now();
  };
  auto done = run_all(f, 8, proc);
  EXPECT_EQ(f.comm.stats().messages, 7);
  // Leaves finish before the root.
  EXPECT_GT(done[0], done[7]);
}

TEST(Mpi, AllreduceCompletesEverywhere) {
  MpiFixture f(8);
  int completed = 0;
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.allreduce(rank, 10'000);
    ++completed;
    *out = f.engine.now();
  };
  run_all(f, 8, proc);
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(f.comm.stats().messages, 14);  // reduce 7 + bcast 7
}

TEST(Mpi, AlltoallExchangesAllPairs) {
  MpiFixture f(8);
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.alltoall(rank, 10'000);
    *out = f.engine.now();
  };
  run_all(f, 8, proc);
  EXPECT_EQ(f.comm.stats().messages, 8 * 7);
  EXPECT_EQ(f.comm.stats().bytes, 8 * 7 * 10'000);
}

TEST(Mpi, AlltoallvRespectsPerDestinationSizes) {
  MpiFixture f(4);
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    std::vector<std::int64_t> sizes(4, 0);
    for (int d = 0; d < 4; ++d) {
      if (d != rank) sizes[d] = 1000 * (rank + 1);
    }
    co_await f.comm.alltoallv(rank, std::move(sizes));
    *out = f.engine.now();
  };
  run_all(f, 4, proc);
  // Total bytes: sum over ranks of 3 * 1000 * (rank+1).
  EXPECT_EQ(f.comm.stats().bytes, 3000 * (1 + 2 + 3 + 4));
}

TEST(Mpi, AlltoallvRejectsWrongSizeVector) {
  MpiFixture f(4);
  EXPECT_THROW(
      {
        auto op = f.comm.alltoallv(0, {1, 2});
        (void)op;
      },
      std::invalid_argument);
}

TEST(Mpi, AllgatherRingMessageCount) {
  MpiFixture f(6);
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.allgather(rank, 5'000);
    *out = f.engine.now();
  };
  run_all(f, 6, proc);
  EXPECT_EQ(f.comm.stats().messages, 6 * 5);  // P*(P-1) ring steps
}

TEST(Mpi, BackToBackCollectivesDoNotCrossTalk) {
  MpiFixture f(4);
  int phase_errors = 0;
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    for (int it = 0; it < 5; ++it) {
      co_await f.comm.barrier(rank);
      co_await f.comm.alltoall(rank, 1000);
      co_await f.comm.allreduce(rank, 500);
    }
    *out = f.engine.now();
  };
  auto done = run_all(f, 4, proc);
  for (auto t : done) {
    if (t == 0) ++phase_errors;
  }
  EXPECT_EQ(phase_errors, 0);
}

TEST(Mpi, NonPowerOfTwoRanks) {
  MpiFixture f(9);  // BT/SP run on 9 nodes in the paper
  int completed = 0;
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.barrier(rank);
    co_await f.comm.alltoall(rank, 1000);
    co_await f.comm.bcast(rank, 0, 1000);
    co_await f.comm.reduce(rank, 0, 1000);
    ++completed;
    *out = f.engine.now();
  };
  run_all(f, 9, proc);
  EXPECT_EQ(completed, 9);
}

TEST(Mpi, SingleRankCollectivesAreNoops) {
  MpiFixture f(1);
  bool done = false;
  auto proc = [&](int rank, sim::SimTime* out) -> sim::Process {
    co_await f.comm.barrier(rank);
    co_await f.comm.alltoall(rank, 1000);
    co_await f.comm.allreduce(rank, 1000);
    done = true;
    *out = f.engine.now();
  };
  run_all(f, 1, proc);
  EXPECT_TRUE(done);
  EXPECT_EQ(f.comm.stats().messages, 0);
}

// ---- Trace integration ------------------------------------------------------

TEST(MpiTrace, BlockingCallsRecordScopes) {
  sim::Engine engine;
  Cluster cluster(engine, small_cluster(2));
  pcd::trace::Tracer tracer(engine, 2);
  Comm comm(cluster, {0, 1}, CostParams{}, &tracer);
  auto sender = [&]() -> sim::Process { co_await comm.send(0, 1, 1, 100'000); };
  auto receiver = [&]() -> sim::Process { co_await comm.recv(1, 0, 1); };
  sim::spawn(engine, sender());
  sim::spawn(engine, receiver());
  engine.run();
  auto profile = pcd::trace::analyze(tracer);
  EXPECT_EQ(profile.ranks[0].at(pcd::trace::Cat::Send).count, 1);
  EXPECT_EQ(profile.ranks[1].at(pcd::trace::Cat::Recv).count, 1);
  EXPECT_GT(profile.ranks[0].at(pcd::trace::Cat::Send).seconds, 0);
  EXPECT_GT(profile.ranks[1].at(pcd::trace::Cat::Recv).seconds, 0);
}

TEST(MpiTrace, CollectiveSuppressesNestedP2p) {
  sim::Engine engine;
  Cluster cluster(engine, small_cluster(4));
  pcd::trace::Tracer tracer(engine, 4);
  Comm comm(cluster, {0, 1, 2, 3}, CostParams{}, &tracer);
  auto proc = [&](int rank) -> sim::Process { co_await comm.alltoall(rank, 10'000); };
  for (int r = 0; r < 4; ++r) sim::spawn(engine, proc(r));
  engine.run();
  auto profile = pcd::trace::analyze(tracer);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(profile.ranks[r].at(pcd::trace::Cat::Collective).count, 1);
    EXPECT_EQ(profile.ranks[r].at(pcd::trace::Cat::Wait).count, 0);  // nested waits suppressed
  }
}
