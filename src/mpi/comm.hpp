// Simulated MPI on top of the cluster model (MPICH-1.2.5-like semantics).
//
// Rank processes are coroutines; every call returns a lazy sim::Op awaited
// by the rank.  Costs charged per message:
//   - protocol processing on the CPU (per-message + per-KB cycles, scales
//     with 1/f — the part of communication that *is* frequency-sensitive),
//   - wire time through the network model (frequency-insensitive),
//   - blocked time inside MPI_Wait, spent in the CPU's WaitPoll state
//     (partly-runnable progress engine; see cpu::CpuConfig).
// Large messages use rendezvous (sender stalls until the receive is
// posted); small messages are eager.
//
// Collectives are implemented over point-to-point exactly like MPICH-1:
// dissemination barrier, binomial bcast/reduce, reduce+bcast allreduce,
// pairwise-exchange alltoall/alltoallv, ring allgather.  Each rank must
// call collectives in the same order (SPMD), which the tag sequencing
// relies on.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/cluster.hpp"
#include "sim/op.hpp"
#include "sim/provenance.hpp"
#include "sim/process.hpp"
#include "trace/tracer.hpp"

namespace pcd::mpi {

struct CostParams {
  double per_msg_cycles = 20000;          // stack traversal per send/recv
  double per_kb_cycles = 600;             // copy/checksum per KB, each side
  std::int64_t eager_limit = 64 * 1024;   // rendezvous above this
};

struct CommStats {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
};

/// One communicator over a set of cluster nodes.  All ranks share the
/// cluster's engine, and envelope matching is a direct mailbox rendezvous
/// between sender and receiver coroutines.  The blocking wrappers and every
/// collective are composed over isend/irecv.
class Comm {
 public:
  struct RequestState {
    explicit RequestState(sim::Engine& e) : done(e) {}
    sim::Event done;
    std::int64_t bytes = 0;
  };
  using Request = std::shared_ptr<RequestState>;

  static constexpr int kAnySource = -1;
  static constexpr int kAnyTag = -1;

  /// Creates a communicator over `ranks` nodes of the cluster; rank r runs
  /// on cluster node `node_ids[r]`.
  Comm(machine::Cluster& cluster, std::vector<int> node_ids, CostParams costs = {},
       trace::Tracer* tracer = nullptr);
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int size() const { return static_cast<int>(node_ids_.size()); }
  /// The machine node rank `rank` runs on.
  machine::Node& node(int rank) { return cluster_.node(node_ids_.at(rank)); }
  machine::Cluster& cluster() { return cluster_; }
  CommStats stats() const { return stats_; }
  trace::Tracer* tracer() { return tracer_; }

  /// Determinism observability: while set, every envelope match folds one
  /// record (t, src, dst, tag, bytes) into the stream at the instant the
  /// send meets its receive — the communication-order digest compared by
  /// tools/pcd_diff.  Null (the default) is zero-cost.
  void set_digest(sim::DigestStream* digest) { digest_ = digest; }

  // ---- point-to-point ----

  /// Nonblocking send: protocol work + wire happen in the background; the
  /// returned request completes at delivery.  Tags must be < 2^20.
  Request isend(int rank, int dst, int tag, std::int64_t bytes);
  /// Nonblocking receive.
  Request irecv(int rank, int src = kAnySource, int tag = kAnyTag);

  // ---- blocking wrappers ----

  /// Blocks (WaitPoll) until the request completes.
  sim::Op<> wait(int rank, Request req);
  sim::Op<> waitall(int rank, std::vector<Request> reqs);
  /// Blocking send / receive.
  sim::Op<> send(int rank, int dst, int tag, std::int64_t bytes);
  sim::Op<std::int64_t> recv(int rank, int src = kAnySource, int tag = kAnyTag);
  /// Combined exchange (posts the receive first, so symmetric sendrecv
  /// pairs of any size cannot deadlock).  Returns received bytes.
  sim::Op<std::int64_t> sendrecv(int rank, int dst, int send_tag,
                                 std::int64_t send_bytes, int src, int recv_tag);

  // ---- collectives (call from every rank, same order) ----

  sim::Op<> barrier(int rank);
  sim::Op<> bcast(int rank, int root, std::int64_t bytes);
  sim::Op<> reduce(int rank, int root, std::int64_t bytes);
  sim::Op<> allreduce(int rank, std::int64_t bytes);
  /// Pairwise exchange; `bytes_per_pair` to each other rank.
  sim::Op<> alltoall(int rank, std::int64_t bytes_per_pair);
  /// Vector variant: `bytes_to[d]` to rank d (bytes_to.size() == size()).
  sim::Op<> alltoallv(int rank, std::vector<std::int64_t> bytes_to);
  /// Burst variant: posts *all* sends and receives at once instead of
  /// pairwise rounds — how MPICH-1's naive alltoallv behaves, and the
  /// traffic shape behind IS's collision-driven anomaly (§5.2).
  sim::Op<> alltoallv_burst(int rank, std::vector<std::int64_t> bytes_to);
  sim::Op<> allgather(int rank, std::int64_t bytes);
  /// Root sends a distinct `bytes` block to every rank (linear, MPICH-1).
  sim::Op<> scatter(int rank, int root, std::int64_t bytes);
  /// Every rank sends `bytes` to the root (linear).
  sim::Op<> gather(int rank, int root, std::int64_t bytes);
  /// Reduce + scatter of the result (`bytes` per rank).
  sim::Op<> reduce_scatter(int rank, std::int64_t bytes_per_rank);

 private:
  struct SendMsg {
    explicit SendMsg(sim::Engine& e) : recv_posted(e), delivered(e) {}
    int src = 0;
    int tag = 0;
    std::int64_t bytes = 0;
    std::int64_t log_seq = -1;  // index into the tracer's message log
    sim::Event recv_posted;
    sim::Event delivered;
  };
  struct RecvPost {
    explicit RecvPost(sim::Engine& e) : matched(e) {}
    int src = kAnySource;
    int tag = kAnyTag;
    std::shared_ptr<SendMsg> msg;
    sim::Event matched;
  };
  struct Mailbox {
    std::vector<std::shared_ptr<SendMsg>> sends;   // announced, unmatched
    std::vector<std::shared_ptr<RecvPost>> recvs;  // posted, unmatched
  };

  sim::Process send_proc(int rank, int dst, int tag, std::int64_t bytes, Request req);
  sim::Process recv_proc(int rank, int src, int tag, Request req);
  void note_match(int src, int dst, int tag, std::int64_t bytes);

  /// Wait without opening a trace scope (collective internals).
  sim::Op<> wait_inner(int rank, const Request& req);

  double protocol_cycles(std::int64_t bytes) const;
  double speed_ratio(int rank);
  /// Per-rank collective sequence numbers (tag disambiguation).
  int next_coll_seq(int rank) { return coll_seq_.at(rank)++; }

  // Collective bodies, parameterized by the per-call sequence number.
  sim::Op<> barrier_body(int rank, int seq);
  sim::Op<> bcast_body(int rank, int root, std::int64_t bytes, int seq);
  sim::Op<> reduce_body(int rank, int root, std::int64_t bytes, int seq);
  sim::Op<> alltoallv_body(int rank, std::vector<std::int64_t> bytes_to, bool burst);

  machine::Cluster& cluster_;
  sim::Engine& engine_;
  std::vector<int> node_ids_;
  CostParams costs_;
  trace::Tracer* tracer_;
  CommStats stats_;
  sim::DigestStream* digest_ = nullptr;
  std::vector<Mailbox> mailboxes_;  // indexed by destination rank
  std::vector<int> coll_seq_;
};

}  // namespace pcd::mpi
