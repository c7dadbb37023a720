#include "mpi/comm.hpp"

#include <cassert>
#include <memory>

#include "sim/frame_pool.hpp"
#include <optional>
#include <stdexcept>

namespace pcd::mpi {

namespace {

bool envelope_matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == Comm::kAnySource || want_src == src) &&
         (want_tag == Comm::kAnyTag || want_tag == tag);
}

}  // namespace

Comm::Comm(machine::Cluster& cluster, std::vector<int> node_ids, CostParams costs,
           trace::Tracer* tracer)
    : cluster_(cluster),
      engine_(cluster.engine()),
      node_ids_(std::move(node_ids)),
      costs_(costs),
      tracer_(tracer) {
  if (node_ids_.empty()) throw std::invalid_argument("communicator needs >= 1 rank");
  for (int id : node_ids_) {
    if (id < 0 || id >= cluster.size()) {
      throw std::invalid_argument("communicator rank mapped to invalid node");
    }
  }
  mailboxes_.resize(node_ids_.size());
  coll_seq_.assign(node_ids_.size(), 0);
}

void Comm::note_match(int src, int dst, int tag, std::int64_t bytes) {
  if (digest_ == nullptr) return;
  const std::uint64_t rec[5] = {
      static_cast<std::uint64_t>(engine_.now()), static_cast<std::uint64_t>(src),
      static_cast<std::uint64_t>(dst), static_cast<std::uint64_t>(tag),
      static_cast<std::uint64_t>(bytes)};
  digest_->fold_record(rec, 5);
}

double Comm::protocol_cycles(std::int64_t bytes) const {
  return costs_.per_msg_cycles + costs_.per_kb_cycles * (static_cast<double>(bytes) / 1024.0);
}

double Comm::speed_ratio(int rank) {
  auto& cpu = node(rank).cpu();
  return static_cast<double>(cpu.frequency_mhz()) / cpu.table().highest().freq_mhz;
}

// ---- point-to-point --------------------------------------------------------

sim::Process Comm::send_proc(int rank, int dst, int tag, std::int64_t bytes,
                             Request req) {
  // The send's causal anchor is the isend call instant (spawn runs the body
  // up to the first co_await synchronously).
  const std::int64_t log_seq =
      tracer_ != nullptr
          ? tracer_->log_send(rank, dst, tag, bytes)
          : -1;
  auto& cpu = node(rank).cpu();
  co_await cpu.run_commproc_cycles(protocol_cycles(bytes));

  auto msg = std::allocate_shared<SendMsg>(sim::PoolAllocator<SendMsg>{}, engine_);
  msg->src = rank;
  msg->tag = tag;
  msg->bytes = bytes;
  msg->log_seq = log_seq;

  // Announce to the receiver: match a posted receive or queue as unexpected.
  Mailbox& mb = mailboxes_.at(dst);
  bool matched = false;
  for (auto it = mb.recvs.begin(); it != mb.recvs.end(); ++it) {
    if (envelope_matches((*it)->src, (*it)->tag, rank, tag)) {
      auto post = *it;
      mb.recvs.erase(it);
      post->msg = msg;
      post->matched.set();
      msg->recv_posted.set();
      note_match(rank, dst, tag, bytes);
      matched = true;
      break;
    }
  }
  if (!matched) mb.sends.push_back(msg);

  // Rendezvous: large messages stall until the receive is posted.
  if (bytes > costs_.eager_limit) co_await msg->recv_posted.wait();

  co_await cluster_.network().transfer(node_ids_[rank], node_ids_[dst], bytes,
                                       speed_ratio(rank));
  msg->delivered.set();
  if (tracer_ != nullptr) tracer_->log_delivered(log_seq);
  ++stats_.messages;
  stats_.bytes += bytes;
  req->bytes = bytes;
  req->done.set();
}

sim::Process Comm::recv_proc(int rank, int src, int tag, Request req) {
  Mailbox& mb = mailboxes_.at(rank);
  std::shared_ptr<SendMsg> msg;
  for (auto it = mb.sends.begin(); it != mb.sends.end(); ++it) {
    if (envelope_matches(src, tag, (*it)->src, (*it)->tag)) {
      msg = *it;
      mb.sends.erase(it);
      break;
    }
  }
  if (msg) {
    msg->recv_posted.set();
    note_match(msg->src, rank, msg->tag, msg->bytes);
  } else {
    auto post = std::allocate_shared<RecvPost>(sim::PoolAllocator<RecvPost>{}, engine_);
    post->src = src;
    post->tag = tag;
    mb.recvs.push_back(post);
    co_await post->matched.wait();
    msg = post->msg;
  }

  co_await msg->delivered.wait();
  // Receive-side copy / protocol processing.
  co_await node(rank).cpu().run_commproc_cycles(protocol_cycles(msg->bytes));
  if (tracer_ != nullptr) tracer_->log_recv_done(msg->log_seq);
  req->bytes = msg->bytes;
  req->done.set();
}

Comm::Request Comm::isend(int rank, int dst, int tag, std::int64_t bytes) {
  assert(rank >= 0 && rank < size() && dst >= 0 && dst < size());
  auto req = std::allocate_shared<RequestState>(sim::PoolAllocator<RequestState>{}, engine_);
  sim::spawn(engine_, send_proc(rank, dst, tag, bytes, req));
  return req;
}

Comm::Request Comm::irecv(int rank, int src, int tag) {
  assert(rank >= 0 && rank < size());
  auto req = std::allocate_shared<RequestState>(sim::PoolAllocator<RequestState>{}, engine_);
  sim::spawn(engine_, recv_proc(rank, src, tag, req));
  return req;
}

sim::Op<> Comm::wait_inner(int rank, const Request& req) {
  if (!req->done.signaled()) {
    auto ws = node(rank).cpu().wait_scope();
    co_await req->done.wait();
  }
}

sim::Op<> Comm::wait(int rank, Request req) {
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) sc.emplace(tracer_->scope(rank, trace::Cat::Wait, "mpi_wait"));
  co_await wait_inner(rank, req);
}

sim::Op<> Comm::waitall(int rank, std::vector<Request> reqs) {
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) sc.emplace(tracer_->scope(rank, trace::Cat::Wait, "mpi_waitall"));
  for (auto& r : reqs) co_await wait_inner(rank, r);
}

sim::Op<> Comm::send(int rank, int dst, int tag, std::int64_t bytes) {
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Send, "mpi_send", dst, bytes));
  }
  auto req = isend(rank, dst, tag, bytes);
  co_await wait_inner(rank, req);
}

sim::Op<std::int64_t> Comm::recv(int rank, int src, int tag) {
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) sc.emplace(tracer_->scope(rank, trace::Cat::Recv, "mpi_recv", src));
  auto req = irecv(rank, src, tag);
  co_await wait_inner(rank, req);
  if (sc) sc->set_bytes(req->bytes);  // size known only once the send matched
  co_return req->bytes;
}

sim::Op<std::int64_t> Comm::sendrecv(int rank, int dst, int send_tag,
                                     std::int64_t send_bytes, int src, int recv_tag) {
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Send, "mpi_sendrecv", dst, send_bytes));
  }
  auto rr = irecv(rank, src, recv_tag);
  auto sr = isend(rank, dst, send_tag, send_bytes);
  co_await wait_inner(rank, sr);
  co_await wait_inner(rank, rr);
  co_return rr->bytes;
}

// ---- collectives ------------------------------------------------------------

namespace {

int coll_tag(int seq, int round) {
  assert(round < 64);
  return (1 << 20) + (seq % (1 << 10)) * 64 + round;
}

}  // namespace

sim::Op<> Comm::barrier(int rank) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_barrier"));
  co_await barrier_body(rank, seq);
}

sim::Op<> Comm::barrier_body(int rank, int seq) {
  // Dissemination barrier: log2(P) rounds of token exchange.
  const int p = size();
  int round = 0;
  for (int step = 1; step < p; step <<= 1, ++round) {
    const int to = (rank + step) % p;
    const int from = (rank - step + p) % p;
    auto rr = irecv(rank, from, coll_tag(seq, round));
    auto sr = isend(rank, to, coll_tag(seq, round), 8);
    co_await wait_inner(rank, sr);
    co_await wait_inner(rank, rr);
  }
}

sim::Op<> Comm::bcast(int rank, int root, std::int64_t bytes) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_bcast", root, bytes));
  }
  co_await bcast_body(rank, root, bytes, seq);
}

sim::Op<> Comm::bcast_body(int rank, int root, std::int64_t bytes, int seq) {
  // Binomial tree (MPICH-1 style).
  const int p = size();
  const int relative = (rank - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      const int parent = ((relative ^ mask) + root) % p;
      auto rr = irecv(rank, parent, coll_tag(seq, 0));
      co_await wait_inner(rank, rr);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      const int child = ((relative + mask) + root) % p;
      auto sr = isend(rank, child, coll_tag(seq, 0), bytes);
      co_await wait_inner(rank, sr);
    }
    mask >>= 1;
  }
}

sim::Op<> Comm::reduce(int rank, int root, std::int64_t bytes) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_reduce", root, bytes));
  }
  co_await reduce_body(rank, root, bytes, seq);
}

sim::Op<> Comm::reduce_body(int rank, int root, std::int64_t bytes, int seq) {
  // Reverse binomial tree; leaves send first.
  const int p = size();
  const int relative = (rank - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((relative & mask) == 0) {
      const int child_rel = relative | mask;
      if (child_rel < p) {
        auto rr = irecv(rank, (child_rel + root) % p, coll_tag(seq, 1));
        co_await wait_inner(rank, rr);
      }
    } else {
      const int parent = ((relative & ~mask) + root) % p;
      auto sr = isend(rank, parent, coll_tag(seq, 1), bytes);
      co_await wait_inner(rank, sr);
      break;
    }
    mask <<= 1;
  }
}

sim::Op<> Comm::allreduce(int rank, std::int64_t bytes) {
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_allreduce", -1, bytes));
  }
  const int seq1 = next_coll_seq(rank);
  co_await reduce_body(rank, 0, bytes, seq1);
  const int seq2 = next_coll_seq(rank);
  co_await bcast_body(rank, 0, bytes, seq2);
}

sim::Op<> Comm::alltoall(int rank, std::int64_t bytes_per_pair) {
  std::vector<std::int64_t> sizes(size(), bytes_per_pair);
  sizes[rank] = 0;
  co_await alltoallv(rank, std::move(sizes));
}

sim::Op<> Comm::alltoallv(int rank, std::vector<std::int64_t> bytes_to) {
  if (static_cast<int>(bytes_to.size()) != size()) {
    throw std::invalid_argument("alltoallv: bytes_to.size() != communicator size");
  }
  return alltoallv_body(rank, std::move(bytes_to), /*burst=*/false);
}

sim::Op<> Comm::alltoallv_body(int rank, std::vector<std::int64_t> bytes_to,
                               bool burst) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective,
                              burst ? "mpi_alltoallv" : "mpi_alltoall"));
  }
  const int p = size();
  if (burst) {
    // All sends and receives posted at once (naive MPICH-1 alltoallv):
    // maximal overlap, the collision-prone traffic shape of §5.2.
    std::vector<Request> reqs;
    reqs.reserve(2 * (p - 1));
    for (int r = 1; r < p; ++r) {
      const int to = (rank + r) % p;
      const int from = (rank - r + p) % p;
      reqs.push_back(irecv(rank, from, coll_tag(seq, r % 64)));
      reqs.push_back(isend(rank, to, coll_tag(seq, r % 64), bytes_to[to]));
    }
    for (auto& r : reqs) co_await wait_inner(rank, r);
  } else {
    // Pairwise exchange, P-1 rounds (MPICH-1 pairwise algorithm).
    for (int r = 1; r < p; ++r) {
      const int to = (rank + r) % p;
      const int from = (rank - r + p) % p;
      auto rr = irecv(rank, from, coll_tag(seq, r % 64));
      auto sr = isend(rank, to, coll_tag(seq, r % 64), bytes_to[to]);
      co_await wait_inner(rank, sr);
      co_await wait_inner(rank, rr);
    }
  }
}

sim::Op<> Comm::scatter(int rank, int root, std::int64_t bytes) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_scatter", root, bytes));
  }
  // Linear (MPICH-1): the root sends each rank its block.
  if (rank == root) {
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      reqs.push_back(isend(rank, r, coll_tag(seq, 2), bytes));
    }
    for (auto& r : reqs) co_await wait_inner(rank, r);
  } else {
    auto rr = irecv(rank, root, coll_tag(seq, 2));
    co_await wait_inner(rank, rr);
  }
}

sim::Op<> Comm::gather(int rank, int root, std::int64_t bytes) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_gather", root, bytes));
  }
  if (rank == root) {
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      reqs.push_back(irecv(rank, r, coll_tag(seq, 3)));
    }
    for (auto& r : reqs) co_await wait_inner(rank, r);
  } else {
    auto sr = isend(rank, root, coll_tag(seq, 3), bytes);
    co_await wait_inner(rank, sr);
  }
}

sim::Op<> Comm::reduce_scatter(int rank, std::int64_t bytes_per_rank) {
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_reduce_scatter", -1,
                              bytes_per_rank));
  }
  // MPICH-1 style: reduce the full vector to rank 0, then scatter blocks.
  const int seq1 = next_coll_seq(rank);
  co_await reduce_body(rank, 0, bytes_per_rank * size(), seq1);
  co_await scatter(rank, 0, bytes_per_rank);
}

sim::Op<> Comm::alltoallv_burst(int rank, std::vector<std::int64_t> bytes_to) {
  // Validate eagerly (a coroutine body would capture the throw in the
  // promise instead of raising it at the call site).
  if (static_cast<int>(bytes_to.size()) != size()) {
    throw std::invalid_argument("alltoallv_burst: bytes_to.size() != communicator size");
  }
  return alltoallv_body(rank, std::move(bytes_to), /*burst=*/true);
}

sim::Op<> Comm::allgather(int rank, std::int64_t bytes) {
  const int seq = next_coll_seq(rank);
  std::optional<trace::Tracer::Scope> sc;
  if (tracer_ != nullptr) {
    sc.emplace(tracer_->scope(rank, trace::Cat::Collective, "mpi_allgather", -1, bytes));
  }
  // Ring algorithm: P-1 steps, passing blocks around.
  const int p = size();
  const int right = (rank + 1) % p;
  const int left = (rank - 1 + p) % p;
  for (int s = 0; s + 1 < p; ++s) {
    auto rr = irecv(rank, left, coll_tag(seq, s % 64));
    auto sr = isend(rank, right, coll_tag(seq, s % 64), bytes);
    co_await wait_inner(rank, sr);
    co_await wait_inner(rank, rr);
  }
}

}  // namespace pcd::mpi
