#include "op2/dist.hpp"

#include <stdexcept>
#include <string>

namespace syclport::op2::dist {

DistMesh::DistMesh(mpi::Comm& comm, const Map& global_e2n,
                   std::span<const std::array<double, 3>> coords)
    : comm_(&comm) {
  const int me = comm.rank();
  const int np = comm.size();
  if (coords.size() != global_e2n.to().size())
    throw std::invalid_argument("DistMesh: coords/node-set size mismatch");

  // Deterministic partition: identical on every rank, no broadcast
  // needed (PT-Scotch would require one; RCB is pure function of input).
  const std::vector<int> node_part = rcb_partition(coords, np);

  // Owned nodes in ascending global order; local index = position.
  std::unordered_map<int, int> g2l;
  for (std::size_t g = 0; g < node_part.size(); ++g) {
    if (node_part[g] == me) {
      g2l.emplace(static_cast<int>(g), static_cast<int>(owned_nodes_.size()));
      owned_nodes_.push_back(static_cast<int>(g));
    }
  }
  n_owned_ = owned_nodes_.size();

  // Owner-compute: an edge executes on the owner of its first node.
  // Remote nodes referenced by owned edges become halo slots.
  const std::size_t ge = global_e2n.from().size();
  for (std::size_t e = 0; e < ge; ++e) {
    if (node_part[static_cast<std::size_t>(global_e2n.at(e, 0))] != me)
      continue;
    owned_edges_.push_back(static_cast<int>(e));
    for (int i = 0; i < global_e2n.arity(); ++i) {
      const int g = global_e2n.at(e, i);
      if (node_part[static_cast<std::size_t>(g)] == me) continue;
      if (g2l.emplace(g, static_cast<int>(n_owned_ + halo_nodes_.size()))
              .second)
        halo_nodes_.push_back(g);
    }
  }

  local_nodes_ = std::make_unique<Set>(
      "nodes_r" + std::to_string(me), n_owned_ + halo_nodes_.size());
  local_edges_ = std::make_unique<Set>("edges_r" + std::to_string(me),
                                       owned_edges_.size());
  local_e2n_ = std::make_unique<Map>(*local_edges_, *local_nodes_,
                                     global_e2n.arity(),
                                     "e2n_r" + std::to_string(me));
  for (std::size_t le = 0; le < owned_edges_.size(); ++le)
    for (int i = 0; i < global_e2n.arity(); ++i)
      local_e2n_->at(le, i) =
          g2l.at(global_e2n.at(static_cast<std::size_t>(owned_edges_[le]), i));
  local_e2n_->check();

  // Group halo global ids by their owner, preserving halo order (the
  // payload order of every subsequent exchange).
  recv_idx_.assign(static_cast<std::size_t>(np), {});
  std::vector<std::vector<int>> want_gids(static_cast<std::size_t>(np));
  for (std::size_t h = 0; h < halo_nodes_.size(); ++h) {
    const int g = halo_nodes_[h];
    const auto owner = static_cast<std::size_t>(
        node_part[static_cast<std::size_t>(g)]);
    recv_idx_[owner].push_back(static_cast<int>(n_owned_ + h));
    want_gids[owner].push_back(g);
  }

  // Negotiate send lists: tell every peer which of its nodes we import.
  for (int peer = 0; peer < np; ++peer) {
    if (peer == me) continue;
    const auto& want = want_gids[static_cast<std::size_t>(peer)];
    const int count = static_cast<int>(want.size());
    comm.send(peer, /*tag=*/60, count);
    if (count > 0) comm.send(peer, /*tag=*/61, std::span<const int>(want));
  }
  send_idx_.assign(static_cast<std::size_t>(np), {});
  for (int peer = 0; peer < np; ++peer) {
    if (peer == me) continue;
    int count = 0;
    comm.recv(peer, /*tag=*/60, count);
    if (count == 0) continue;
    std::vector<int> gids(static_cast<std::size_t>(count));
    comm.recv(peer, /*tag=*/61, std::span<int>(gids));
    auto& out = send_idx_[static_cast<std::size_t>(peer)];
    out.reserve(gids.size());
    for (int g : gids) out.push_back(g2l.at(g));  // must be owned here
  }
}

}  // namespace syclport::op2::dist
