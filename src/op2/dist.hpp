#pragma once
/// \file dist.hpp
/// Distributed OP2 over mini-MPI: the full owner-compute pipeline of
/// the paper's §3 for unstructured meshes - partition the nodes (RCB,
/// the PT-Scotch substitute), localize the mesh per rank (owned nodes,
/// imported halo nodes, owned edges), import halo values before reads,
/// and export-add halo increments back to their owners after indirect
/// INC loops. Compute itself reuses the shared-memory op2::par_loop on
/// the rank-local sets, so kernels are written once.

#include <array>
#include <span>
#include <unordered_map>
#include <vector>

#include "minimpi/comm.hpp"
#include "op2/op2.hpp"

namespace syclport::op2::dist {

/// Per-rank localization of a global edges->nodes mesh. Collective:
/// every rank constructs it from the same global mesh (deterministic
/// RCB makes the partition identical everywhere); the import/export
/// index lists are then negotiated over the communicator.
class DistMesh {
 public:
  DistMesh(mpi::Comm& comm, const Map& global_e2n,
           std::span<const std::array<double, 3>> coords);

  [[nodiscard]] mpi::Comm& comm() const { return *comm_; }
  [[nodiscard]] int rank() const { return comm_->rank(); }
  [[nodiscard]] int nparts() const { return comm_->size(); }

  /// Rank-local sets/map: nodes = owned then halo; edges = owned only.
  [[nodiscard]] Set& nodes() { return *local_nodes_; }
  [[nodiscard]] Set& edges() { return *local_edges_; }
  [[nodiscard]] Map& e2n() { return *local_e2n_; }

  [[nodiscard]] std::size_t n_owned_nodes() const { return n_owned_; }
  [[nodiscard]] std::size_t n_halo_nodes() const {
    return local_nodes_->size() - n_owned_;
  }

  /// Global ids: owned node i -> owned_node_gid()[i]; local halo slot
  /// h -> halo_node_gid()[h]; owned edge e -> owned_edge_gid()[e].
  [[nodiscard]] const std::vector<int>& owned_node_gid() const {
    return owned_nodes_;
  }
  [[nodiscard]] const std::vector<int>& halo_node_gid() const {
    return halo_nodes_;
  }
  [[nodiscard]] const std::vector<int>& owned_edge_gid() const {
    return owned_edges_;
  }

  /// Communication lists (per peer rank): owned local node indices this
  /// rank sends on import (= the peer's halo), and halo-region local
  /// indices it receives into.
  [[nodiscard]] const std::vector<std::vector<int>>& send_idx() const {
    return send_idx_;
  }
  [[nodiscard]] const std::vector<std::vector<int>>& recv_idx() const {
    return recv_idx_;
  }

 private:
  mpi::Comm* comm_;
  std::size_t n_owned_ = 0;
  std::vector<int> owned_nodes_;
  std::vector<int> halo_nodes_;
  std::vector<int> owned_edges_;
  std::unique_ptr<Set> local_nodes_;
  std::unique_ptr<Set> local_edges_;
  std::unique_ptr<Map> local_e2n_;
  std::vector<std::vector<int>> send_idx_;
  std::vector<std::vector<int>> recv_idx_;
};

/// A node dat distributed with the mesh: values for owned + halo nodes.
/// Wraps an op2::Dat on the local node set so existing par_loops work.
template <typename T>
class DistNodeDat {
 public:
  DistNodeDat(DistMesh& mesh, int dim, std::string name)
      : mesh_(&mesh), dat_(mesh.nodes(), dim, std::move(name)) {}

  [[nodiscard]] Dat<T>& dat() { return dat_; }
  [[nodiscard]] int dim() const { return dat_.dim(); }

  /// Initialize owned entries from global node ids.
  template <typename Fn>
  void init_owned(Fn&& value_of /* (global_id, comp) -> T */) {
    for (std::size_t i = 0; i < mesh_->n_owned_nodes(); ++i)
      for (int c = 0; c < dat_.dim(); ++c)
        dat_.at(i, c) = value_of(mesh_->owned_node_gid()[i], c);
  }

  /// Fetch current owner values into the halo region (collective).
  void import_halo() {
    exchange_begin(/*reverse=*/false);
    exchange_finish(/*reverse=*/false);
  }

  /// Send halo-region contributions back to their owners, add them
  /// there, and zero the halo region (collective). The INC-completion
  /// step of owner-compute execution.
  void export_add() {
    exchange_begin(/*reverse=*/true);
    exchange_finish(/*reverse=*/true);
  }

  /// Sum over owned entries, reduced across ranks (collective).
  [[nodiscard]] double global_sum() {
    double local = 0.0;
    for (std::size_t i = 0; i < mesh_->n_owned_nodes(); ++i)
      for (int c = 0; c < dat_.dim(); ++c)
        local += static_cast<double>(dat_.at(i, c));
    return mesh_->comm().allreduce(local, mpi::Op::Sum);
  }

 private:
  void exchange_begin(bool reverse) {
    auto& comm = mesh_->comm();
    const int me = mesh_->rank();
    const int dim = dat_.dim();
    const auto& sends = reverse ? mesh_->recv_idx() : mesh_->send_idx();
    for (int peer = 0; peer < mesh_->nparts(); ++peer) {
      if (peer == me) continue;
      const auto& out_idx = sends[static_cast<std::size_t>(peer)];
      if (!out_idx.empty()) {
        std::vector<T> payload;
        payload.reserve(out_idx.size() * static_cast<std::size_t>(dim));
        for (int li : out_idx)
          for (int c = 0; c < dim; ++c)
            payload.push_back(dat_.at(static_cast<std::size_t>(li), c));
        comm.send(peer, /*tag=*/reverse ? 71 : 70,
                  std::span<const T>(payload));
      }
    }
  }

  void exchange_finish(bool reverse) {
    auto& comm = mesh_->comm();
    const int me = mesh_->rank();
    const int dim = dat_.dim();
    const auto& recvs = reverse ? mesh_->send_idx() : mesh_->recv_idx();
    for (int peer = 0; peer < mesh_->nparts(); ++peer) {
      if (peer == me) continue;
      const auto& in_idx = recvs[static_cast<std::size_t>(peer)];
      if (in_idx.empty()) continue;
      std::vector<T> payload(in_idx.size() * static_cast<std::size_t>(dim));
      comm.recv(peer, /*tag=*/reverse ? 71 : 70, std::span<T>(payload));
      std::size_t k = 0;
      for (int li : in_idx)
        for (int c = 0; c < dim; ++c, ++k) {
          if (reverse) {
            dat_.at(static_cast<std::size_t>(li), c) += payload[k];
          } else {
            dat_.at(static_cast<std::size_t>(li), c) = payload[k];
          }
        }
    }
    if (reverse) {
      // Halo contributions are consumed; reset for the next loop.
      for (std::size_t i = mesh_->n_owned_nodes(); i < mesh_->nodes().size();
           ++i)
        for (int c = 0; c < dim; ++c) dat_.at(i, c) = T{};
    }
  }

  DistMesh* mesh_;
  Dat<T> dat_;
};

/// An edge dat distributed with the mesh (owned edges only).
template <typename T>
class DistEdgeDat {
 public:
  DistEdgeDat(DistMesh& mesh, int dim, std::string name)
      : mesh_(&mesh), dat_(mesh.edges(), dim, std::move(name)) {}

  [[nodiscard]] Dat<T>& dat() { return dat_; }

  /// Initialize from global edge ids.
  template <typename Fn>
  void init(Fn&& value_of /* (global_edge_id, comp) -> T */) {
    for (std::size_t e = 0; e < mesh_->edges().size(); ++e)
      for (int c = 0; c < dat_.dim(); ++c)
        dat_.at(e, c) = value_of(mesh_->owned_edge_gid()[e], c);
  }

 private:
  DistMesh* mesh_;
  Dat<T> dat_;
};

}  // namespace syclport::op2::dist
