// Tests for distributed OP2 (src/op2/dist.*): partition-localized
// meshes with owner-compute halo import / export-add must reproduce the
// shared-memory OP2 results for gather loops, scatter (INC) loops and
// iterated combinations, across rank counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "apps/mgcfd/mesh.hpp"
#include "op2/dist.hpp"

namespace op2 = syclport::op2;
namespace dist = syclport::op2::dist;
namespace mpi = syclport::mpi;
using syclport::Strategy;

namespace {

double node_value(int g, int c) {
  return std::sin(0.013 * g) + 0.25 * c;
}
double edge_weight(int g, int /*c*/) { return 0.5 + 0.001 * (g % 97); }

/// Shared-memory reference: one scatter round on the global mesh.
/// Every edge adds w * (v[b] - v[a]) to node a and the negation to b.
std::vector<double> shared_scatter(const op2::Map& e2n, int rounds) {
  const std::size_t nn = e2n.to().size();
  const std::size_t ne = e2n.from().size();
  std::vector<double> v(nn), d(nn, 0.0);
  for (std::size_t g = 0; g < nn; ++g) v[g] = node_value(static_cast<int>(g), 0);
  for (int r = 0; r < rounds; ++r) {
    std::fill(d.begin(), d.end(), 0.0);
    for (std::size_t e = 0; e < ne; ++e) {
      const auto a = static_cast<std::size_t>(e2n.at(e, 0));
      const auto b = static_cast<std::size_t>(e2n.at(e, 1));
      const double f = edge_weight(static_cast<int>(e), 0) * (v[b] - v[a]);
      d[a] += f;
      d[b] -= f;
    }
    for (std::size_t g = 0; g < nn; ++g) v[g] += 0.1 * d[g];
  }
  return v;
}

}  // namespace

TEST(DistOp2, MeshLocalizationPartitionsNodesAndEdges) {
  auto mesh = syclport::apps::mgcfd::build_rotor_mesh(14, 12, 8, 1);
  const int nranks = 4;
  std::mutex mu;
  std::size_t total_owned = 0, total_edges = 0;
  mpi::run(nranks, [&](mpi::Comm& comm) {
    dist::DistMesh dm(comm, *mesh.levels[0].e2n, mesh.levels[0].coords);
    // Sanity: local map is valid, halo after owned, lists consistent.
    EXPECT_EQ(dm.nodes().size(), dm.n_owned_nodes() + dm.n_halo_nodes());
    for (int peer = 0; peer < nranks; ++peer) {
      for (int li : dm.recv_idx()[static_cast<std::size_t>(peer)])
        EXPECT_GE(li, static_cast<int>(dm.n_owned_nodes()));
      for (int li : dm.send_idx()[static_cast<std::size_t>(peer)])
        EXPECT_LT(li, static_cast<int>(dm.n_owned_nodes()));
    }
    std::lock_guard lock(mu);
    total_owned += dm.n_owned_nodes();
    total_edges += dm.edges().size();
  });
  EXPECT_EQ(total_owned, mesh.fine_nodes());
  EXPECT_EQ(total_edges, mesh.fine_edges());
}

TEST(DistOp2, ImportHaloFetchesOwnerValues) {
  auto mesh = syclport::apps::mgcfd::build_rotor_mesh(12, 10, 8, 1);
  mpi::run(3, [&](mpi::Comm& comm) {
    dist::DistMesh dm(comm, *mesh.levels[0].e2n, mesh.levels[0].coords);
    dist::DistNodeDat<double> v(dm, 2, "v");
    v.init_owned(node_value);
    v.import_halo();
    // Every halo slot must now hold the owner's value for that node.
    for (std::size_t h = 0; h < dm.n_halo_nodes(); ++h) {
      const int g = dm.halo_node_gid()[h];
      for (int c = 0; c < 2; ++c)
        EXPECT_DOUBLE_EQ(v.dat().at(dm.n_owned_nodes() + h, c),
                         node_value(g, c))
            << "halo slot " << h;
    }
  });
}

TEST(DistOp2, ScatterLoopMatchesSharedMemory) {
  auto mesh = syclport::apps::mgcfd::build_rotor_mesh(12, 10, 8, 1);
  const auto ref = shared_scatter(*mesh.levels[0].e2n, 3);

  for (int nranks : {2, 4, 5}) {
    double max_err = 1.0;
    std::mutex mu;
    mpi::run(nranks, [&](mpi::Comm& comm) {
      dist::DistMesh dm(comm, *mesh.levels[0].e2n, mesh.levels[0].coords);
      dist::DistNodeDat<double> v(dm, 1, "v");
      dist::DistNodeDat<double> d(dm, 1, "d");
      dist::DistEdgeDat<double> w(dm, 1, "w");
      v.init_owned(node_value);
      w.init(edge_weight);

      op2::Options oo;
      oo.exec = op2::Exec::Serial;
      oo.strategy = Strategy::Atomics;
      oo.record = false;
      op2::Context ctx(oo);

      for (int r = 0; r < 3; ++r) {
        v.import_halo();
        op2::par_loop(ctx, {"flux"}, dm.edges(),
                      [](const double* ww, const double* va,
                         const double* vb, op2::Inc<double> da,
                         op2::Inc<double> db) {
                        const double f = ww[0] * (vb[0] - va[0]);
                        da.add(0, f);
                        db.add(0, -f);
                      },
                      op2::arg_direct(w.dat(), op2::Acc::R),
                      op2::arg_indirect(v.dat(), dm.e2n(), 0, op2::Acc::R),
                      op2::arg_indirect(v.dat(), dm.e2n(), 1, op2::Acc::R),
                      op2::arg_inc(d.dat(), dm.e2n(), 0),
                      op2::arg_inc(d.dat(), dm.e2n(), 1));
        d.export_add();
        // Owned update + zero owned deltas for the next round.
        for (std::size_t i = 0; i < dm.n_owned_nodes(); ++i) {
          v.dat().at(i) += 0.1 * d.dat().at(i);
          d.dat().at(i) = 0.0;
        }
      }
      // Compare owned values against the shared-memory reference.
      double err = 0.0;
      for (std::size_t i = 0; i < dm.n_owned_nodes(); ++i)
        err = std::max(err,
                       std::fabs(v.dat().at(i) -
                                 ref[static_cast<std::size_t>(
                                     dm.owned_node_gid()[i])]));
      const double gerr = comm.allreduce(err, mpi::Op::Max);
      std::lock_guard lock(mu);
      max_err = gerr;
    });
    EXPECT_NEAR(max_err, 0.0, 1e-12) << nranks << " ranks";
  }
}

TEST(DistOp2, ConservationAcrossRanks) {
  // Antisymmetric edge increments must sum to zero globally even when
  // the two endpoints live on different ranks.
  auto mesh = syclport::apps::mgcfd::build_rotor_mesh(10, 10, 6, 1);
  mpi::run(4, [&](mpi::Comm& comm) {
    dist::DistMesh dm(comm, *mesh.levels[0].e2n, mesh.levels[0].coords);
    dist::DistNodeDat<double> d(dm, 1, "d");
    op2::Options oo;
    oo.exec = op2::Exec::Serial;
    oo.record = false;
    op2::Context ctx(oo);
    op2::par_loop(ctx, {"pm"}, dm.edges(),
                  [](op2::Inc<double> a, op2::Inc<double> b) {
                    a.add(0, 1.0);
                    b.add(0, -1.0);
                  },
                  op2::arg_inc(d.dat(), dm.e2n(), 0),
                  op2::arg_inc(d.dat(), dm.e2n(), 1));
    d.export_add();
    EXPECT_NEAR(d.global_sum(), 0.0, 1e-12);
  });
}

TEST(DistOp2, SingleRankDegeneratesToSharedMemory) {
  auto mesh = syclport::apps::mgcfd::build_rotor_mesh(8, 8, 6, 1);
  mpi::run(1, [&](mpi::Comm& comm) {
    dist::DistMesh dm(comm, *mesh.levels[0].e2n, mesh.levels[0].coords);
    EXPECT_EQ(dm.n_owned_nodes(), mesh.fine_nodes());
    EXPECT_EQ(dm.n_halo_nodes(), 0u);
    EXPECT_EQ(dm.edges().size(), mesh.fine_edges());
  });
}

TEST(DistOp2, LocalEdgesMapBackToGlobalEdges) {
  // Every global edge is owned by exactly one rank, and the localized
  // map of an owned edge names the same two global nodes as the
  // global map, whether an endpoint is owned or a halo slot.
  auto mesh = syclport::apps::mgcfd::build_rotor_mesh(14, 12, 8, 1);
  const op2::Map& ge2n = *mesh.levels[0].e2n;
  std::vector<int> owners(mesh.fine_edges(), 0);
  std::mutex mu;
  mpi::run(4, [&](mpi::Comm& comm) {
    dist::DistMesh dm(comm, ge2n, mesh.levels[0].coords);
    const auto owned = dm.n_owned_nodes();
    auto gid = [&](int li) {
      const auto l = static_cast<std::size_t>(li);
      return l < owned ? dm.owned_node_gid()[l]
                       : dm.halo_node_gid()[l - owned];
    };
    ASSERT_EQ(dm.owned_edge_gid().size(), dm.edges().size());
    int bad = 0;
    for (std::size_t e = 0; e < dm.edges().size(); ++e) {
      const auto g = static_cast<std::size_t>(dm.owned_edge_gid()[e]);
      for (int i = 0; i < ge2n.arity(); ++i)
        bad += gid(dm.e2n().at(e, i)) != ge2n.at(g, i);
    }
    EXPECT_EQ(bad, 0) << "rank " << comm.rank();
    std::lock_guard lock(mu);
    for (int g : dm.owned_edge_gid()) owners[static_cast<std::size_t>(g)]++;
  });
  for (int c : owners) EXPECT_EQ(c, 1);
}

TEST(DistOp2, ScatterLoopMatchesSharedMemoryUnderColouring) {
  // The rank-local edge set is planned like any other: colouring the
  // localized map (halo slots included) must give the atomics answer.
  auto mesh = syclport::apps::mgcfd::build_rotor_mesh(12, 10, 8, 1);
  const auto ref = shared_scatter(*mesh.levels[0].e2n, 2);

  for (Strategy s : {Strategy::GlobalColor, Strategy::Hierarchical}) {
    double max_err = 1.0;
    std::mutex mu;
    mpi::run(3, [&](mpi::Comm& comm) {
      dist::DistMesh dm(comm, *mesh.levels[0].e2n, mesh.levels[0].coords);
      dist::DistNodeDat<double> v(dm, 1, "v");
      dist::DistNodeDat<double> d(dm, 1, "d");
      dist::DistEdgeDat<double> w(dm, 1, "w");
      v.init_owned(node_value);
      w.init(edge_weight);

      op2::Options oo;
      oo.exec = op2::Exec::Serial;
      oo.strategy = s;
      oo.record = false;
      op2::Context ctx(oo);

      for (int r = 0; r < 2; ++r) {
        v.import_halo();
        op2::par_loop(ctx, {"flux"}, dm.edges(),
                      [](const double* ww, const double* va,
                         const double* vb, op2::Inc<double> da,
                         op2::Inc<double> db) {
                        const double f = ww[0] * (vb[0] - va[0]);
                        da.add(0, f);
                        db.add(0, -f);
                      },
                      op2::arg_direct(w.dat(), op2::Acc::R),
                      op2::arg_indirect(v.dat(), dm.e2n(), 0, op2::Acc::R),
                      op2::arg_indirect(v.dat(), dm.e2n(), 1, op2::Acc::R),
                      op2::arg_inc(d.dat(), dm.e2n(), 0),
                      op2::arg_inc(d.dat(), dm.e2n(), 1));
        d.export_add();
        for (std::size_t i = 0; i < dm.n_owned_nodes(); ++i) {
          v.dat().at(i) += 0.1 * d.dat().at(i);
          d.dat().at(i) = 0.0;
        }
      }
      double err = 0.0;
      for (std::size_t i = 0; i < dm.n_owned_nodes(); ++i)
        err = std::max(err,
                       std::fabs(v.dat().at(i) -
                                 ref[static_cast<std::size_t>(
                                     dm.owned_node_gid()[i])]));
      const double gerr = comm.allreduce(err, mpi::Op::Max);
      std::lock_guard lock(mu);
      max_err = gerr;
    });
    EXPECT_NEAR(max_err, 0.0, 1e-12) << syclport::to_string(s);
  }
}
