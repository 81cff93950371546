// Tests for the distributed OPS backend (src/ops/dist.hpp): rank-local
// execution with real halo exchanges must reproduce the shared-memory
// OPS results exactly, for 2D and 3D, several rank counts and stencil
// radii, including global reductions.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>

#include "ops/dist.hpp"
#include "ops/ops.hpp"

namespace ops = syclport::ops;
namespace dist = syclport::ops::dist;
namespace mpi = syclport::mpi;

namespace {

double init_value(std::size_t i, std::size_t j, std::size_t k) {
  return std::sin(0.37 * static_cast<double>(i)) +
         std::cos(0.23 * static_cast<double>(j)) +
         0.11 * static_cast<double>(k);
}

/// Shared-memory OPS reference: `iters` Jacobi sweeps over an n x n
/// grid (halo cells are zero, exactly like the distributed physical
/// ghosts), returning the interior sum.
double shared_jacobi_2d(std::size_t n, int iters) {
  ops::Context ctx{ops::Options{}};
  ops::Block grid(ctx, "g", 2, {n, n, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a.at(static_cast<long>(i), static_cast<long>(j)) = init_value(i, j, 0);
  for (int it = 0; it < iters; ++it) {
    ops::par_loop(ctx, {"jacobi"}, grid, ops::Range::all(grid),
                  [](ops::ACC<double> out, ops::ACC<double> in) {
                    out(0, 0) = 0.25 * (in(1, 0) + in(-1, 0) + in(0, 1) +
                                        in(0, -1));
                  },
                  ops::arg(b, ops::S_PT, ops::Acc::W),
                  ops::arg(a, ops::S2D_5PT, ops::Acc::R));
    std::swap(a, b);
  }
  return a.interior_sum();
}

double dist_jacobi_2d(std::size_t n, int iters, int nranks) {
  double result = 0.0;
  std::mutex mu;
  mpi::run(nranks, [&](mpi::Comm& comm) {
    dist::DistContext ctx(comm, 2);
    dist::DistDat<double> a(ctx, {n, n, 1}, 1), b(ctx, {n, n, 1}, 1);
    a.init([](std::size_t i, std::size_t j, std::size_t k) {
      return init_value(i, j, k);
    });
    for (int it = 0; it < iters; ++it) {
      dist::par_loop(ctx,
                     [](ops::ACC<double> out, ops::ACC<double> in) {
                       out(0, 0) = 0.25 * (in(1, 0) + in(-1, 0) + in(0, 1) +
                                           in(0, -1));
                     },
                     dist::arg(b, ops::S_PT, ops::Acc::W),
                     dist::arg(a, ops::S2D_5PT, ops::Acc::R));
      std::swap(a.field().data, b.field().data);
    }
    const double sum = a.global_sum();
    std::lock_guard lock(mu);
    result = sum;
  });
  return result;
}

}  // namespace

TEST(DistOps, MatchesSharedMemoryJacobi2D) {
  const double ref = shared_jacobi_2d(24, 8);
  for (int nranks : {1, 2, 4, 6}) {
    EXPECT_NEAR(dist_jacobi_2d(24, 8, nranks), ref, 1e-11)
        << nranks << " ranks";
  }
}

TEST(DistOps, AwkwardGridSizes) {
  // Non-divisible extents exercise the block-distribution remainders.
  const double ref = shared_jacobi_2d(23, 5);
  EXPECT_NEAR(dist_jacobi_2d(23, 5, 4), ref, 1e-11);
  EXPECT_NEAR(dist_jacobi_2d(23, 5, 5), ref, 1e-11);
}

TEST(DistOps, ThreeDimensionalStencil) {
  const std::size_t n = 10;
  // Shared reference.
  ops::Context sctx{ops::Options{}};
  ops::Block grid(sctx, "g", 3, {n, n, n});
  ops::Dat<double> sa(grid, "a", 1, 1), sb(grid, "b", 1, 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t k = 0; k < n; ++k)
        sa.at(static_cast<long>(i), static_cast<long>(j),
              static_cast<long>(k)) = init_value(i, j, k);
  ops::par_loop(sctx, {"avg"}, grid, ops::Range::all(grid),
                [](ops::ACC<double> out, ops::ACC<double> in) {
                  out(0, 0, 0) = in(1, 0, 0) + in(-1, 0, 0) + in(0, 1, 0) +
                                 in(0, -1, 0) + in(0, 0, 1) + in(0, 0, -1);
                },
                ops::arg(sb, ops::S_PT, ops::Acc::W),
                ops::arg(sa, ops::S3D_7PT, ops::Acc::R));
  const double ref = sb.interior_sum();

  double got = 0.0;
  std::mutex mu;
  mpi::run(8, [&](mpi::Comm& comm) {
    dist::DistContext ctx(comm, 3);
    dist::DistDat<double> a(ctx, {n, n, n}, 1), b(ctx, {n, n, n}, 1);
    a.init(init_value);
    dist::par_loop(ctx,
                   [](ops::ACC<double> out, ops::ACC<double> in) {
                     out(0, 0, 0) = in(1, 0, 0) + in(-1, 0, 0) + in(0, 1, 0) +
                                    in(0, -1, 0) + in(0, 0, 1) + in(0, 0, -1);
                   },
                   dist::arg(b, ops::S_PT, ops::Acc::W),
                   dist::arg(a, ops::S3D_7PT, ops::Acc::R));
    const double sum = b.global_sum();
    std::lock_guard lock(mu);
    got = sum;
  });
  EXPECT_NEAR(got, ref, 1e-11);
}

TEST(DistOps, Radius2StencilUsesDeepHalo) {
  const std::size_t n = 16;
  double got = -1.0;
  std::mutex mu;
  mpi::run(4, [&](mpi::Comm& comm) {
    dist::DistContext ctx(comm, 2);
    dist::DistDat<double> a(ctx, {n, n, 1}, 2), b(ctx, {n, n, 1}, 2);
    a.init([](std::size_t i, std::size_t j, std::size_t) {
      return static_cast<double>(i + j);
    });
    dist::par_loop(ctx,
                   [](ops::ACC<double> out, ops::ACC<double> in) {
                     out(0, 0) = in(2, 0) + in(-2, 0);
                   },
                   dist::arg(b, ops::S_PT, ops::Acc::W),
                   dist::arg(a, ops::Stencil{2, 0, 0, 2}, ops::Acc::R));
    // Interior point away from physical boundaries: (i+j+2)+(i+j-2)=2(i+j).
    double local_err = 0.0;
    b.for_owned([&](std::size_t gi, std::size_t gj, std::size_t,
                    std::ptrdiff_t li, std::ptrdiff_t lj, std::ptrdiff_t lk) {
      if (gj < 2 || gj >= n - 2) return;  // touched physical ghosts
      local_err += std::fabs(b.field().at(li, lj, lk) -
                             2.0 * static_cast<double>(gi + gj));
    });
    const double err = comm.allreduce(local_err, mpi::Op::Sum);
    std::lock_guard lock(mu);
    got = err;
  });
  EXPECT_NEAR(got, 0.0, 1e-12);
}

TEST(DistOps, GlobalReductionAcrossRanks) {
  const std::size_t n = 20;
  double sum = 0.0, mx = 0.0;
  std::mutex mu;
  mpi::run(4, [&](mpi::Comm& comm) {
    dist::DistContext ctx(comm, 2);
    dist::DistDat<double> a(ctx, {n, n, 1}, 1);
    a.init([](std::size_t i, std::size_t j, std::size_t) {
      return static_cast<double>(i * 20 + j);
    });
    double s = 0.0, m = -1e300;
    dist::par_loop(ctx,
                   [](ops::ACC<double> v, ops::Reducer<double> rs,
                      ops::Reducer<double> rm) {
                     rs += v(0, 0);
                     rm.combine(v(0, 0));
                   },
                   dist::arg(a, ops::S_PT, ops::Acc::R),
                   dist::reduce(s, ops::RedOp::Sum),
                   dist::reduce(m, ops::RedOp::Max));
    std::lock_guard lock(mu);
    sum = s;
    mx = m;
  });
  EXPECT_DOUBLE_EQ(sum, 399.0 * 400.0 / 2.0);
  EXPECT_DOUBLE_EQ(mx, 399.0);
}

TEST(DistOps, StencilExceedingHaloRejected) {
  mpi::run(2, [&](mpi::Comm& comm) {
    dist::DistContext ctx(comm, 2);
    dist::DistDat<double> a(ctx, {8, 8, 1}, 1);
    EXPECT_THROW((void)dist::arg(a, ops::star(2, 2), ops::Acc::R),
                 std::invalid_argument);
  });
}

TEST(DistOps, LoopWithoutDatRejected) {
  mpi::run(1, [&](mpi::Comm& comm) {
    dist::DistContext ctx(comm, 2);
    double s = 0.0;
    EXPECT_THROW(dist::par_loop(ctx, [](ops::Reducer<double>) {},
                                dist::reduce(s, ops::RedOp::Sum)),
                 std::invalid_argument);
  });
}

TEST(DistOps, PointForPointMatchesSharedMemory) {
  // Not just the sum: every owned point must equal the shared-memory
  // sweep bit-for-bit. The asymmetric weights catch a halo slot that
  // lands on the wrong side of a rank boundary.
  const std::size_t n = 20;
  auto kernel = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0) = in(1, 0) + 2.0 * in(-1, 0) + 3.0 * in(0, 1) +
                4.0 * in(0, -1) + 5.0 * in(0, 0);
  };
  ops::Context sctx{ops::Options{}};
  ops::Block grid(sctx, "g", 2, {n, n, 1});
  ops::Dat<double> sa(grid, "a", 1, 1), sb(grid, "b", 1, 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      sa.at(static_cast<long>(i), static_cast<long>(j)) = init_value(i, j, 0);
  ops::par_loop(sctx, {"weighted"}, grid, ops::Range::all(grid), kernel,
                ops::arg(sb, ops::S_PT, ops::Acc::W),
                ops::arg(sa, ops::S2D_5PT, ops::Acc::R));

  for (int nranks : {2, 4, 6}) {
    double max_err = 1.0;
    std::mutex mu;
    mpi::run(nranks, [&](mpi::Comm& comm) {
      dist::DistContext ctx(comm, 2);
      dist::DistDat<double> a(ctx, {n, n, 1}, 1), b(ctx, {n, n, 1}, 1);
      a.init(init_value);
      dist::par_loop(ctx, kernel, dist::arg(b, ops::S_PT, ops::Acc::W),
                     dist::arg(a, ops::S2D_5PT, ops::Acc::R));
      double err = 0.0;
      b.for_owned([&](std::size_t gi, std::size_t gj, std::size_t,
                      std::ptrdiff_t li, std::ptrdiff_t lj,
                      std::ptrdiff_t lk) {
        err = std::max(err, std::fabs(b.field().at(li, lj, lk) -
                                      sb.at(static_cast<long>(gi),
                                            static_cast<long>(gj))));
      });
      const double gerr = comm.allreduce(err, mpi::Op::Max);
      std::lock_guard lock(mu);
      max_err = gerr;
    });
    EXPECT_EQ(max_err, 0.0) << nranks << " ranks";
  }
}

TEST(DistOps, ReductionAlongsideStencilWrite) {
  // One loop both writes a stencil result and reduces it: the reduction
  // must see the post-exchange halo values on every rank.
  const std::size_t n = 16;
  auto init = [](std::size_t i, std::size_t j, std::size_t) {
    return static_cast<double>(i) - 0.5 * static_cast<double>(j);
  };
  auto kernel = [](ops::ACC<double> out, ops::ACC<double> in,
                   ops::Reducer<double> rs) {
    out(0, 0) = 0.5 * (in(1, 0) + in(-1, 0));
    rs += out(0, 0);
  };
  ops::Context sctx{ops::Options{}};
  ops::Block grid(sctx, "g", 2, {n, n, 1});
  ops::Dat<double> sa(grid, "a", 1, 1), sb(grid, "b", 1, 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      sa.at(static_cast<long>(i), static_cast<long>(j)) = init(i, j, 0);
  double ref = 0.0;
  ops::par_loop(sctx, {"half"}, grid,
                ops::Range::all(grid), kernel,
                ops::arg(sb, ops::S_PT, ops::Acc::W),
                ops::arg(sa, ops::S2D_5PT, ops::Acc::R),
                ops::reduce(ref, ops::RedOp::Sum));

  for (int nranks : {1, 2, 4}) {
    double sum = 0.0, field_sum = 0.0;
    std::mutex mu;
    mpi::run(nranks, [&](mpi::Comm& comm) {
      dist::DistContext ctx(comm, 2);
      dist::DistDat<double> a(ctx, {n, n, 1}, 1), b(ctx, {n, n, 1}, 1);
      a.init(init);
      double s = 0.0;
      dist::par_loop(ctx, kernel, dist::arg(b, ops::S_PT, ops::Acc::W),
                     dist::arg(a, ops::S2D_5PT, ops::Acc::R),
                     dist::reduce(s, ops::RedOp::Sum));
      const double fs = b.global_sum();
      std::lock_guard lock(mu);
      sum = s;
      field_sum = fs;
    });
    EXPECT_NEAR(sum, ref, 1e-10) << nranks << " ranks";
    EXPECT_NEAR(field_sum, sb.interior_sum(), 1e-10) << nranks << " ranks";
  }
}

TEST(DistOps, ThreeDimensionalAwkwardDecomposition) {
  // Extents that no rank count divides evenly, on a 3D decomposition
  // with a non-cubic rank count.
  const std::array<std::size_t, 3> ext{11, 9, 7};
  auto kernel = [](ops::ACC<double> out, ops::ACC<double> in) {
    out(0, 0, 0) = in(1, 0, 0) - in(-1, 0, 0) + 2.0 * in(0, 1, 0) -
                   in(0, -1, 0) + 3.0 * in(0, 0, 1) - in(0, 0, -1);
  };
  ops::Context sctx{ops::Options{}};
  ops::Block grid(sctx, "g", 3, ext);
  ops::Dat<double> sa(grid, "a", 1, 1), sb(grid, "b", 1, 1);
  for (std::size_t i = 0; i < ext[0]; ++i)
    for (std::size_t j = 0; j < ext[1]; ++j)
      for (std::size_t k = 0; k < ext[2]; ++k)
        sa.at(static_cast<long>(i), static_cast<long>(j),
              static_cast<long>(k)) = init_value(i, j, k);
  ops::par_loop(sctx, {"skew"}, grid, ops::Range::all(grid), kernel,
                ops::arg(sb, ops::S_PT, ops::Acc::W),
                ops::arg(sa, ops::S3D_7PT, ops::Acc::R));

  for (int nranks : {3, 6}) {
    double max_err = 1.0;
    std::mutex mu;
    mpi::run(nranks, [&](mpi::Comm& comm) {
      dist::DistContext ctx(comm, 3);
      dist::DistDat<double> a(ctx, ext, 1), b(ctx, ext, 1);
      a.init(init_value);
      dist::par_loop(ctx, kernel, dist::arg(b, ops::S_PT, ops::Acc::W),
                     dist::arg(a, ops::S3D_7PT, ops::Acc::R));
      double err = 0.0;
      b.for_owned([&](std::size_t gi, std::size_t gj, std::size_t gk,
                      std::ptrdiff_t li, std::ptrdiff_t lj,
                      std::ptrdiff_t lk) {
        err = std::max(err, std::fabs(b.field().at(li, lj, lk) -
                                      sb.at(static_cast<long>(gi),
                                            static_cast<long>(gj),
                                            static_cast<long>(gk))));
      });
      const double gerr = comm.allreduce(err, mpi::Op::Max);
      std::lock_guard lock(mu);
      max_err = gerr;
    });
    EXPECT_EQ(max_err, 0.0) << nranks << " ranks";
  }
}
