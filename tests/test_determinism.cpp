// Determinism of global reductions (core/reducer.hpp): every app's
// checksum is bit-identical across backends, and reductions are
// bit-identical across thread counts, schedules, fusion and tiling.
// tests/CMakeLists.txt registers this binary once per
// SYCLPORT_THREADS x SYCLPORT_SCHEDULE combination.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/acoustic/acoustic.hpp"
#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "apps/cloverleaf/cloverleaf3d.hpp"
#include "apps/mgcfd/mgcfd.hpp"
#include "apps/opensbli/opensbli.hpp"
#include "apps/rtm/rtm.hpp"
#include "core/report.hpp"
#include "op2/op2.hpp"
#include "ops/ops.hpp"
#include "runtime/thread_pool.hpp"

namespace apps = syclport::apps;
namespace ops = syclport::ops;
namespace op2 = syclport::op2;
namespace report = syclport::report;
using syclport::Strategy;

namespace {

/// Bit equality with an exact (%.17g + hex) failure message.
::testing::AssertionResult BitEqual(double got, double want) {
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << report::exact(got) << " vs " << report::exact(want);
}

double run_ops_app(const std::string& app, ops::Backend b) {
  ops::Options o;
  o.backend = b;
  o.record = false;
  if (app == "cloverleaf2d")
    return apps::run_cloverleaf2d(o, apps::cloverleaf2d_small()).checksum;
  if (app == "cloverleaf3d")
    return apps::run_cloverleaf3d(o, apps::cloverleaf3d_small()).checksum;
  if (app == "opensbli_sa")
    return apps::run_opensbli_sa(o, apps::opensbli_small()).checksum;
  if (app == "opensbli_sn")
    return apps::run_opensbli_sn(o, apps::opensbli_small()).checksum;
  if (app == "rtm") return apps::run_rtm(o, apps::rtm_small()).checksum;
  return apps::run_acoustic(o, apps::acoustic_small()).checksum;
}

class OpsAppDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(OpsAppDeterminism, EveryBackendBitEqualsSerial) {
  const std::string app = GetParam();
  const double serial = run_ops_app(app, ops::Backend::Serial);
  for (const ops::Backend b :
       {ops::Backend::Threads, ops::Backend::SyclFlat, ops::Backend::SyclNd,
        ops::Backend::MPI}) {
    EXPECT_TRUE(BitEqual(run_ops_app(app, b), serial))
        << app << " backend " << static_cast<int>(b);
  }
  // Repeated runs on the pool: no run-to-run drift.
  EXPECT_TRUE(BitEqual(run_ops_app(app, ops::Backend::Threads), serial));
}

INSTANTIATE_TEST_SUITE_P(Apps, OpsAppDeterminism,
                         ::testing::Values("cloverleaf2d", "cloverleaf3d",
                                           "opensbli_sa", "opensbli_sn", "rtm",
                                           "acoustic"),
                         [](const auto& ti) { return std::string(ti.param); });

// MG-CFD's checksum sums the fine-level state after flux INC scatters.
// Under the Atomics strategy the order of concurrent increments to one
// node is the strategy's own semantics, so the app is compared under
// the strategies whose increments are ordered by construction.
class MgcfdDeterminism : public ::testing::TestWithParam<Strategy> {};

TEST_P(MgcfdDeterminism, ThreadsBitEqualsSerial) {
  op2::Options o;
  o.strategy = GetParam();
  o.record = false;
  o.exec = op2::Exec::Serial;
  const double serial = apps::run_mgcfd(o, apps::mgcfd_small()).checksum;
  o.exec = op2::Exec::Threads;
  EXPECT_TRUE(BitEqual(apps::run_mgcfd(o, apps::mgcfd_small()).checksum,
                       serial));
}

INSTANTIATE_TEST_SUITE_P(Strategies, MgcfdDeterminism,
                         ::testing::Values(Strategy::GlobalColor,
                                           Strategy::Hierarchical,
                                           Strategy::Staged),
                         [](const auto& ti) {
                           return std::string(syclport::to_string(ti.param));
                         });

// --- ops: 1-D ranges that do not divide into whole blocks ------------------

double dot_1d(ops::Backend b, long lo, long hi, ops::RedOp op) {
  ops::Options o;
  o.backend = b;
  o.record = false;
  ops::Context ctx(o);
  ops::Block blk(ctx, "line", 1, {5003, 1, 1});
  ops::Dat<double> x(blk, "x", 1, 4);
  for (long i = -4; i < 5007; ++i)
    x.at(i) = 1.0 / (3.0 + static_cast<double>((i + 100) % 97));
  double r = op == ops::RedOp::Sum ? 0.5 : 1e300;
  ops::Range rg;
  rg.lo = {lo, 0, 0};
  rg.hi = {hi, 1, 1};
  ops::par_loop(ctx, {"dot1d"}, blk, rg,
                [](ops::ACC<double> a, ops::Reducer<double> red) {
                  red.combine(a(0) * a(0) + a(-1));
                },
                ops::arg(x, ops::Stencil{1, 0, 0}, ops::Acc::R),
                ops::reduce(r, op));
  return r;
}

TEST(ReductionBlocks, OneDimRaggedRangesBitEqualAcrossBackends) {
  // Ranges starting inside a block, spanning halo points, shorter than
  // one block and ending mid-block.
  const std::vector<std::pair<long, long>> ranges = {
      {0, 5003}, {-3, 5006}, {17, 1040}, {1023, 1025}, {700, 3000}};
  for (const auto& [lo, hi] : ranges)
    for (const ops::RedOp op : {ops::RedOp::Sum, ops::RedOp::Min}) {
      const double serial = dot_1d(ops::Backend::Serial, lo, hi, op);
      for (const ops::Backend b : {ops::Backend::Threads,
                                   ops::Backend::SyclFlat,
                                   ops::Backend::SyclNd}) {
        EXPECT_TRUE(BitEqual(dot_1d(b, lo, hi, op), serial))
            << "[" << lo << "," << hi << ") backend " << static_cast<int>(b);
      }
    }
}

TEST(ReductionBlocks, PartitionCoversRangeInOrder) {
  for (const long lo : {-5L, 0L, 3L, 1023L, 1024L, 4000L})
    for (const std::size_t n : {std::size_t{1}, std::size_t{1000},
                                std::size_t{1024}, std::size_t{5000}}) {
      const auto p = syclport::BlockPartition::aligned(lo, n);
      std::size_t next = 0;
      for (std::size_t k = 0; k < p.count(); ++k) {
        ASSERT_EQ(p.begin(k), next);
        ASSERT_LT(p.begin(k), p.end(k));
        ASSERT_TRUE(p.is_start(p.begin(k)));
        // Interior block boundaries sit on absolute chunk multiples.
        if (k > 0) {
          ASSERT_EQ((lo + static_cast<long>(p.begin(k))) %
                        static_cast<long>(syclport::kReduceChunk),
                    0);
        }
        next = p.end(k);
      }
      ASSERT_EQ(next, n);
      // Chunks of any size own every block exactly once.
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                      std::size_t{1500}}) {
        std::size_t seen = 0;
        for (std::size_t b = 0; b < n; b += chunk)
          p.for_each_starting_in(b, std::min(n, b + chunk),
                                 [&](std::size_t k, std::size_t, std::size_t) {
                                   ASSERT_EQ(k, seen);
                                   ++seen;
                                 });
        ASSERT_EQ(seen, p.count());
      }
    }
}

// --- ops: in-place stencils keep the ascending visit order -----------------

std::vector<double> in_place_scan(ops::Backend b) {
  ops::Options o;
  o.backend = b;
  o.record = false;
  ops::Context ctx(o);
  ops::Block blk(ctx, "line", 1, {4096, 1, 1});
  ops::Dat<double> x(blk, "x", 1, 1);
  for (long i = -1; i <= 4096; ++i) x.at(i) = 0.25 * static_cast<double>(i);
  // Each point reads its left neighbour, which this loop has just
  // written under the ascending order: a running scan.
  ops::par_loop(ctx, {"scan"}, blk, ops::Range::all(blk),
                [](ops::ACC<double> a) { a(0) = 0.5 * a(-1) + a(0); },
                ops::arg(x, ops::Stencil{1, 0, 0}, ops::Acc::RW));
  std::vector<double> out;
  for (long i = 0; i < 4096; ++i) out.push_back(x.at(i));
  return out;
}

TEST(InPlaceStencil, ScanMatchesSerialOnEveryBackend) {
  const std::vector<double> serial = in_place_scan(ops::Backend::Serial);
  for (const ops::Backend b : {ops::Backend::Threads, ops::Backend::SyclFlat,
                               ops::Backend::SyclNd, ops::Backend::MPI}) {
    const std::vector<double> got = in_place_scan(b);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_TRUE(BitEqual(got[i], serial[i]))
          << "point " << i << " backend " << static_cast<int>(b);
  }
}

// --- ops: host row sweeps ---------------------------------------------------
//
// The host backends run a 2-D/3-D par_loop as whole fast-dimension rows
// of stepped accessors. Every backend must write the same points and
// fold the same row partials as a plain nested-loop reference.

constexpr double kSweepWeight = 1.0000001;

/// Both components of the swept input at a padded-grid point.
double sweep_input(long i0, long i1, long i2, int c) {
  const long h = (i0 + 3) * 131 + (i1 + 3) * 31 + (i2 + 3) * 7 + c * 5;
  return 1.0 / (3.0 + static_cast<double>(h % 97));
}

/// The kernel's value at a point, from the input directly: component 0
/// at the point, component 1 one step along the fastest dimension,
/// component 0 one step back along the next-slower one.
double sweep_value(int dims, long i0, long i1, long i2) {
  if (dims == 2)
    return sweep_input(i0, i1, 0, 0) * 1.5 + sweep_input(i0, i1 + 1, 0, 1) -
           0.25 * sweep_input(i0 - 1, i1, 0, 0);
  return sweep_input(i0, i1, i2, 0) * 1.5 + sweep_input(i0, i1, i2 + 1, 1) -
         0.25 * sweep_input(i0, i1 - 1, i2, 0);
}

struct SweepResult {
  std::vector<double> out;  ///< output over the range, fast index last
  double sum = 0.25;
  double min = 1e300;
};

/// Visit every point of `rg`, slow to fast.
template <typename F>
void for_each_point(int dims, const ops::Range& rg, F&& f) {
  for (long i0 = rg.lo[0]; i0 < rg.hi[0]; ++i0)
    for (long i1 = rg.lo[1]; i1 < rg.hi[1]; ++i1)
      for (long i2 = dims == 3 ? rg.lo[2] : 0;
           i2 < (dims == 3 ? rg.hi[2] : 1); ++i2)
        f(i0, i1, i2);
}

/// The documented fold: one partial per row, accumulated in ascending
/// fast order and folded into the target in ascending row order.
SweepResult sweep_reference(int dims, const ops::Range& rg) {
  SweepResult r;
  const std::size_t d = static_cast<std::size_t>(dims - 1);
  const long row_len = rg.hi[d] - rg.lo[d];
  double part_sum = 0.0, part_min = 0.0;
  long in_row = 0;
  for_each_point(dims, rg, [&](long i0, long i1, long i2) {
    if (in_row == 0) {
      part_sum = 0.0;
      part_min = std::numeric_limits<double>::max();
    }
    const double v = sweep_value(dims, i0, i1, i2);
    r.out.push_back(v);
    part_sum = part_sum + v * kSweepWeight;
    part_min = v < part_min ? v : part_min;
    if (++in_row == row_len) {
      r.sum = r.sum + part_sum;
      r.min = part_min < r.min ? part_min : r.min;
      in_row = 0;
    }
  });
  return r;
}

SweepResult sweep(ops::Backend b, int dims, const ops::Range& rg,
                  std::optional<std::size_t> grain = std::nullopt) {
  ops::Options o;
  o.backend = b;
  o.record = false;
  o.grain = grain;
  ops::Context ctx(o);
  const std::array<std::size_t, 3> size =
      dims == 2 ? std::array<std::size_t, 3>{37, 41, 1}
                : std::array<std::size_t, 3>{7, 9, 11};
  ops::Block blk(ctx, "sweep", dims, size);
  ops::Dat<double> in(blk, "in", 2, 2), out(blk, "out", 1, 2);
  out.fill(-1.0);
  for (long i0 = -2; i0 < static_cast<long>(size[0]) + 2; ++i0)
    for (long i1 = -2; i1 < static_cast<long>(size[1]) + 2; ++i1)
      for (long i2 = dims == 3 ? -2 : 0;
           i2 < (dims == 3 ? static_cast<long>(size[2]) + 2 : 1); ++i2)
        for (int c = 0; c < 2; ++c)
          in.at(i0, i1, i2, c) = sweep_input(i0, i1, i2, c);

  SweepResult r;
  if (dims == 2) {
    ops::par_loop(
        ctx, {"sweep2d"}, blk, rg,
        [](ops::ACC<double> x, ops::ACC<double> y, ops::Reducer<double> s,
           ops::Reducer<double> m) {
          const double v = x.comp(0, 0, 0) * 1.5 + x.comp(1, 1, 0) -
                           0.25 * x.comp(0, 0, -1);
          y(0, 0) = v;
          s += v * kSweepWeight;
          m.combine(v);
        },
        ops::arg(in, ops::S2D_5PT, ops::Acc::R),
        ops::arg(out, ops::S_PT, ops::Acc::W),
        ops::reduce(r.sum, ops::RedOp::Sum),
        ops::reduce(r.min, ops::RedOp::Min));
  } else {
    ops::par_loop(
        ctx, {"sweep3d"}, blk, rg,
        [](ops::ACC<double> x, ops::ACC<double> y, ops::Reducer<double> s,
           ops::Reducer<double> m) {
          const double v = x.comp(0, 0, 0, 0) * 1.5 + x.comp(1, 1, 0, 0) -
                           0.25 * x.comp(0, 0, -1, 0);
          y(0, 0, 0) = v;
          s += v * kSweepWeight;
          m.combine(v);
        },
        ops::arg(in, ops::S3D_7PT, ops::Acc::R),
        ops::arg(out, ops::S_PT, ops::Acc::W),
        ops::reduce(r.sum, ops::RedOp::Sum),
        ops::reduce(r.min, ops::RedOp::Min));
  }
  for_each_point(dims, rg, [&](long i0, long i1, long i2) {
    r.out.push_back(out.at(i0, i1, i2));
  });
  return r;
}

::testing::AssertionResult SweepEqual(const SweepResult& got,
                                      const SweepResult& want) {
  if (got.out.size() != want.out.size())
    return ::testing::AssertionFailure()
           << got.out.size() << " points vs " << want.out.size();
  for (std::size_t i = 0; i < got.out.size(); ++i)
    if (auto eq = BitEqual(got.out[i], want.out[i]); !eq)
      return eq << " at point " << i;
  if (auto eq = BitEqual(got.sum, want.sum); !eq) return eq << " (sum)";
  if (auto eq = BitEqual(got.min, want.min); !eq) return eq << " (min)";
  return ::testing::AssertionSuccess();
}

void check_sweeps(int dims, const std::vector<ops::Range>& ranges) {
  for (const ops::Range& rg : ranges) {
    const SweepResult want = sweep_reference(dims, rg);
    const std::size_t d = static_cast<std::size_t>(dims - 1);
    const auto row_len = static_cast<std::size_t>(rg.hi[d] - rg.lo[d]);
    EXPECT_TRUE(SweepEqual(sweep(ops::Backend::Serial, dims, rg), want))
        << dims << "-D serial, range from " << rg.lo[0] << "," << rg.lo[1];
    for (const ops::Backend b :
         {ops::Backend::Threads, ops::Backend::MPI, ops::Backend::SyclFlat,
          ops::Backend::SyclNd})
      EXPECT_TRUE(SweepEqual(sweep(b, dims, rg), want))
          << dims << "-D backend " << static_cast<int>(b) << ", range from "
          << rg.lo[0] << "," << rg.lo[1];
    // Grains below, at and above one row, in points.
    for (const std::size_t grain : {std::size_t{1}, row_len, 3 * row_len + 1})
      EXPECT_TRUE(SweepEqual(sweep(ops::Backend::Threads, dims, rg, grain),
                             want))
          << dims << "-D grain " << grain;
  }
}

ops::Range range3(std::array<long, 3> lo, std::array<long, 3> hi) {
  ops::Range r;
  r.lo = lo;
  r.hi = hi;
  return r;
}

TEST(RowSweep, TwoDimHaloRangesBitEqualReference) {
  // The whole interior, ranges reaching one point into the halo on
  // every side, a single row and a single column.
  check_sweeps(2, {range3({0, 0, 0}, {37, 41, 1}),
                   range3({-1, -1, 0}, {38, 42, 1}),
                   range3({-1, 3, 0}, {20, 42, 1}),
                   range3({5, -1, 0}, {6, 41, 1}),
                   range3({-1, 40, 0}, {38, 42, 1})});
}

TEST(RowSweep, RaggedThreeDimRangesBitEqualReference) {
  check_sweeps(3, {range3({0, 0, 0}, {7, 9, 11}),
                   range3({-1, 2, -1}, {8, 5, 12}),
                   range3({3, -1, 4}, {4, 10, 5}),
                   range3({1, 0, 0}, {6, 1, 11})});
}

TEST(RowSweep, GrainCountsPointsNotRows) {
  // A grain of three rows' points gives chunks of at least three rows:
  // the 37-row launch still splits, into at most 13 chunks.
  const ops::Range all = range3({0, 0, 0}, {37, 41, 1});
  const SweepResult want = sweep_reference(2, all);
  EXPECT_TRUE(SweepEqual(sweep(ops::Backend::Threads, 2, all, 3 * 41), want));
  const std::size_t chunks = syclport::rt::ThreadPool::last_stats().chunks;
  EXPECT_GT(chunks, 1u);
  EXPECT_LE(chunks, 13u);
  // A grain of the whole grid is one chunk.
  EXPECT_TRUE(SweepEqual(sweep(ops::Backend::Threads, 2, all, 37 * 41), want));
  EXPECT_EQ(syclport::rt::ThreadPool::last_stats().chunks, 1u);
}

// --- ops: fused, tiled chain ending in a Sum reduction ----------------------

double chain_sum(int dims, std::optional<std::size_t> tile) {
  ops::Options o;
  o.backend = ops::Backend::Threads;
  o.record = false;
  ops::Context ctx(o);
  const std::array<std::size_t, 3> ext =
      dims == 1 ? std::array<std::size_t, 3>{9000, 1, 1}
                : std::array<std::size_t, 3>{61, 67, 1};
  ops::Block blk(ctx, "chain", dims, ext);
  ops::Dat<double> a(blk, "a", 1, 2), b(blk, "b", 1, 2);
  a.fill(0.0);
  b.fill(0.0);
  const ops::Stencil pt{0, 0, 0};
  const ops::Stencil nb = dims == 1 ? ops::Stencil{1, 0, 0}
                                    : ops::Stencil{1, 1, 0};
  ops::LoopChain chain(ctx, blk);
  chain.enqueue({"init"},
                [](ops::ACC<double> x) { x(0) = 0.1; },
                ops::arg(a, pt, ops::Acc::W));
  chain.enqueue({"smooth"},
                [dims](ops::ACC<double> y, ops::ACC<double> x) {
                  y(0) = dims == 1 ? 0.25 * (x(-1) + 2.0 * x(0) + x(1)) / 3.0
                                   : 0.2 * (x(-1, 0) + x(1, 0) + x(0, -1) +
                                            x(0, 1) + x(0, 0)) / 7.0;
                },
                ops::arg(b, pt, ops::Acc::W), ops::arg(a, nb, ops::Acc::R));
  double sum = 0.0;
  chain.enqueue({"sum"},
                [](ops::ACC<double> y, ops::Reducer<double> r) {
                  r += y(0) * 1.0000001;
                },
                ops::arg(b, pt, ops::Acc::R), ops::reduce(sum, ops::RedOp::Sum));
  chain.execute(tile);
  if (tile && *tile > 0 && *tile < ext[0]) {
    EXPECT_TRUE(chain.last_fused());
    EXPECT_EQ(chain.last_segments(), 1u);
  }
  return sum;
}

TEST(ReductionBlocks, TiledChainEndingInSumBitEqualsEager) {
  for (const int dims : {1, 2}) {
    const double eager = chain_sum(dims, 0);
    for (const std::size_t tile : {std::size_t{1}, std::size_t{3},
                                   std::size_t{7}, std::size_t{2000}}) {
      EXPECT_TRUE(BitEqual(chain_sum(dims, tile), eager))
          << dims << "-D tile " << tile;
    }
    EXPECT_TRUE(BitEqual(chain_sum(dims, std::nullopt), eager)) << dims;
  }
}

// --- op2: arg_gbl Sum/Min under every strategy -------------------------------

struct Ring {
  op2::Set nodes{"nodes", 7001};
  op2::Set edges{"edges", 7001};
  op2::Map e2n{edges, nodes, 2, "e2n"};
  Ring() {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      e2n.at(e, 0) = static_cast<int>(e);
      e2n.at(e, 1) = static_cast<int>((e + 1) % nodes.size());
    }
  }
};

std::pair<double, double> gbl_sweep(Strategy s, op2::Exec x) {
  Ring m;
  op2::Options o;
  o.strategy = s;
  o.exec = x;
  o.block_size = 64;
  o.record = false;
  op2::Context ctx(o);
  op2::Dat<double> w(m.edges, 1, "w");
  op2::Dat<double> q(m.nodes, 1, "q");
  op2::Dat<double> acc(m.nodes, 1, "acc");
  for (std::size_t e = 0; e < m.edges.size(); ++e)
    w.at(e, 0) = 1.0 / (1.0 + static_cast<double>(e % 113));
  for (std::size_t n = 0; n < m.nodes.size(); ++n)
    q.at(n, 0) = 0.3 + static_cast<double>(n % 31) * 1e-3;
  double sum = 0.25, mn = 1e300;
  op2::par_loop(ctx, {"edge_gbl"}, m.edges,
                [](const double* we, const double* qa, const double* qb,
                   op2::Inc<double> ia, op2::Inc<double> ib,
                   op2::Reducer<double> rs, op2::Reducer<double> rm) {
                  const double f = we[0] * (qa[0] - 0.7 * qb[0]);
                  ia.add(0, f);
                  ib.add(0, -f);
                  rs += f * f + 1e-7;
                  rm.combine(f);
                },
                op2::arg_direct(w, op2::Acc::R),
                op2::arg_indirect(q, m.e2n, 0, op2::Acc::R),
                op2::arg_indirect(q, m.e2n, 1, op2::Acc::R),
                op2::arg_inc(acc, m.e2n, 0), op2::arg_inc(acc, m.e2n, 1),
                op2::arg_gbl(sum, op2::RedOp::Sum),
                op2::arg_gbl(mn, op2::RedOp::Min));
  return {sum, mn};
}

class Op2GblDeterminism : public ::testing::TestWithParam<Strategy> {};

TEST_P(Op2GblDeterminism, SumAndMinBitEqualSerial) {
  const auto serial = gbl_sweep(GetParam(), op2::Exec::Serial);
  for (int rep = 0; rep < 2; ++rep) {
    const auto threads = gbl_sweep(GetParam(), op2::Exec::Threads);
    EXPECT_TRUE(BitEqual(threads.first, serial.first)) << "sum";
    EXPECT_TRUE(BitEqual(threads.second, serial.second)) << "min";
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, Op2GblDeterminism,
                         ::testing::Values(Strategy::Atomics,
                                           Strategy::GlobalColor,
                                           Strategy::Hierarchical,
                                           Strategy::Staged),
                         [](const auto& ti) {
                           return std::string(syclport::to_string(ti.param));
                         });

// --- miniSYCL reductions -----------------------------------------------------

TEST(SyclReduction, FlatAndNdBitStable) {
  sycl::queue q;
  std::vector<double> v(100003);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1.0 / (1.0 + static_cast<double>(i % 1009));
  const double* p = v.data();
  auto flat = [&] {
    double s = 0.0;
    q.parallel_for(sycl::range<1>(v.size()),
                   sycl::reduction(&s, sycl::plus<double>{}),
                   [=](sycl::id<1> i, auto& r) { r += p[i[0]]; });
    return s;
  };
  auto nd = [&] {
    double s = 0.0;
    q.parallel_for(sycl::nd_range<1>(sycl::range<1>(100032), sycl::range<1>(64)),
                   sycl::reduction(&s, sycl::plus<double>{}),
                   [=](sycl::nd_item<1> it, auto& r) {
                     const std::size_t i = it.get_global_id(0);
                     if (i < 100003) r += p[i];
                   });
    return s;
  };
  auto tree = [&] {
    double s = 0.0;
    ops::tree_reduce(q, p, v.size(), 0.0, sycl::plus<double>{}, &s, 64);
    return s;
  };
  // Reference fold in the documented order: kReduceChunk blocks (flat)
  // or 64-item groups (nd), each accumulated ascending, then folded.
  auto blocked = [&](std::size_t block) {
    double total = 0.0;
    for (std::size_t b = 0; b < v.size(); b += block) {
      double part = 0.0;
      for (std::size_t i = b; i < std::min(v.size(), b + block); ++i)
        part += v[i];
      total += part;
    }
    return total;
  };
  EXPECT_TRUE(BitEqual(flat(), blocked(syclport::kReduceChunk)));
  EXPECT_TRUE(BitEqual(nd(), blocked(64)));
  const double t0 = tree();
  for (int rep = 0; rep < 3; ++rep) EXPECT_TRUE(BitEqual(tree(), t0));
}

}  // namespace
