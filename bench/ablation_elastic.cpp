// Ablation: cost and efficacy of the elastic recovery layer
// (docs/resilience.md "Elastic recovery").
//
// Two claims back the self-healing driver:
//
//   1. armed-but-no-failure parity - driving a step loop through
//      run_elastic (heartbeats off, shared kill rolls, watermark,
//      epoch wrapper) must stay within 2% of the identical loop driven
//      by plain mpi::run, both disarmed and under an armed-but-inert
//      rank.kill plan (parity >= 0.98 on both sides). Arming is
//      compared like-for-like because an armed plan also switches the
//      transport onto its seq+CRC path, a separate cost that
//      ablation_fault already accounts for. Timed as kPairs
//      interleaved (plain, elastic) pairs that alternate which side
//      runs first; the gate reads the median of the per-pair
//      plain/elastic ratios, so host drift hits both sides of a pair
//      alike instead of landing on one side's block of runs.
//
//   2. bounded-cost recovery - under live seeded kills every recovered
//      run is bit-exact versus an unfailed run, and the rollback never
//      exceeds the checkpoint cadence (rollback_steps <= ckpt_every).
//
// Emits ablation_elastic.csv next to the binary; exits nonzero when
// either gate fails.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/statistics.hpp"
#include "core/timing.hpp"
#include "minimpi/elastic.hpp"
#include "ops/dist.hpp"
#include "ops/dist_checkpoint.hpp"
#include "runtime/fault/fault.hpp"
#include "sycl/launch_log.hpp"

using namespace syclport;
namespace fault = rt::fault;
namespace dist = ops::dist;

namespace {

constexpr int kRanks = 4;
constexpr int kSteps = 12;
constexpr int kCkptEvery = 3;
constexpr std::size_t kGrid = 96;
/// Parity pairs per arming state. At this size one run takes ~5-15 ms
/// and single pair ratios spread by +-10-20% on a shared 4-vCPU host,
/// so the median of 31 pairs resolves the 2% bound to about 1%.
constexpr int kPairs = 31;
constexpr double kParityBound = 0.98;

/// One elastic Jacobi run; returns the canonical field (empty on
/// abort). Double-buffered with an elementwise copy back so the result
/// is bit-exact for any decomposition - shrink changes it mid-run.
std::vector<double> run_jacobi_elastic(const mpi::ElasticOptions& opts) {
  std::vector<double> out;
  mpi::run_elastic(kRanks, kSteps, opts, [&](mpi::Comm& comm,
                                             mpi::Epoch& ep) {
    dist::DistContext ctx(comm, 2);
    dist::DistDat<double> u(ctx, {kGrid, kGrid, 1}, 1),
        v(ctx, {kGrid, kGrid, 1}, 1);
    u.init([](std::size_t i, std::size_t j, std::size_t) {
      return 1.0 + 0.01 * static_cast<double>(i) +
             0.02 * static_cast<double>(j);
    });
    std::vector<dist::CkptField<double>> fields{{"u", &u}};
    if (ep.resuming()) dist::restore_canonical(ep.checkpoint_path(), fields);
    for (int s = ep.start_step(); s < kSteps; ++s) {
      u.exchange_halos();
      u.for_owned([&](std::size_t gi, std::size_t gj, std::size_t,
                      std::ptrdiff_t li, std::ptrdiff_t lj,
                      std::ptrdiff_t lk) {
        double x = u.field().at(li, lj, lk);
        if (gi > 0 && gi < kGrid - 1 && gj > 0 && gj < kGrid - 1)
          x = (x + u.field().at(li - 1, lj, lk) +
               u.field().at(li + 1, lj, lk) + u.field().at(li, lj - 1, lk) +
               u.field().at(li, lj + 1, lk)) /
              5.0;
        v.field().at(li, lj, lk) = x;
      });
      u.for_owned([&](std::size_t, std::size_t, std::size_t,
                      std::ptrdiff_t li, std::ptrdiff_t lj,
                      std::ptrdiff_t lk) {
        u.field().at(li, lj, lk) = v.field().at(li, lj, lk);
      });
      ep.step_done(s, [&] {
        dist::checkpoint_canonical(ep.checkpoint_path(), fields);
      });
    }
    auto canon = dist::gather_canonical(u);
    if (comm.rank() == 0) out = std::move(canon);
  });
  return out;
}

/// The identical step loop driven by plain mpi::run - the elastic
/// layer's overhead is the delta against this under the same arming.
void run_jacobi_plain(const std::string& ckpt_path) {
  mpi::run(kRanks, [&](mpi::Comm& comm) {
    dist::DistContext ctx(comm, 2);
    dist::DistDat<double> u(ctx, {kGrid, kGrid, 1}, 1),
        v(ctx, {kGrid, kGrid, 1}, 1);
    u.init([](std::size_t i, std::size_t j, std::size_t) {
      return 1.0 + 0.01 * static_cast<double>(i) +
             0.02 * static_cast<double>(j);
    });
    std::vector<dist::CkptField<double>> fields{{"u", &u}};
    for (int s = 0; s < kSteps; ++s) {
      u.exchange_halos();
      u.for_owned([&](std::size_t gi, std::size_t gj, std::size_t,
                      std::ptrdiff_t li, std::ptrdiff_t lj,
                      std::ptrdiff_t lk) {
        double x = u.field().at(li, lj, lk);
        if (gi > 0 && gi < kGrid - 1 && gj > 0 && gj < kGrid - 1)
          x = (x + u.field().at(li - 1, lj, lk) +
               u.field().at(li + 1, lj, lk) + u.field().at(li, lj - 1, lk) +
               u.field().at(li, lj + 1, lk)) /
              5.0;
        v.field().at(li, lj, lk) = x;
      });
      u.for_owned([&](std::size_t, std::size_t, std::size_t,
                      std::ptrdiff_t li, std::ptrdiff_t lj,
                      std::ptrdiff_t lk) {
        u.field().at(li, lj, lk) = v.field().at(li, lj, lk);
      });
      if ((s + 1) % kCkptEvery == 0)
        dist::checkpoint_canonical(ckpt_path, fields);
    }
    (void)dist::gather_canonical(u);
  });
}

}  // namespace

int main() {
  report::Table t({"mode", "spec", "seed", "outcome", "kills", "epochs",
                   "max_rollback", "seconds", "paired_parity"});
  int gate_failures = 0;

  mpi::ElasticOptions opts;
  opts.policy = mpi::Recovery::Shrink;
  opts.ckpt_every = kCkptEvery;
  opts.ckpt_path = "ablation_elastic_ckpt.bin";

  // Part 1: plain-loop vs elastic-driver parity, like-for-like under
  // each arming state (no kill ever fires; both sides pay the same
  // transport and the same checkpoint cadence).
  fault::clear();
  const std::vector<double> reference = run_jacobi_elastic(opts);
  const auto parity_pair = [&](const char* mode) {
    std::vector<double> plain, elastic, ratios;
    const auto time_plain = [&] {
      WallTimer w;
      run_jacobi_plain(opts.ckpt_path);
      plain.push_back(w.seconds());
    };
    const auto time_elastic = [&] {
      WallTimer w;
      (void)run_jacobi_elastic(opts);
      elastic.push_back(w.seconds());
    };
    for (int i = 0; i < kPairs; ++i) {
      if (i % 2 == 0) {
        time_plain();
        time_elastic();
      } else {
        time_elastic();
        time_plain();
      }
      ratios.push_back(plain.back() / elastic.back());
    }
    const double plain_s = stats::median(plain);
    const double elastic_s = stats::median(elastic);
    const double parity = stats::median(ratios);
    t.add_row({std::string(mode) + "-plain", "-", "-", "exact", "0", "1",
               "0", std::to_string(plain_s), "-"});
    t.add_row({std::string(mode) + "-elastic", "-", "-", "exact", "0", "1",
               "0", std::to_string(elastic_s), std::to_string(parity)});
    std::cout << mode << ": plain " << plain_s << " s, elastic " << elastic_s
              << " s (medians); paired parity median " << parity
              << " over " << kPairs << " pairs (range "
              << stats::min(ratios) << "-" << stats::max(ratios) << ")\n";
    if (parity < kParityBound) {
      std::cerr << mode << " parity gate failed: " << parity << " < "
                << kParityBound << "\n";
      ++gate_failures;
    }
  };
  parity_pair("disarmed");
  fault::reset_stats_for_testing();
  if (!fault::configure("1:rank.kill=0.0"))
    std::cerr << "inert plan rejected\n";
  parity_pair("armed-inert");
  fault::clear();

  // Part 2: seeded kill sweep - bit-exact recovery, bounded rollback.
  struct KillCase {
    mpi::Recovery policy;
    const char* spec;
  };
  const KillCase cases[] = {
      {mpi::Recovery::Shrink, "rank.kill=@4x1"},
      {mpi::Recovery::Shrink, "rank.kill=%5x2"},
      {mpi::Recovery::Respawn, "rank.kill=@4x1"},
      {mpi::Recovery::Respawn, "rank.kill=%5x2"},
  };
  for (const KillCase& c : cases) {
    for (const std::uint64_t seed : {7u, 8u, 9u}) {
      mpi::ElasticOptions armed = opts;
      armed.policy = c.policy;
      fault::reset_stats_for_testing();
      if (!fault::configure(std::to_string(seed) + ":" + c.spec)) {
        std::cerr << "bad spec " << c.spec << "\n";
        continue;
      }
      const std::size_t recs_before =
          sycl::launch_log::instance().recovery_snapshot().size();
      WallTimer w;
      const std::vector<double> got = run_jacobi_elastic(armed);
      const double secs = w.seconds();
      const auto kills = fault::stats().injected_at(fault::Site::RankKill);
      fault::clear();

      const auto recs = sycl::launch_log::instance().recovery_snapshot();
      int max_rollback = 0;
      for (std::size_t i = recs_before; i < recs.size(); ++i)
        max_rollback = std::max(max_rollback, recs[i].rollback_steps);
      const bool exact =
          got.size() == reference.size() &&
          std::memcmp(got.data(), reference.data(),
                      reference.size() * sizeof(double)) == 0;
      const bool bounded = max_rollback <= kCkptEvery;
      std::string outcome = !exact      ? "SILENT-CORRUPTION"
                            : !bounded  ? "ROLLBACK-UNBOUNDED"
                                        : "exact";
      if (outcome != "exact") ++gate_failures;
      t.add_row({std::string("kill-") + mpi::to_string(c.policy), c.spec,
                 std::to_string(seed), outcome, std::to_string(kills),
                 std::to_string(recs.size() - recs_before + 1),
                 std::to_string(max_rollback), std::to_string(secs), "-"});
    }
  }
  std::remove(opts.ckpt_path.c_str());

  t.render(std::cout);
  if (t.save_csv("ablation_elastic.csv"))
    std::cout << "\nwrote ablation_elastic.csv\n";
  if (gate_failures != 0) {
    std::cerr << gate_failures << " gate failure(s)\n";
    return 1;
  }
  return 0;
}
