// Ablation: out-of-order queue scheduling (docs/queue.md).
//
// Two experiments on the miniSYCL DAG scheduler:
//   1. independent - N command groups with disjoint footprints, each
//      emulating a fixed-latency device kernel. An in-order queue pays
//      N back-to-back latencies; the out-of-order queue keeps several
//      in flight, so wall time shrinks toward N/workers. This is the
//      kernel-launch serialization effect the paper discusses for
//      small (boundary) kernels, made measurable.
//   2. chain - the same N commands but RAW-dependent on one buffer.
//      The DAG must serialize them, so the out-of-order queue can win
//      nothing; the per-launch difference against the in-order queue
//      is the pure scheduling overhead of DAG bookkeeping.
//
// Each experiment runs kPairs interleaved (in-order, out-of-order)
// pairs, alternating which side runs first, and reports the median of
// the per-pair figures, so slow drift of a shared host hits both sides
// of a pair alike. The independent-kernel wall ratio is gated: the
// binary exits 1 when its median exceeds kIndependentTarget. The
// chain's DAG overhead is printed but not gated (it is a few
// microseconds against a 500 us kernel, inside the sleep jitter).
//
// The command records in sycl::launch_log provide submit->start
// latency and dependency-edge counts per command.

#include <chrono>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "core/statistics.hpp"
#include "core/timing.hpp"
#include "sycl/sycl.hpp"

using namespace syclport;

namespace {

constexpr int kKernels = 32;
constexpr std::size_t kElems = 1024;
constexpr auto kKernelLatency = std::chrono::microseconds(500);
constexpr int kPairs = 9;
constexpr double kIndependentTarget = 0.7;

/// One emulated small device kernel: fixed latency plus a touch of the
/// command's own buffer (so the footprint is real, not a placebo).
void small_kernel(double* p) {
  std::this_thread::sleep_for(kKernelLatency);
  for (std::size_t i = 0; i < kElems; ++i) p[i] += 1.0;
}

double run_independent(sycl::queue q) {
  std::vector<std::vector<double>> bufs(
      kKernels, std::vector<double>(kElems, 0.0));
  WallTimer t;
  for (int c = 0; c < kKernels; ++c) {
    double* p = bufs[static_cast<std::size_t>(c)].data();
    q.submit([&](sycl::handler& h) {
      h.require(p, sycl::access_mode::read_write);
      h.single_task([p] { small_kernel(p); });
    });
  }
  q.wait();
  return t.seconds();
}

double run_chain(sycl::queue q) {
  std::vector<double> buf(kElems, 0.0);
  double* p = buf.data();
  WallTimer t;
  for (int c = 0; c < kKernels; ++c) {
    q.submit([&](sycl::handler& h) {
      h.require(p, sycl::access_mode::read_write);
      h.single_task([p] { small_kernel(p); });
    });
  }
  q.wait();
  return t.seconds();
}

/// kPairs interleaved (in-order, out-of-order) timings of one
/// experiment; odd pairs run the out-of-order side first. The
/// out-of-order runs are recorded in the launch log.
struct Pairs {
  std::vector<double> ordered, ooo;
  std::vector<sycl::command_record> commands;
};

Pairs run_pairs(const std::function<double(sycl::queue)>& experiment) {
  const sycl::property_list in_order{sycl::property::queue::in_order{}};
  auto& log = sycl::launch_log::instance();
  log.clear();
  Pairs p;
  auto ordered = [&] { p.ordered.push_back(experiment(sycl::queue{in_order})); };
  auto ooo = [&] {
    log.set_enabled(true);
    p.ooo.push_back(experiment(sycl::queue{}));
    log.set_enabled(false);
  };
  for (int i = 0; i < kPairs; ++i) {
    if (i % 2 == 0) {
      ordered();
      ooo();
    } else {
      ooo();
      ordered();
    }
  }
  p.commands = log.commands_snapshot();
  log.clear();
  return p;
}

double mean_dep_edges(const std::vector<sycl::command_record>& cmds) {
  double edges = 0.0;
  for (const auto& c : cmds) edges += static_cast<double>(c.profile.dep_edges);
  return cmds.empty() ? 0.0 : edges / static_cast<double>(cmds.size());
}

}  // namespace

int main() {
  std::cout << "=== Ablation: out-of-order queue ===\n\n";
  auto& sched = sycl::detail::Scheduler::instance();
  std::cout << "scheduler workers: " << sched.workers() << ", " << kPairs
            << " interleaved pairs per experiment\n\n";

  report::Table t({"section", "queue", "metric", "value"});

  // 1. Independent kernels: the latency-hiding case (gated).
  const Pairs ind = run_pairs(run_independent);
  std::vector<double> ind_ratios;
  for (int i = 0; i < kPairs; ++i)
    ind_ratios.push_back(ind.ooo[static_cast<std::size_t>(i)] /
                         ind.ordered[static_cast<std::size_t>(i)]);
  const double ind_ratio = stats::median(ind_ratios);
  double mean_latency = 0.0;
  for (const auto& c : ind.commands)
    mean_latency += c.profile.start_seconds - c.profile.submit_seconds;
  if (!ind.commands.empty())
    mean_latency /= static_cast<double>(ind.commands.size());
  t.add_row({"independent", "in_order", "wall_ms_median",
             report::fmt(stats::median(ind.ordered) * 1e3, 3)});
  t.add_row({"independent", "out_of_order", "wall_ms_median",
             report::fmt(stats::median(ind.ooo) * 1e3, 3)});
  t.add_row({"independent", "out_of_order", "wall_ratio_median",
             report::fmt(ind_ratio, 3)});
  t.add_row({"independent", "out_of_order", "wall_ratio_min",
             report::fmt(stats::min(ind_ratios), 3)});
  t.add_row({"independent", "out_of_order", "wall_ratio_max",
             report::fmt(stats::max(ind_ratios), 3)});
  t.add_row({"independent", "out_of_order", "submit_to_start_us",
             report::fmt(mean_latency * 1e6, 2)});
  t.add_row({"independent", "out_of_order", "mean_dep_edges",
             report::fmt(mean_dep_edges(ind.commands), 2)});
  const bool ind_ok = ind_ratio <= kIndependentTarget;
  std::cout << kKernels << " independent kernels: out-of-order / in-order "
            << "median ratio " << report::fmt(ind_ratio, 3) << " (pairs "
            << report::fmt(stats::min(ind_ratios), 3) << "-"
            << report::fmt(stats::max(ind_ratios), 3) << ", target <= "
            << report::fmt(kIndependentTarget, 1) << ": "
            << (ind_ok ? "ok" : "FAILED") << ")\n";

  // 2. Dependent chain: DAG bookkeeping overhead per launch (ungated).
  const Pairs ch = run_pairs(run_chain);
  std::vector<double> overheads_us;
  for (int i = 0; i < kPairs; ++i)
    overheads_us.push_back((ch.ooo[static_cast<std::size_t>(i)] -
                            ch.ordered[static_cast<std::size_t>(i)]) /
                           kKernels * 1e6);
  const double overhead_us = stats::median(overheads_us);
  t.add_row({"chain", "in_order", "wall_ms_median",
             report::fmt(stats::median(ch.ordered) * 1e3, 3)});
  t.add_row({"chain", "out_of_order", "wall_ms_median",
             report::fmt(stats::median(ch.ooo) * 1e3, 3)});
  t.add_row({"chain", "out_of_order", "sched_overhead_us_per_launch_median",
             report::fmt(overhead_us, 2)});
  t.add_row({"chain", "out_of_order", "mean_dep_edges",
             report::fmt(mean_dep_edges(ch.commands), 2)});
  std::cout << kKernels << "-deep RAW chain: "
            << report::fmt(overhead_us, 2)
            << " us/launch DAG overhead (median of pairs, not gated), "
            << "mean dep edges " << report::fmt(mean_dep_edges(ch.commands), 2)
            << "\n";

  std::cout << "\n";
  t.render(std::cout);
  if (t.save_csv("ablation_async.csv"))
    std::cout << "\nwrote ablation_async.csv\n";
  std::cout << "(independent kernels overlap across scheduler workers; "
               "dependent chains degenerate to in-order plus bounded "
               "bookkeeping.)\n";
  return ind_ok ? 0 : 1;
}
