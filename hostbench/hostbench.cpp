// hostbench: one process of the host benchmark. hostbench/run.py
// drives it (README.md gives the workloads, metrics and trace format);
// every mode prints one JSON object as its last line of stdout.
//
//   hostbench triad --bytes N --threads T
//       the benchmark's own plain Triad (host sentinel, not the program)
//   hostbench setup|run|trace --workload W --seed S [--seconds X]
//             [--smoke] [--study-ref FILE] [--trace-file FILE]
//       setup: preparation plus one cold unit, then exit
//       run:   setup, then units for X seconds, then the Serial reference
//       trace: as run, alternating traced and untraced units, then the
//              per-layer probes; spans go to FILE (Chrome trace JSON)
//   hostbench study-reference
//       print the study-sweep cells in the reference-file format
//
// Spans are recorded only here, around calls into each layer's public
// entry points; nothing inside the program is instrumented.

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "op2/locality.hpp"
#include "op2/plan.hpp"
#include "ops/ops.hpp"
#include "runtime/mem/mem.hpp"
#include "runtime/thread_pool.hpp"
#include "study/study.hpp"
#include "sycl/sycl.hpp"

namespace {

using namespace syclport;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string exact(double d) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

std::string hex_bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, u);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double d) {
  if (!std::isfinite(d)) return "null";
  return exact(d);
}

/// splitmix64: the benchmark's input generator (portable across
/// standard libraries, unlike <random>'s distributions).
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  int pick(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

// ---------------------------------------------------------------- spans

/// In-memory span recorder: name, layer, start, end, parent span and
/// unit id. Written once at exit as Chrome trace-event JSON.
class Tracer {
 public:
  bool enabled = false;
  int unit = -1;  ///< unit id stamped on new spans (-1: outside units)

  int open(std::string name, const char* layer) {
    if (!enabled) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), layer, now_s(), 0.0,
                      stack_.empty() ? -1 : stack_.back(), unit});
    stack_.push_back(id);
    return id;
  }
  /// Closes span `id` and returns its duration in seconds.
  double close(int id) {
    if (id < 0) return 0.0;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now_s();
    stack_.pop_back();
    return s.t1 - s.t0;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                    (s.t0 - origin_) * 1e6, (s.t1 - s.t0) * 1e6);
      out << (i ? ",\n" : "") << "{\"name\":" << quoted(s.name)
          << ",\"cat\":" << quoted(s.layer) << "," << buf
          << "\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"unit\":" << s.unit << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("short write to trace file " + path);
  }

 private:
  struct Span {
    std::string name;
    const char* layer;
    double t0, t1;
    int parent, unit;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
  double origin_ = now_s();
};

Tracer g_trace;

class SpanScope {
 public:
  SpanScope(std::string name, const char* layer)
      : id_(g_trace.open(std::move(name), layer)) {}
  ~SpanScope() { g_trace.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

// ------------------------------------------------------------ workloads

/// What one unit of work produced. A unit is one full app run
/// (including its field setup) or one full study sweep.
struct UnitResult {
  double seconds = 0.0;
  bool ok = true;
  std::string error;
  std::optional<double> checksum;  ///< app workloads
  std::size_t mismatches = 0;      ///< study-sweep cells off the reference
  std::size_t loops = 0;           ///< par_loops recorded (RunSummary profiles)
  bool traced = false;
  double fusion_eliminated_bytes = 0; ///< launch_log fusion stats (traced)
};

/// Grid and backend the per-layer probes use, derived from the
/// workload's own sizes.
struct ProbeShape {
  std::size_t ny = 256, nx = 256;
  ops::Backend backend = ops::Backend::Threads;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Preparation outside the units (mesh build, reference load);
  /// counted in setup_s.
  virtual void prepare() {}
  /// One unit's work; fills in r's checksum (apps) or mismatch count.
  virtual void unit(UnitResult& r) = 0;
  /// The Serial-backend checksum of the same inputs (apps only).
  virtual std::optional<double> reference() { return std::nullopt; }
  /// Modeled useful bytes of one unit (RunSummary::useful_bytes, or the
  /// sum over the sweep's cells).
  [[nodiscard]] double useful_bytes() const { return useful_bytes_; }
  [[nodiscard]] virtual std::string size() const = 0;
  [[nodiscard]] virtual ProbeShape probe_shape() const = 0;

 protected:
  double useful_bytes_ = 0.0;
};

/// CloverLeaf2D. The seed takes each grid extent from [n-3, n]: every
/// seed is a different input, and with n a multiple of the nd_range
/// work-group shape the padded launch shape stays the same.
class CloverWorkload final : public Workload {
 public:
  CloverWorkload(std::size_t n, int iters, ops::Backend backend,
                 std::uint64_t seed)
      : backend_(backend) {
    SplitMix rng{seed};
    const auto ny = n - static_cast<std::size_t>(rng.pick(0, 3));
    const auto nx = n - static_cast<std::size_t>(rng.pick(0, 3));
    ps_ = {{ny, nx, 1}, iters};
  }

  void unit(UnitResult& r) override {
    ops::Options o;
    o.backend = backend_;
    const apps::RunSummary rs = apps::run_cloverleaf2d(o, ps_);
    r.checksum = rs.checksum;
    r.loops = rs.profiles.size();
    useful_bytes_ = rs.useful_bytes();
  }

  std::optional<double> reference() override {
    ops::Options o;
    o.backend = ops::Backend::Serial;
    return apps::run_cloverleaf2d(o, ps_).checksum;
  }

  [[nodiscard]] std::string size() const override {
    return std::to_string(ps_.grid[0]) + "x" + std::to_string(ps_.grid[1]) +
           " cells, " + std::to_string(ps_.iters) + " steps";
  }
  [[nodiscard]] ProbeShape probe_shape() const override {
    return {ps_.grid[0], ps_.grid[1], backend_};
  }

 private:
  apps::ProblemSize ps_;
  ops::Backend backend_;
};

/// MG-CFD on the bench mesh. The seed jitters the node coordinates
/// (relative 1e-4), which sets the initial state and edge weights; the
/// mesh structure is the same for every seed.
class MgcfdWorkload final : public Workload {
 public:
  MgcfdWorkload(apps::MgcfdConfig cfg, std::uint64_t seed)
      : cfg_(cfg), seed_(seed) {}

  void prepare() override {
    mesh_ = apps::mgcfd::build_rotor_mesh(cfg_.ni, cfg_.nj, cfg_.nk,
                                          cfg_.levels);
    SplitMix rng{seed_};
    for (auto& lvl : mesh_.levels)
      for (auto& c : lvl.coords)
        for (double& x : c) x *= 1.0 + 1e-4 * (rng.uniform() - 0.5);
  }

  void unit(UnitResult& r) override {
    op2::Options o;  // Threads, default (atomics) strategy
    const apps::RunSummary rs = apps::run_mgcfd(o, mesh_, cfg_.iters);
    r.checksum = rs.checksum;
    r.loops = rs.profiles.size();
    useful_bytes_ = rs.useful_bytes();
  }

  std::optional<double> reference() override {
    op2::Options o;
    o.exec = op2::Exec::Serial;
    return apps::run_mgcfd(o, mesh_, cfg_.iters).checksum;
  }

  [[nodiscard]] std::string size() const override {
    return std::to_string(cfg_.ni) + "x" + std::to_string(cfg_.nj) + "x" +
           std::to_string(cfg_.nk) + " nodes, " +
           std::to_string(cfg_.levels) + " levels, " +
           std::to_string(cfg_.iters) + " V-cycles";
  }
  [[nodiscard]] ProbeShape probe_shape() const override {
    // A square grid with as many cells as the fine level has nodes.
    const auto side = static_cast<std::size_t>(
        std::sqrt(static_cast<double>(cfg_.ni * cfg_.nj * cfg_.nk)));
    return {side, side, ops::Backend::Threads};
  }

 private:
  apps::MgcfdConfig cfg_;
  std::uint64_t seed_;
  apps::mgcfd::MultigridMesh mesh_;
};

struct Cell {
  AppId app;
  PlatformId platform;
  Variant variant;
};

std::vector<Cell> study_cells() {
  std::vector<Cell> cells;
  for (AppId a : kAllApps)
    for (PlatformId p : kAllPlatforms)
      for (const Variant& v : a == AppId::MGCFD ? study::mgcfd_variants(p)
                                                : study::structured_variants(p))
        cells.push_back({a, p, v});
  return cells;
}

std::string cell_key(const Cell& c) {
  return std::string(to_string(c.app)) + "\t" +
         std::string(to_string(c.platform)) + "\t" + to_string(c.variant);
}

/// The compared part of a cell: status and the bits of runtime and
/// efficiency.
std::string cell_value(const study::ExperimentResult& r) {
  return std::string(to_string(r.status)) + "\t" + hex_bits(r.runtime_s) +
         "\t" + hex_bits(r.efficiency);
}

/// One reference-file line: key, compared value, then runtime and
/// efficiency as %.17g for readers.
std::string cell_line(const Cell& c, const study::ExperimentResult& r) {
  return cell_key(c) + "\t" + cell_value(r) + "\t" + exact(r.runtime_s) +
         "\t" + exact(r.efficiency);
}

/// Metric-name slug of an app ("study.schedule_s.<slug>").
std::string app_slug(AppId a) {
  std::string s;
  for (const char c : to_string(a)) {
    if (c == '-') s += '_';
    else s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

/// A fresh StudyRunner over the full app x platform x variant matrix,
/// visited in a seeded order; every cell is compared bit-for-bit with
/// the reference file kept with the benchmark.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::string ref_path, std::uint64_t seed)
      : ref_path_(std::move(ref_path)), seed_(seed) {}

  void prepare() override {
    cells_ = study_cells();
    SplitMix rng{seed_};
    for (std::size_t i = cells_.size(); i > 1; --i)  // Fisher-Yates
      std::swap(cells_[i - 1], cells_[rng.next() % i]);
    std::ifstream in(ref_path_);
    if (!in) throw std::runtime_error("cannot read " + ref_path_);
    for (std::string line; std::getline(in, line);) {
      if (line.empty() || line[0] == '#') continue;
      std::vector<std::string> f;
      std::stringstream ss(line);
      for (std::string x; std::getline(ss, x, '\t');) f.push_back(x);
      if (f.size() < 6) throw std::runtime_error("bad line in " + ref_path_);
      reference_[f[0] + "\t" + f[1] + "\t" + f[2]] =
          f[3] + "\t" + f[4] + "\t" + f[5];
    }
    if (reference_.size() != cells_.size())
      throw std::runtime_error(ref_path_ + " has " +
                               std::to_string(reference_.size()) +
                               " cells, the sweep has " +
                               std::to_string(cells_.size()));
  }

  void unit(UnitResult& r) override {
    study::StudyRunner runner;
    double bytes = 0.0;
    std::map<std::string, double> sched;
    for (const Cell& c : cells_) {
      study::ExperimentResult res;
      if (!g_trace.enabled) {
        res = runner.run(c.app, c.platform, c.variant);
      } else {
        // StudyRunner::run, split at its layer boundaries.
        res.status = SupportMatrix::paper().status(c.platform, c.app,
                                                   c.variant);
        if (res.status == Status::Ok) {
          const int s = g_trace.open("schedule_for", "study");
          const auto& profiles = runner.schedule_for(c.app, c.variant);
          sched[app_slug(c.app)] += g_trace.close(s);
          const int a = g_trace.open("aggregate_cell", "hwmodel");
          res = study::aggregate_cell(profiles, c.app, c.platform, c.variant);
          aggregate_us.push_back(g_trace.close(a) * 1e6);
        }
      }
      if (res.ok()) bytes += res.useful_bytes;
      const auto it = reference_.find(cell_key(c));
      if (it == reference_.end() || it->second != cell_value(res)) {
        if (r.mismatches++ < 3)
          std::fprintf(stderr, "study-sweep mismatch: %s\n  got      %s\n"
                       "  expected %s\n", cell_key(c).c_str(),
                       cell_value(res).c_str(),
                       it == reference_.end() ? "(none)" : it->second.c_str());
      }
    }
    useful_bytes_ = bytes;
    schedules_built = runner.schedule_count();
    if (g_trace.enabled)
      for (const auto& [app, s] : sched) schedule_s[app].push_back(s);
  }

  [[nodiscard]] std::string size() const override {
    return std::to_string(cells_.size()) + " cells";
  }
  [[nodiscard]] ProbeShape probe_shape() const override { return {}; }

  // Traced-sweep timings, read by the per-layer report.
  std::map<std::string, std::vector<double>> schedule_s;
  std::vector<double> aggregate_us;
  std::size_t schedules_built = 0;

 private:
  std::string ref_path_;
  std::uint64_t seed_;
  std::vector<Cell> cells_;
  std::map<std::string, std::string> reference_;  ///< key -> value
};

// ------------------------------------------------------------ arguments

struct Args {
  std::string mode;
  std::string workload;
  std::string study_ref = "hostbench/study_reference.tsv";
  std::string trace_file;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool smoke = false;
  std::size_t bytes = 0;
  unsigned threads = 1;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--study-ref") a.study_ref = v;
    else if (k == "--trace-file") a.trace_file = v;
    else if (k == "--bytes") a.bytes = std::stoull(v);
    else if (k == "--threads") a.threads = static_cast<unsigned>(std::stoul(v));
    else throw std::invalid_argument("unknown option " + k);
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  const std::uint64_t seed = a.seed;
  if (a.workload == "clover2d-dram")
    return std::make_unique<CloverWorkload>(a.smoke ? 64 : 2048, 1,
                                            ops::Backend::Threads, seed);
  if (a.workload == "clover2d-nd-launch")
    return std::make_unique<CloverWorkload>(a.smoke ? 16 : 64,
                                            a.smoke ? 5 : 200,
                                            ops::Backend::SyclNd, seed);
  if (a.workload == "mgcfd-indirect") {
    apps::MgcfdConfig cfg = a.smoke ? apps::mgcfd_small() : apps::mgcfd_bench();
    if (!a.smoke) cfg.iters = 10;
    return std::make_unique<MgcfdWorkload>(cfg, seed);
  }
  if (a.workload == "study-sweep")
    return std::make_unique<SweepWorkload>(a.study_ref, seed);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

// --------------------------------------------------------- host sentinel

/// Plain STREAM Triad a = b + s*c on the benchmark's own threads, with
/// a static partition so each thread touches the pages it first placed.
/// Returns the median GB/s of the timed passes (3 x 8 bytes/element).
int triad_main(const Args& a) {
  const std::size_t n = std::max<std::size_t>(a.bytes / 24, 1 << 20);
  const unsigned t = std::max(1u, a.threads);
  std::unique_ptr<double[]> A(new double[n]), B(new double[n]), C(new double[n]);
  auto sweep = [&](auto&& body) {
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < t; ++w)
      ts.emplace_back([&, w] { body(n * w / t, n * (w + 1) / t); });
    for (auto& th : ts) th.join();
  };
  sweep([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      A[i] = 0.0;
      B[i] = 1.0;
      C[i] = 2.0;
    }
  });
  std::vector<double> gbs;
  for (int pass = 0; pass < 11; ++pass) {
    const double t0 = now_s();
    sweep([&](std::size_t lo, std::size_t hi) {
      double* __restrict pa = A.get();
      const double* __restrict pb = B.get();
      const double* __restrict pc = C.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + 0.4 * pc[i];
    });
    const double dt = now_s() - t0;
    if (pass > 0) gbs.push_back(24.0 * static_cast<double>(n) / dt / 1e9);
  }
  if (A[n / 2] != 1.8) throw std::runtime_error("triad result is wrong");
  std::string passes;
  for (const double g : gbs) passes += (passes.empty() ? "" : ",") + num(g);
  std::printf("{\"triad_gbs\":%s,\"passes_gbs\":[%s],\"array_bytes\":%zu,"
              "\"threads\":%u}\n",
              num(median(gbs)).c_str(), passes.c_str(), n * sizeof(double), t);
  return 0;
}

// -------------------------------------------------------------- probes

/// Median microseconds per call of `f`: calls are batched so one batch
/// lasts ~10 ms, and batches repeat within ~`budget_s`.
template <typename F>
double per_call_us(F&& f, double budget_s = 0.3) {
  const double t0 = now_s();
  f();
  const double first = std::max(now_s() - t0, 1e-7);
  const int calls = std::clamp(static_cast<int>(0.01 / first), 1, 500);
  const int batches = std::clamp(
      static_cast<int>(budget_s / (first * calls)), 3, 15);
  std::vector<double> us;
  for (int b = 0; b < batches; ++b) {
    const double s = now_s();
    for (int c = 0; c < calls; ++c) f();
    us.push_back((now_s() - s) / calls * 1e6);
  }
  return median(us);
}

using Metrics = std::vector<std::pair<std::string, double>>;

/// Empty-body launches through the executor and miniSYCL.
void probe_runtime_sycl(const ProbeShape& ps, Metrics& m) {
  const std::size_t cells = ps.ny * ps.nx;
  {
    SpanScope s("empty_launch", "runtime");
    m.emplace_back("runtime.empty_launch_us", per_call_us([&] {
      rt::ThreadPool::global().parallel_for(cells,
                                            [](std::size_t, std::size_t) {});
    }));
  }
  sycl::queue q;
  const std::size_t ly = 4, lx = 64;  // ops::Options::nd_local's 2-D shape
  const sycl::nd_range<2> nd(
      sycl::range<2>((ps.ny + ly - 1) / ly * ly, (ps.nx + lx - 1) / lx * lx),
      sycl::range<2>(ly, lx));
  {
    SpanScope s("nd_launch", "sycl");
    m.emplace_back("sycl.nd_launch_us", per_call_us([&] {
      q.parallel_for(nd, [](sycl::nd_item<2>) {});
    }));
  }
  {
    SpanScope s("flat_launch", "sycl");
    m.emplace_back("sycl.flat_launch_us", per_call_us([&] {
      q.parallel_for(sycl::range<2>(ps.ny, ps.nx), [](sycl::item<2>) {});
    }));
  }
  {
    // A chain of out-of-order command groups, each depending on the
    // previous through a read_write footprint on one value.
    SpanScope s("ooo_dep_launch", "sycl");
    double value = 0.0;
    double* p = &value;
    constexpr int kChain = 64;
    m.emplace_back("sycl.ooo_dep_launch_us", per_call_us([&] {
      for (int i = 0; i < kChain; ++i)
        q.submit([&](sycl::handler& h) {
          h.require(p, sycl::access_mode::read_write);
          h.single_task([p] { *p += 1.0; });
        });
      q.wait();
    }) / kChain);
  }
}

/// ops: tiny-range dispatch, Triad and dot at the workload's grid.
void probe_ops(const ProbeShape& ps, Metrics& m) {
  ops::Options o;
  o.backend = ps.backend;
  ops::Context ctx(o);
  {
    SpanScope s("par_loop_tiny", "ops");
    ops::Block tiny(ctx, "tiny", 2, {8, 8, 1});
    ops::Dat<double> d(tiny, "d", 1, 1);
    m.emplace_back("ops.par_loop_tiny_us", per_call_us([&] {
      ops::par_loop(ctx, {"tiny", hw::KernelClass::Interior, 1.0}, tiny,
                    ops::Range::all(tiny),
                    [](ops::ACC<double> x) { x(0, 0) += 1.0; },
                    ops::arg(d, ops::S_PT, ops::Acc::RW));
      ctx.clear_profiles();
    }));
  }
  ops::Block grid(ctx, "probe", 2, {ps.ny, ps.nx, 1});
  ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1), c(grid, "c", 1, 1);
  ops::par_loop(ctx, {"init", hw::KernelClass::Interior, 0.0}, grid,
                ops::Range::all(grid),
                [](ops::ACC<double> x, ops::ACC<double> y) {
                  x(0, 0) = 1.0;
                  y(0, 0) = 2.0;
                },
                ops::arg(b, ops::S_PT, ops::Acc::W),
                ops::arg(c, ops::S_PT, ops::Acc::W));
  const double cells = static_cast<double>(ps.ny * ps.nx);
  double triad_us = 0.0, dot_us = 0.0, dot = 0.0;
  {
    SpanScope s("triad", "ops");
    triad_us = per_call_us([&] {
      ops::par_loop(ctx, {"triad", hw::KernelClass::Interior, 2.0}, grid,
                    ops::Range::all(grid),
                    [](ops::ACC<double> x, ops::ACC<double> y,
                       ops::ACC<double> z) { x(0, 0) = y(0, 0) + 0.4 * z(0, 0); },
                    ops::arg(a, ops::S_PT, ops::Acc::W),
                    ops::arg(b, ops::S_PT, ops::Acc::R),
                    ops::arg(c, ops::S_PT, ops::Acc::R));
      ctx.clear_profiles();
    }, 1.0);
  }
  {
    SpanScope s("dot", "ops");
    dot_us = per_call_us([&] {
      dot = 0.0;
      ops::par_loop(ctx, {"dot", hw::KernelClass::Reduction, 2.0}, grid,
                    ops::Range::all(grid),
                    [](ops::ACC<double> x, ops::ACC<double> y,
                       ops::Reducer<double> r) { r += x(0, 0) * y(0, 0); },
                    ops::arg(a, ops::S_PT, ops::Acc::R),
                    ops::arg(c, ops::S_PT, ops::Acc::R),
                    ops::reduce(dot, ops::RedOp::Sum));
      ctx.clear_profiles();
    }, 1.0);
  }
  if (std::fabs(dot - 3.6 * cells) > 1e-9 * 3.6 * cells)
    throw std::runtime_error("ops dot probe: got " + exact(dot) +
                             ", expected " + exact(3.6 * cells));
  const double triad_gbs = 24.0 * cells / triad_us / 1e3;
  const double dot_gbs = 16.0 * cells / dot_us / 1e3;
  m.emplace_back("ops.triad_gbs", triad_gbs);
  m.emplace_back("ops.dot_gbs", dot_gbs);
  m.emplace_back("ops.dot_over_triad", dot_gbs / triad_gbs);
}

/// rt::mem: pooled alloc/free pair and fresh first-touch bandwidth at
/// the size of one of the workload's fields.
void probe_mem(const ProbeShape& ps, Metrics& m) {
  const std::size_t bytes = ps.ny * ps.nx * sizeof(double);
  {
    SpanScope s("alloc_free", "mem");
    m.emplace_back("mem.alloc_free_us", per_call_us([&] {
      rt::mem::dealloc(rt::mem::alloc(bytes, rt::mem::Init::Touch));
    }));
  }
  SpanScope s("first_touch", "mem");
  std::vector<double> gbs;
  for (int i = 0; i < 5; ++i) {
    rt::mem::trim();  // the next block comes fresh from the OS
    const double t0 = now_s();
    void* p = rt::mem::alloc(bytes, rt::mem::Init::Touch);
    gbs.push_back(static_cast<double>(bytes) / (now_s() - t0) / 1e9);
    rt::mem::dealloc(p);
  }
  m.emplace_back("mem.first_touch_gbs", median(gbs));
}

/// op2: the edge-flux loop (gather two nodes, INC both) under every
/// race-resolution strategy, plan builds and the gather measurement, on
/// the fine level of the bench mesh; plus the mesh build itself.
void probe_op2(bool smoke, Metrics& m) {
  const apps::MgcfdConfig cfg = smoke ? apps::mgcfd_small() : apps::mgcfd_bench();
  std::vector<double> build_s;
  apps::mgcfd::MultigridMesh mesh;
  for (int i = 0; i < 3; ++i) {
    SpanScope s("mgcfd_mesh_build", "apps");
    const double t0 = now_s();
    mesh = apps::mgcfd::build_rotor_mesh(cfg.ni, cfg.nj, cfg.nk, cfg.levels);
    build_s.push_back(now_s() - t0);
  }
  m.emplace_back("apps.mgcfd_mesh_build_s", median(build_s));

  auto& lvl = mesh.levels.front();
  auto& e2n = *lvl.e2n;
  struct Named {
    Strategy s;
    const char* name;
  };
  for (const Named st : {Named{Strategy::Atomics, "atomics"},
                         Named{Strategy::GlobalColor, "global"},
                         Named{Strategy::Hierarchical, "hierarchical"},
                         Named{Strategy::Staged, "staged"}}) {
    SpanScope s(std::string("flux.") + st.name, "op2");
    op2::Options o;
    o.strategy = st.s;
    op2::Context ctx(o);
    op2::Dat<double> q(*lvl.nodes, 5, "q"), f(*lvl.nodes, 5, "f");
    op2::Dat<double> w(*lvl.edges, 3, "w");
    for (std::size_t n = 0; n < lvl.nodes->size(); ++n)
      for (int c = 0; c < 5; ++c)
        q.at(n, c) = 1.0 + 0.1 * c + 1e-3 * static_cast<double>(n % 13);
    for (std::size_t e = 0; e < lvl.edges->size(); ++e)
      for (int c = 0; c < 3; ++c) {
        const auto& pa = lvl.coords[static_cast<std::size_t>(e2n.at(e, 0))];
        const auto& pb = lvl.coords[static_cast<std::size_t>(e2n.at(e, 1))];
        w.at(e, c) = 0.5 * (pb[static_cast<std::size_t>(c)] -
                            pa[static_cast<std::size_t>(c)]);
      }
    const double us = per_call_us([&] {
      op2::par_loop(ctx, {"probe_flux", 60.0}, *lvl.edges,
                    [](const double* wv, const double* qa, const double* qb,
                       op2::Inc<double> fa, op2::Inc<double> fb) {
                      const double nn = std::sqrt(wv[0] * wv[0] + wv[1] * wv[1] +
                                                  wv[2] * wv[2]);
                      for (int c = 0; c < 5; ++c) {
                        const double flux = 0.5 * nn * (qa[c] + qb[c]) -
                                            0.5 * nn * (qb[c] - qa[c]);
                        fa.add(c, -flux);
                        fb.add(c, flux);
                      }
                    },
                    op2::arg_direct(w, op2::Acc::R),
                    op2::arg_indirect(q, e2n, 0, op2::Acc::R),
                    op2::arg_indirect(q, e2n, 1, op2::Acc::R),
                    op2::arg_inc(f, e2n, 0), op2::arg_inc(f, e2n, 1));
      ctx.clear_profiles();
    }, 0.5);
    m.emplace_back(std::string("op2.flux_ms.") + st.name, us / 1e3);
  }
  for (const Named st : {Named{Strategy::GlobalColor, "global"},
                         Named{Strategy::Hierarchical, "hierarchical"}}) {
    SpanScope s(std::string("build_plan.") + st.name, "op2");
    m.emplace_back(std::string("op2.plan_build_ms.") + st.name,
                   per_call_us([&] {
                     const op2::Plan p = op2::build_plan(e2n, st.s, 256);
                     if (p.launches() == 0) throw std::runtime_error("empty plan");
                   }, 0.5) / 1e3);
  }
  SpanScope s("measure_gather", "op2");
  std::vector<int> order(lvl.edges->size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  m.emplace_back("op2.gather_ms", per_call_us([&] {
    const op2::GatherStats g = op2::measure_gather(e2n, 5, sizeof(double), order);
    if (!(g.line_factor >= 1.0)) throw std::runtime_error("bad gather stats");
  }, 0.5) / 1e3);
}

// ------------------------------------------------------------ drivers

long threads_now() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stol(line.substr(8));
  return -1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

UnitResult run_unit(Workload& w, bool traced, int id) {
  auto& log = sycl::launch_log::instance();
  UnitResult r;
  r.traced = traced;
  g_trace.enabled = traced;
  g_trace.unit = id;
  if (traced) {
    log.clear();
    log.set_enabled(true);
  }
  const int span = g_trace.open("unit", "bench");
  const double t0 = now_s();
  try {
    w.unit(r);
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.seconds = now_s() - t0;
  g_trace.close(span);
  if (traced) {
    log.set_enabled(false);
    r.fusion_eliminated_bytes = log.fusion_stats().eliminated_bytes;
    log.clear();
  }
  g_trace.enabled = false;
  g_trace.unit = -1;
  return r;
}

std::string unit_json(const UnitResult& r) {
  std::string s = "{\"s\":" + num(r.seconds) + ",\"ok\":" +
                  (r.ok ? "true" : "false") + ",\"traced\":" +
                  (r.traced ? "true" : "false") +
                  ",\"mismatches\":" + std::to_string(r.mismatches) +
                  ",\"loops\":" + std::to_string(r.loops);
  if (r.checksum)
    s += ",\"checksum\":" + quoted(exact(*r.checksum)) +
         ",\"hex\":" + quoted(hex_bits(*r.checksum));
  if (!r.error.empty()) s += ",\"error\":" + quoted(r.error);
  return s + "}";
}

int workload_main(const Args& a) {
  const bool trace = a.mode == "trace";
  std::unique_ptr<Workload> w = make_workload(a);

  // Setup: preparation plus the process's cold first unit.
  const double t0 = now_s();
  double prepare_s = 0.0;
  {
    g_trace.enabled = trace;
    SpanScope s("setup", "bench");
    w->prepare();
    prepare_s = now_s() - t0;
    g_trace.enabled = false;
  }
  std::vector<UnitResult> units{run_unit(*w, false, 0)};
  const double setup_s = now_s() - t0;
  const auto mem0 = rt::mem::stats();
  const double working_set =
      static_cast<double>(mem0.bytes_pooled + mem0.bytes_outstanding);

  if (a.mode != "setup") {
    // Units for the stated seconds; a trace run alternates traced and
    // untraced units so both medians come from the same window, and
    // runs at least one of each.
    const double end = now_s() + a.seconds;
    do {
      const bool traced = trace && units.size() % 2 == 0;
      units.push_back(run_unit(*w, traced, static_cast<int>(units.size())));
    } while (now_s() < end || (trace && units.size() < 3));
  }
  const auto mem1 = rt::mem::stats();
  const double rss = peak_rss_mb();
  const long threads = threads_now();

  Metrics layers;
  if (trace) {
    g_trace.enabled = true;
    g_trace.unit = -1;
    const ProbeShape ps = w->probe_shape();
    probe_runtime_sycl(ps, layers);
    probe_ops(ps, layers);
    probe_mem(ps, layers);
    probe_op2(a.smoke, layers);
    // The study layers: the sweep's own traced units, or one traced
    // sweep for the workloads that do not run the study.
    SweepWorkload own(a.study_ref, a.seed);
    auto* sweep = dynamic_cast<SweepWorkload*>(w.get());
    if (!sweep) {
      own.prepare();
      UnitResult r = run_unit(own, true, -2);
      if (!r.ok || r.mismatches) throw std::runtime_error("probe sweep failed");
      sweep = &own;
    }
    for (const auto& [app, s] : sweep->schedule_s)
      layers.emplace_back("study.schedule_s." + app, median(s));
    layers.emplace_back("study.schedules_built",
                        static_cast<double>(sweep->schedules_built));
    layers.emplace_back("hwmodel.aggregate_cell_us", median(sweep->aggregate_us));
    const double calls = static_cast<double>(mem1.alloc_calls - mem0.alloc_calls);
    layers.emplace_back("mem.pool_hit_rate",
                        calls > 0 ? static_cast<double>(mem1.pool_hits -
                                                        mem0.pool_hits) / calls
                                  : 1.0);
    g_trace.enabled = false;
    if (!a.trace_file.empty()) g_trace.write(a.trace_file);
  }

  std::optional<double> ref;
  if (a.mode != "setup") ref = w->reference();

  std::string out = "{\"mode\":" + quoted(a.mode) + ",\"workload\":" +
                    quoted(a.workload) + ",\"size\":" + quoted(w->size()) +
                    ",\"setup_s\":" + num(setup_s) + ",\"prepare_s\":" +
                    num(prepare_s) + ",\"useful_bytes\":" +
                    num(w->useful_bytes()) + ",\"working_set_bytes\":" +
                    num(working_set) + ",\"peak_rss_mb\":" + num(rss) +
                    ",\"threads\":" + std::to_string(threads) +
                    ",\"pool_threads\":" +
                    std::to_string(rt::ThreadPool::global().size()) +
                    ",\"compiler\":" + quoted(HOSTBENCH_COMPILER) +
                    ",\"build_type\":" + quoted(HOSTBENCH_BUILD_TYPE);
  if (ref)
    out += ",\"reference\":{\"checksum\":" + quoted(exact(*ref)) +
           ",\"hex\":" + quoted(hex_bits(*ref)) + "}";
  out += ",\"units\":[";
  for (std::size_t i = 0; i < units.size(); ++i)
    out += (i ? "," : "") + unit_json(units[i]);
  out += "],\"fusion_eliminated_bytes\":[";
  bool first = true;
  for (const auto& u : units)
    if (u.traced) {
      out += (first ? "" : ",") + num(u.fusion_eliminated_bytes);
      first = false;
    }
  out += "],\"layers\":{";
  for (std::size_t i = 0; i < layers.size(); ++i)
    out += (i ? "," : "") + quoted(layers[i].first) + ":" + num(layers[i].second);
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

int study_reference_main() {
  study::StudyRunner runner;
  std::printf("# study-sweep reference: app, platform, variant, status, "
              "runtime_s bits, efficiency bits, runtime_s, efficiency\n");
  for (const Cell& c : study_cells())
    std::printf("%s\n",
                cell_line(c, runner.run(c.app, c.platform, c.variant)).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.mode == "triad") return triad_main(a);
    if (a.mode == "study-reference") return study_reference_main();
    if (a.mode == "setup" || a.mode == "run" || a.mode == "trace")
      return workload_main(a);
    throw std::invalid_argument("unknown mode '" + a.mode + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 2;
  }
}
