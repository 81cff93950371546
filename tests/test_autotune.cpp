// Tests for the online autotuner (runtime/autotune): config/site/cache
// round-trips, successive-halving convergence, fingerprint guarding,
// tuned-vs-untuned determinism, hardened env parsing, and exploration
// thread safety under the out-of-order queue (the Autotune suite runs
// under the TSan preset).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ops/ops.hpp"
#include "runtime/autotune/autotune.hpp"
#include "runtime/autotune/cache.hpp"
#include "runtime/env.hpp"
#include "sycl/sycl.hpp"

namespace at = syclport::rt::autotune;
namespace env = syclport::rt::env;
namespace ops = syclport::ops;
namespace rt = syclport::rt;

namespace {

at::Site sched_site(const char* name = "k") {
  at::Site s;
  s.name = name;
  s.dims = 1;
  s.global = {1u << 16, 1, 1};
  s.axes = at::kScheduleGrain;
  return s;
}

/// Deterministic synthetic cost: static beats dynamic beats steal,
/// grain 1024 beats 1 beats 16384. The unique minimum is
/// {static, 1024}.
double synthetic_cost(const at::Config& c) {
  double t = 1e-3;
  if (c.schedule == rt::Schedule::Dynamic) t *= 2.0;
  if (c.schedule == rt::Schedule::Steal) t *= 3.0;
  if (c.grain == 1u) t *= 1.5;
  if (c.grain == 16384u) t *= 2.5;
  return t;
}

/// Drive a tuner to convergence on `site` against the synthetic cost.
void drive(at::Autotuner& tuner, const at::Site& site) {
  for (int i = 0; i < 10000 && !tuner.converged(site); ++i) {
    const auto d = tuner.decide(site);
    tuner.report(d, synthetic_cost(d.config));
  }
}

/// Restore the process-wide tuner to "off" when a test ends, so the
/// suites sharing the binary stay independent.
struct GlobalTunerGuard {
  ~GlobalTunerGuard() {
    at::Autotuner::instance().reset(at::Autotuner::Mode::Off, "", "");
  }
};

}  // namespace

TEST(Autotune, ConfigToStringParseRoundTrip) {
  at::Config c;
  c.schedule = rt::Schedule::Steal;
  c.grain = 4096;
  c.local = {{1, 4, 64}};
  c.tile = 32;
  c.first_touch = true;
  const auto back = at::Config::parse(c.to_string());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, c);

  at::Config sparse;  // only the axes a site declared are set
  sparse.tile = 0;
  const auto sback = at::Config::parse(sparse.to_string());
  ASSERT_TRUE(sback.has_value());
  EXPECT_EQ(*sback, sparse);

  // The unstructured-locality axes (cache v4) round-trip too.
  at::Config u;
  u.layout = 1;    // SoA
  u.indirect = 4;  // Staged
  EXPECT_EQ(u.to_string(), "layout=soa indirect=staged");
  const auto uback = at::Config::parse(u.to_string());
  ASSERT_TRUE(uback.has_value());
  EXPECT_EQ(*uback, u);

  EXPECT_FALSE(at::Config::parse("schedule=warp").has_value());
  EXPECT_FALSE(at::Config::parse("grain=12abc").has_value());
  EXPECT_FALSE(at::Config::parse("local=8x8").has_value());
  EXPECT_FALSE(at::Config::parse("bogus=1").has_value());
  EXPECT_FALSE(at::Config::parse("layout=csr").has_value());
  EXPECT_FALSE(at::Config::parse("indirect=mutex").has_value());
}

TEST(Autotune, SiteKeyIsStableAndSanitized) {
  at::Site s = sched_site("jacobi step");
  const std::string key = s.key();
  EXPECT_EQ(key, s.key()) << "key must be deterministic";
  EXPECT_EQ(key.find(' '), std::string::npos)
      << "spaces must be sanitized (cache format is line-oriented)";
  EXPECT_NE(key.find("jacobi_step"), std::string::npos);
  EXPECT_NE(key.find("|flat|"), std::string::npos);

  // The footprint class buckets the iteration count: same shape class,
  // same key; a different formulation or extent class changes it.
  at::Site nd = s;
  nd.nd = true;
  EXPECT_NE(s.key(), nd.key());
  at::Site big = s;
  big.global = {1u << 20, 1, 1};
  EXPECT_NE(s.key(), big.key());

  // The declared axis set is part of the key: two same-named
  // same-shaped sites whose lowerings race different knobs (a tiled
  // chain vs a plain schedule-only site) must never collide in the
  // cache.
  at::Site tiled = s;
  tiled.axes = at::kScheduleGrain | at::kTile;
  EXPECT_NE(s.key(), tiled.key());
  EXPECT_NE(tiled.key().find("|ax"), std::string::npos);
}

TEST(Autotune, CacheRoundTripAndMalformedEntries) {
  const std::string path = "test_autotune_cache_rt.json";
  at::CacheData data;
  data.fingerprint = "cores=8;l1d=32768;l2=1048576;llc=16777216;triad_log2=4";
  at::Config a;
  a.schedule = rt::Schedule::Static;
  a.grain = 1024;
  at::Config b;
  b.local = {{1, 8, 32}};
  b.fuse = false;
  data.entries = {{"k1|1|65536x1x1|flat|fp16|ax1", a, ""},
                  {"k2|2|512x512x1|nd|fp18|ax3", b, "cores=64;llc=1"}};
  ASSERT_TRUE(at::write_cache(path, data));

  const auto back = at::read_cache(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->fingerprint, data.fingerprint);
  ASSERT_EQ(back->entries.size(), 2u);
  EXPECT_EQ(back->entries[0].key, data.entries[0].key);
  EXPECT_EQ(back->entries[0].config, a);
  EXPECT_EQ(back->entries[1].config, b);
  // The per-entry fingerprint (v3: the machine a winner ran on) survives.
  EXPECT_EQ(back->entries[1].fp, "cores=64;llc=1");

  // Unparseable configs are dropped individually, not fatally.
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("    { \"key\": \"k3|1|8x1x1|flat|fp3\", \"config\": "
               "\"schedule=warp\" },\n",
               f);
    std::fclose(f);
  }
  const auto again = at::read_cache(path);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->entries.size(), 2u);

  // A current-version entry carrying the retired kernel-variant and
  // cache-block tokens no longer parses: it is dropped like any other
  // malformed config, and its site retunes without a version bump.
  const at::Site stale_site = sched_site("stale");
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    const std::string line =
        "    { \"key\": \"" + stale_site.key() +
        "\", \"config\": \"schedule=static grain=1024 reg_tile=2 vec=4 "
        "unroll=2 cache_block=128\", \"fp\": \"\" },\n";
    std::fputs(line.c_str(), f);
    std::fclose(f);
  }
  const auto stale = at::read_cache(path);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->entries.size(), 2u);
  {
    at::Autotuner tuner(at::Autotuner::Mode::On, data.fingerprint, path);
    EXPECT_EQ(tuner.decide(stale_site).phase, at::Phase::Exploring);
    drive(tuner, stale_site);
    EXPECT_TRUE(tuner.converged(stale_site));
  }
  {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("\"syclport_tune_cache\": 4"),
              std::string::npos);
    EXPECT_EQ(text.str().find("reg_tile"), std::string::npos)
        << "the rewrite must not carry the stale entry forward";
  }

  EXPECT_FALSE(at::read_cache("does_not_exist.json").has_value());
  std::remove(path.c_str());
}

TEST(Autotune, SuccessiveHalvingConvergesToFastestCandidate) {
  at::Autotuner tuner(at::Autotuner::Mode::On, "fp-test", "");
  const at::Site site = sched_site();
  EXPECT_FALSE(tuner.converged(site));
  drive(tuner, site);
  ASSERT_TRUE(tuner.converged(site));
  const auto best = tuner.best(site);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->schedule, rt::Schedule::Static);
  EXPECT_EQ(best->grain, 1024u);
  EXPECT_GT(tuner.explored_launches(), 0u);
}

TEST(Autotune, CachedWinnerSkipsSearch) {
  const std::string path = "test_autotune_cache_warm.json";
  std::remove(path.c_str());
  const at::Site site = sched_site();
  {
    at::Autotuner cold(at::Autotuner::Mode::On, "fp-warm", path);
    drive(cold, site);
    ASSERT_TRUE(cold.converged(site));
  }
  at::Autotuner warm(at::Autotuner::Mode::On, "fp-warm", path);
  const auto d = warm.decide(site);
  EXPECT_EQ(d.phase, at::Phase::Exploiting)
      << "a cache hit must serve the winner from the first launch";
  EXPECT_EQ(d.config.schedule, rt::Schedule::Static);
  EXPECT_EQ(d.config.grain, 1024u);
  EXPECT_EQ(warm.explored_launches(), 0u);
  std::remove(path.c_str());
}

TEST(Autotune, FingerprintMismatchRetunes) {
  const std::string path = "test_autotune_cache_fp.json";
  std::remove(path.c_str());
  const at::Site site = sched_site();
  {
    at::Autotuner cold(at::Autotuner::Mode::On, "fp-machine-a", path);
    drive(cold, site);
  }
  at::Autotuner other(at::Autotuner::Mode::On, "fp-machine-b", path);
  const auto d = other.decide(site);
  EXPECT_EQ(d.phase, at::Phase::Exploring)
      << "another machine's winners must not be trusted";
  std::remove(path.c_str());
}

TEST(Autotune, ForceModeReExploresDespiteValidCache) {
  const std::string path = "test_autotune_cache_force.json";
  std::remove(path.c_str());
  const at::Site site = sched_site();
  {
    at::Autotuner cold(at::Autotuner::Mode::On, "fp-force", path);
    drive(cold, site);
  }
  at::Autotuner force(at::Autotuner::Mode::Force, "fp-force", path);
  const auto d = force.decide(site);
  EXPECT_EQ(d.phase, at::Phase::Exploring);
  drive(force, site);
  EXPECT_TRUE(force.converged(site));
  std::remove(path.c_str());
}

TEST(Autotune, TunedRunIsNumericallyIdenticalToUntuned) {
  GlobalTunerGuard guard;
  at::Autotuner::instance().reset(at::Autotuner::Mode::On, "fp-det", "");

  const std::size_t n = 48;
  auto sweep_sum = [&](std::optional<bool> tune, int iters) {
    ops::Options o;
    o.backend = ops::Backend::Threads;
    o.tune = tune;
    o.record = false;
    ops::Context ctx(o);
    ops::Block grid(ctx, "g", 2, {n, n, 1});
    ops::Dat<double> a(grid, "a", 1, 1), b(grid, "b", 1, 1);
    for (long i = -1; i <= static_cast<long>(n); ++i)
      for (long j = -1; j <= static_cast<long>(n); ++j)
        a.at(i, j) = 0.25 * static_cast<double>(i) -
                     0.125 * static_cast<double>(j);
    double sum = 0.0;
    for (int it = 0; it < iters; ++it) {
      ops::par_loop(ctx, {"det_sweep"}, grid, ops::Range::all(grid),
                    [](ops::ACC<double> out, ops::ACC<double> in) {
                      out(0, 0) = in(0, 0) + 0.2 * (in(1, 0) + in(-1, 0) +
                                                    in(0, 1) + in(0, -1));
                    },
                    ops::arg(b, ops::S_PT, ops::Acc::W),
                    ops::arg(a, ops::S2D_5PT, ops::Acc::R));
      const double s = b.interior_sum();
      if (it == 0) sum = s;
      // Every iteration - whichever candidate served it - must produce
      // bit-identical results: the tuner only moves work distribution.
      EXPECT_EQ(s, sum) << "iteration " << it;
    }
    return sum;
  };

  const double untuned = sweep_sum(false, 1);
  const double tuned = sweep_sum(true, 80);  // spans explore + exploit
  EXPECT_EQ(tuned, untuned);
}

TEST(Autotune, ExplorationIsThreadSafeUnderOutOfOrderQueue) {
  GlobalTunerGuard guard;
  at::Autotuner::instance().reset(at::Autotuner::Mode::On, "fp-mt", "");

  // Concurrent deferred command groups with disjoint footprints all
  // tune the same handler-level site; decide()/report() race across
  // scheduler workers and submitting threads (TSan-checked).
  constexpr int kThreads = 4;
  constexpr int kSubmitsPerThread = 24;
  constexpr std::size_t kElems = 2048;
  std::vector<std::vector<double>> bufs(
      kThreads, std::vector<double>(kElems, 0.0));
  {
    sycl::queue q;  // out-of-order
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        double* p = bufs[static_cast<std::size_t>(t)].data();
        for (int s = 0; s < kSubmitsPerThread; ++s) {
          q.submit([&](sycl::handler& h) {
            h.require(p, sycl::access_mode::read_write);
            h.parallel_for(sycl::range<1>(kElems), [p](sycl::id<1> i) {
              p[i[0]] += 1.0;
            });
          });
        }
      });
    }
    for (auto& th : threads) th.join();
    q.wait();
  }
  for (const auto& buf : bufs)
    for (const double v : buf)
      EXPECT_EQ(v, static_cast<double>(kSubmitsPerThread));
}

TEST(EnvParse, RejectsMalformedIntegersDeterministically) {
  env::reset_warnings_for_testing();
  ::setenv("SYCLPORT_TEST_KNOB", "12abc", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(env::get_long("SYCLPORT_TEST_KNOB", 1, 4096).has_value());
  // Warn-once: the second failed parse must stay silent.
  EXPECT_FALSE(env::get_long("SYCLPORT_TEST_KNOB", 1, 4096).has_value());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SYCLPORT_TEST_KNOB"), std::string::npos);
  EXPECT_EQ(err.find("SYCLPORT_TEST_KNOB", err.find("SYCLPORT_TEST_KNOB") + 1),
            std::string::npos)
      << "must warn exactly once per variable";

  ::setenv("SYCLPORT_TEST_KNOB", "9999999", 1);  // out of range
  env::reset_warnings_for_testing();
  testing::internal::CaptureStderr();
  EXPECT_FALSE(env::get_long("SYCLPORT_TEST_KNOB", 1, 4096).has_value());
  EXPECT_NE(testing::internal::GetCapturedStderr().find("SYCLPORT_TEST_KNOB"),
            std::string::npos);

  ::setenv("SYCLPORT_TEST_KNOB", "64", 1);
  EXPECT_EQ(env::get_long("SYCLPORT_TEST_KNOB", 1, 4096), 64);
  ::unsetenv("SYCLPORT_TEST_KNOB");
  EXPECT_FALSE(env::get_long("SYCLPORT_TEST_KNOB", 1, 4096).has_value());
}

TEST(EnvParse, ChoiceKnobsMatchDocumentedSpellingsOnly) {
  env::reset_warnings_for_testing();
  constexpr std::string_view kChoices[] = {"off", "on", "force"};
  ::setenv("SYCLPORT_TEST_MODE", "on", 1);
  EXPECT_EQ(env::get_choice("SYCLPORT_TEST_MODE", kChoices), 1u);
  ::setenv("SYCLPORT_TEST_MODE", "ON", 1);  // case-sensitive by contract
  testing::internal::CaptureStderr();
  EXPECT_FALSE(env::get_choice("SYCLPORT_TEST_MODE", kChoices).has_value());
  EXPECT_NE(testing::internal::GetCapturedStderr().find("SYCLPORT_TEST_MODE"),
            std::string::npos);
  ::unsetenv("SYCLPORT_TEST_MODE");
  EXPECT_FALSE(env::get_choice("SYCLPORT_TEST_MODE", kChoices).has_value());
}

TEST(Autotune, CacheRejectsForeignVersionTamperAndTruncation) {
  const std::string path = "test_autotune_cache_guard.json";
  at::CacheData data;
  data.fingerprint = "cores=8;l1d=32768;l2=1048576;llc=16777216;triad_log2=4";
  at::Config cfg;
  cfg.grain = 1024;
  data.entries = {{"k1|1|65536x1x1|flat|fp16", cfg, ""}};
  ASSERT_TRUE(at::write_cache(path, data));
  ASSERT_TRUE(at::read_cache(path).has_value());

  const auto slurp = [&] {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return std::move(ss).str();
  };
  const auto spit = [&](const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  };
  const std::string pristine = slurp();

  // A v2 file (no per-entry fp) is a foreign format:
  // the caller silently retunes instead of trusting it. Same for v1.
  std::string v2 = pristine;
  const auto vpos = v2.find("\"syclport_tune_cache\": 4");
  ASSERT_NE(vpos, std::string::npos);
  v2.replace(vpos, 24, "\"syclport_tune_cache\": 2");
  spit(v2);
  EXPECT_FALSE(at::read_cache(path).has_value());
  std::string v1 = pristine;
  v1.replace(v1.find("\"syclport_tune_cache\": 4"), 24,
             "\"syclport_tune_cache\": 1");
  spit(v1);
  EXPECT_FALSE(at::read_cache(path).has_value());

  // Tampering with a winner invalidates the content checksum.
  std::string tampered = pristine;
  const auto gpos = tampered.find("grain=1024");
  ASSERT_NE(gpos, std::string::npos);
  tampered.replace(gpos, 10, "grain=9999");
  spit(tampered);
  EXPECT_FALSE(at::read_cache(path).has_value());

  // Truncation (torn write, full disk) is rejected wholesale.
  spit(pristine.substr(0, pristine.size() / 2));
  EXPECT_FALSE(at::read_cache(path).has_value());

  // The pristine bytes still load: rejection was not sticky.
  spit(pristine);
  EXPECT_TRUE(at::read_cache(path).has_value());
  std::remove(path.c_str());
}

TEST(Autotune, V2CacheFileRetunesSilently) {
  // A v2-era file (no per-entry fp, none of the v3/v4 axes)
  // must be rejected wholesale and the tuner must simply re-explore -
  // no crash, no stale winner.
  const std::string path = "test_autotune_cache_v2.json";
  std::remove(path.c_str());
  const at::Site site = sched_site("v2kernel");
  {
    at::Autotuner cold(at::Autotuner::Mode::On, "fp-v2", path);
    drive(cold, site);
  }
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    text = std::move(ss).str();
  }
  const auto vpos = text.find("\"syclport_tune_cache\": 4");
  ASSERT_NE(vpos, std::string::npos);
  text.replace(vpos, 24, "\"syclport_tune_cache\": 2");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  at::Autotuner retune(at::Autotuner::Mode::On, "fp-v2", path);
  const auto d = retune.decide(site);
  EXPECT_EQ(d.phase, at::Phase::Exploring);
  drive(retune, site);
  EXPECT_TRUE(retune.converged(site));
  std::remove(path.c_str());
}

TEST(Autotune, ForeignCacheRunsTheFullSearch) {
  // A cache tuned on another machine is never a shortcut: the race on
  // this machine explores exactly as many launches as a cold start and
  // lands on the same winner.
  const std::string path = "test_autotune_cache_foreign_full.json";
  std::remove(path.c_str());
  const at::Site site = sched_site("foreign_full");
  std::uint64_t cold_explored = 0;
  {
    at::Autotuner cold(at::Autotuner::Mode::On, "fp-machine-a", path);
    drive(cold, site);
    ASSERT_TRUE(cold.converged(site));
    cold_explored = cold.explored_launches();
  }
  at::Autotuner other(at::Autotuner::Mode::On, "fp-machine-b", path);
  drive(other, site);
  ASSERT_TRUE(other.converged(site));
  EXPECT_EQ(other.explored_launches(), cold_explored)
      << "a foreign cache must not shrink the race";
  const auto best = other.best(site);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->schedule, rt::Schedule::Static);
  EXPECT_EQ(best->grain, 1024u);
  std::remove(path.c_str());
}

TEST(Autotune, ForeignEntriesAreKeptButNeverServed) {
  const std::string path = "test_autotune_cache_foreign_kept.json";
  std::remove(path.c_str());
  const std::string fp_me = "cores=8;llc=16777216";
  const std::string fp_near = "cores=16;llc=16777216";
  const std::string fp_far = "cores=256;llc=1073741824";

  // The same kernel already tuned on two other machines, with winners
  // the synthetic cost ranks last.
  const at::Site site = sched_site("shared");
  at::Config near_cfg;
  near_cfg.schedule = rt::Schedule::Steal;
  near_cfg.grain = 16384;
  at::Config far_cfg = near_cfg;
  far_cfg.schedule = rt::Schedule::Dynamic;
  at::CacheData data;
  data.fingerprint = fp_far;
  data.entries = {{site.key(), far_cfg, fp_far},
                  {site.key(), near_cfg, fp_near}};
  ASSERT_TRUE(at::write_cache(path, data));

  {
    at::Autotuner tuner(at::Autotuner::Mode::On, fp_me, path);
    EXPECT_EQ(tuner.decide(site).phase, at::Phase::Exploring)
        << "another machine's winner is never served";
    drive(tuner, site);
    ASSERT_TRUE(tuner.converged(site));
    const auto best = tuner.best(site);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->schedule, rt::Schedule::Static);
    EXPECT_EQ(best->grain, 1024u);
  }

  // The rewrite adds this machine's winner and keeps both foreign
  // entries untouched.
  const auto back = at::read_cache(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->entries.size(), 3u);
  int near_seen = 0, far_seen = 0, mine_seen = 0;
  for (const auto& e : back->entries) {
    EXPECT_EQ(e.key, site.key());
    if (e.fp == fp_near) {
      ++near_seen;
      EXPECT_EQ(e.config, near_cfg);
    } else if (e.fp == fp_far) {
      ++far_seen;
      EXPECT_EQ(e.config, far_cfg);
    } else if (e.fp == fp_me) {
      ++mine_seen;
      EXPECT_EQ(e.config.schedule, rt::Schedule::Static);
      EXPECT_EQ(e.config.grain, 1024u);
    }
  }
  EXPECT_EQ(near_seen, 1);
  EXPECT_EQ(far_seen, 1);
  EXPECT_EQ(mine_seen, 1);
  std::remove(path.c_str());
}

TEST(Autotune, EachSiteRunsItsOwnSearchInProcess) {
  // Winners do not leak between sites: a second kernel with the same
  // axis set races its full candidate set, and a later decision for the
  // first kernel still serves the first kernel's own winner.
  at::Autotuner tuner(at::Autotuner::Mode::On, "fp-local", "");
  const at::Site first = sched_site("first_kernel");
  drive(tuner, first);
  ASSERT_TRUE(tuner.converged(first));
  const std::uint64_t after_first = tuner.explored_launches();
  ASSERT_GT(after_first, 0u);

  const at::Site second = sched_site("second_kernel");
  EXPECT_FALSE(tuner.converged(second));
  // Invert the cost for the second kernel so its winner differs.
  for (int i = 0; i < 10000 && !tuner.converged(second); ++i) {
    const auto d = tuner.decide(second);
    EXPECT_EQ(d.phase, at::Phase::Exploring);
    tuner.report(d, 1.0 / synthetic_cost(d.config));
  }
  ASSERT_TRUE(tuner.converged(second));
  EXPECT_EQ(tuner.explored_launches() - after_first, after_first)
      << "the second site must run the same full race as the first";
  const auto b1 = tuner.best(first);
  const auto b2 = tuner.best(second);
  ASSERT_TRUE(b1.has_value());
  ASSERT_TRUE(b2.has_value());
  EXPECT_NE(*b1, *b2);
  const auto d1 = tuner.decide(first);
  EXPECT_EQ(d1.phase, at::Phase::Exploiting);
  EXPECT_EQ(d1.config, *b1);
}

TEST(Autotune, CandidatesStayOnTheDeclaredAxes) {
  // Whatever the race hands a schedule x grain site must set exactly
  // those two axes, with a grain from the prior seeds that fits the
  // launch - never a knob the lowering does not consume.
  at::Autotuner tuner(at::Autotuner::Mode::On, "fp-axes", "");
  at::Site site = sched_site("axes");
  site.global = {4096, 1, 1};
  const at::Priors priors;
  int served = 0;
  for (int i = 0; i < 2000 && !tuner.converged(site); ++i) {
    const auto d = tuner.decide(site);
    ++served;
    ASSERT_TRUE(d.config.schedule.has_value());
    ASSERT_TRUE(d.config.grain.has_value());
    const std::size_t g = *d.config.grain;
    const bool seeded =
        g == 1 || std::find(priors.grains.begin(), priors.grains.end(), g) !=
                      priors.grains.end();
    EXPECT_TRUE(seeded) << "grain " << g;
    EXPECT_LE(g * 2, site.total()) << "grain " << g << " cannot split";
    EXPECT_FALSE(d.config.local.has_value());
    EXPECT_FALSE(d.config.tile.has_value());
    EXPECT_FALSE(d.config.first_touch.has_value());
    EXPECT_FALSE(d.config.fuse.has_value());
    EXPECT_FALSE(d.config.layout.has_value());
    EXPECT_FALSE(d.config.indirect.has_value());
    const auto back = at::Config::parse(d.config.to_string());
    ASSERT_TRUE(back.has_value()) << d.config.to_string();
    EXPECT_EQ(*back, d.config);
    tuner.report(d, synthetic_cost(d.config));
  }
  EXPECT_TRUE(tuner.converged(site));
  EXPECT_GT(served, 0);
}

TEST(Autotune, RetiredVariantTokensNoLongerParse) {
  // The kernel-variant, cache-block and dist overlap axes are gone:
  // their tokens are as unknown as any other, alone or next to valid
  // ones, so a cached winner carrying one is dropped and retuned.
  for (const char* s :
       {"reg_tile=2", "vec=4", "unroll=2", "cache_block=128",
        "overlap=queue", "overlap=inline",
        "schedule=static grain=1024 reg_tile=2",
        "schedule=static grain=1024 cache_block=512",
        "schedule=static grain=1024 overlap=queue"})
    EXPECT_FALSE(at::Config::parse(s).has_value()) << s;
  // The surviving prefix still parses.
  EXPECT_TRUE(at::Config::parse("schedule=static grain=1024").has_value());
}

TEST(Autotune, CacheSurvivesManyConcurrentWriters) {
  // Unique temp + rename + merge-on-load: every published image must be
  // complete and internally consistent, whatever the interleaving of
  // writers sharing one cache path.
  const std::string path = "test_autotune_cache_stress.json";
  constexpr std::size_t kWriters = 16;
  constexpr std::size_t kRoundsPerWriter = 20;
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (std::size_t round = 0; round < kRoundsPerWriter; ++round) {
        at::CacheData data;
        data.fingerprint = "stress-machine";
        at::CacheData::Entry e;
        e.key = "kernel_" + std::to_string(w);
        e.config.grain = round + 1;
        data.entries.push_back(e);
        EXPECT_TRUE(at::write_cache_merged(path, data));
      }
    });
  for (auto& th : writers) th.join();

  const auto final_image = at::read_cache(path);
  ASSERT_TRUE(final_image.has_value()) << "torn or corrupt cache image";
  EXPECT_EQ(final_image->fingerprint, "stress-machine");
  std::set<std::string> keys;
  for (const auto& e : final_image->entries) {
    EXPECT_EQ(e.key.rfind("kernel_", 0), 0u);
    keys.insert(e.key);
  }
  EXPECT_EQ(keys.size(), final_image->entries.size()) << "duplicate keys";
  // The last writer to publish merged the file it saw, so its own key
  // is certainly present.
  EXPECT_GE(keys.size(), 1u);

  // One more merged write must preserve whatever survived the stress
  // *and* its own entry.
  at::CacheData data;
  data.fingerprint = "stress-machine";
  data.entries.push_back({"kernel_final", at::Config{}, ""});
  EXPECT_TRUE(at::write_cache_merged(path, data));
  const auto merged = at::read_cache(path);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->entries.size(), keys.size() + 1);
  std::remove(path.c_str());
}
