// Unit tests for the rt::mem subsystem: size-class pool, first-touch
// initialisation modes, streaming fill/copy, the Array<T> dat backing,
// USM leak/alignment round-trips through it, and the autotuner's
// first-touch axis wire format.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "runtime/autotune/autotune.hpp"
#include "runtime/mem/array.hpp"
#include "runtime/mem/mem.hpp"
#include "runtime/mem/stream.hpp"
#include "sycl/sycl.hpp"

namespace mem = syclport::rt::mem;

namespace {

/// Restore the default config after a test that swaps it.
struct ConfigGuard {
  mem::Config saved = mem::config();
  ~ConfigGuard() { mem::set_config_for_testing(saved); }
};

}  // namespace

TEST(MemSizeClass, SmallRequestsShareTheFloorClass) {
  EXPECT_EQ(mem::size_class_bytes(1), 4096u);
  EXPECT_EQ(mem::size_class_bytes(64), 4096u);
  EXPECT_EQ(mem::size_class_bytes(4096), 4096u);
}

TEST(MemSizeClass, PowerOfTwoBoundaries) {
  EXPECT_EQ(mem::size_class_bytes(4097), 8192u);
  EXPECT_EQ(mem::size_class_bytes(8192), 8192u);
  EXPECT_EQ(mem::size_class_bytes(8193), 16384u);
  EXPECT_EQ(mem::size_class_bytes(1u << 20), 1u << 20);
  EXPECT_EQ(mem::size_class_bytes((1u << 20) + 1), 2u << 20);
}

TEST(MemSizeClass, LargeRequestsRoundToTwoMiBMultiples) {
  // Above 2 MiB a class is the next 2 MiB multiple, not the next power
  // of two: a 33.7 MB CloverLeaf field takes 34 MiB, not 64 MiB.
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  EXPECT_EQ(mem::size_class_bytes(2 * kMiB), 2 * kMiB);
  EXPECT_EQ(mem::size_class_bytes(2 * kMiB + 1), 4 * kMiB);
  EXPECT_EQ(mem::size_class_bytes(33686272), 34 * kMiB);
  EXPECT_EQ(mem::size_class_bytes(34 * kMiB + 1), 36 * kMiB);
}

TEST(MemSizeClass, LargeClassIsPooledBySize) {
  ConfigGuard g;
  mem::Config c = mem::config();
  c.pool = true;
  mem::set_config_for_testing(c);

  constexpr std::size_t kBytes = 33686272;  // one 2048^2 CloverLeaf field
  void* p = mem::alloc(kBytes, mem::Init::None);
  ASSERT_NE(p, nullptr);
  mem::dealloc(p);
  // A neighbouring 2 MiB class is a different list: no hit.
  auto before = mem::stats();
  void* other = mem::alloc(kBytes + (2u << 20), mem::Init::None);
  EXPECT_EQ(mem::stats().pool_hits, before.pool_hits);
  // The same class comes back from the pool.
  before = mem::stats();
  void* q = mem::alloc(kBytes - 4096, mem::Init::None);
  const auto after = mem::stats();
  EXPECT_EQ(after.pool_hits, before.pool_hits + 1);
  EXPECT_EQ(q, p);
  EXPECT_EQ(after.bytes_allocated - before.bytes_allocated,
            std::size_t{34} << 20);
  mem::dealloc(q);
  mem::dealloc(other);
  mem::trim();
  EXPECT_EQ(mem::stats().bytes_pooled, 0u);
}

TEST(MemSizeClass, HugeRequestsRoundToPagesNotClasses) {
  // Beyond the largest pooled class the request is page/huge-page
  // rounded, not doubled to the next power of two.
  const std::size_t big = (std::size_t{1} << 30) + 1;
  const std::size_t rounded = mem::size_class_bytes(big);
  EXPECT_GE(rounded, big);
  EXPECT_LT(rounded, 2 * big);
}

TEST(MemPool, ReusesFreedBlocksOfTheSameClass) {
  ConfigGuard g;
  mem::Config c = mem::config();
  c.pool = true;
  mem::set_config_for_testing(c);

  constexpr std::size_t kBytes = 64u << 10;
  void* p = mem::alloc(kBytes, mem::Init::Touch);
  ASSERT_NE(p, nullptr);
  mem::dealloc(p);

  const auto before = mem::stats();
  void* q = mem::alloc(kBytes, mem::Init::Touch);
  const auto after = mem::stats();
  EXPECT_EQ(after.pool_hits, before.pool_hits + 1);
  // LIFO thread cache: the same block comes back.
  EXPECT_EQ(q, p);
  mem::dealloc(q);
  mem::trim();
}

TEST(MemPool, DisabledPoolGoesToTheOsEveryTime) {
  ConfigGuard g;
  mem::Config c = mem::config();
  c.pool = false;
  mem::set_config_for_testing(c);

  void* p = mem::alloc(32u << 10);
  mem::dealloc(p);
  const auto before = mem::stats();
  void* q = mem::alloc(32u << 10);
  const auto after = mem::stats();
  EXPECT_EQ(after.pool_hits, before.pool_hits);
  EXPECT_EQ(after.fresh_allocs, before.fresh_allocs + 1);
  mem::dealloc(q);
}

TEST(MemPool, OutstandingAndPooledBytesBalance) {
  ConfigGuard g;
  mem::set_config_for_testing(mem::config());  // flush pool to a known state
  mem::trim();

  const auto base = mem::stats();
  constexpr std::size_t kBytes = 128u << 10;
  void* p = mem::alloc(kBytes);
  auto s = mem::stats();
  EXPECT_EQ(s.bytes_outstanding, base.bytes_outstanding + kBytes);
  mem::dealloc(p);
  s = mem::stats();
  EXPECT_EQ(s.bytes_outstanding, base.bytes_outstanding);
  EXPECT_GE(s.bytes_pooled, base.bytes_pooled + kBytes);
  mem::trim();
  s = mem::stats();
  EXPECT_EQ(s.bytes_pooled, 0u);
}

TEST(MemPool, ZeroInitAlwaysZeroesReusedDirtyBlocks) {
  ConfigGuard g;
  mem::Config c = mem::config();
  c.pool = true;
  mem::set_config_for_testing(c);

  constexpr std::size_t kCount = (256u << 10) / sizeof(std::uint64_t);
  auto* p = static_cast<std::uint64_t*>(
      mem::alloc(kCount * sizeof(std::uint64_t), mem::Init::Touch));
  for (std::size_t i = 0; i < kCount; ++i) p[i] = 0xDEADBEEFCAFEF00Dull;
  mem::dealloc(p);

  auto* q = static_cast<std::uint64_t*>(
      mem::alloc(kCount * sizeof(std::uint64_t), mem::Init::Zero));
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_EQ(q[i], 0u) << "i=" << i;
  mem::dealloc(q);
  mem::trim();
}

TEST(MemPool, AlignmentIsAtLeastCacheLine) {
  for (const std::size_t bytes : {std::size_t{64}, std::size_t{4096},
                                  std::size_t{1u << 20}}) {
    void* p = mem::alloc(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
    mem::dealloc(p);
  }
}

TEST(MemPool, HugePathAlignsToTwoMiB) {
  ConfigGuard g;
  mem::Config c = mem::config();
  c.hugepages = true;
  mem::set_config_for_testing(c);

  const auto before = mem::stats();
  void* p = mem::alloc(4u << 20);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % (2u << 20), 0u);
  const auto after = mem::stats();
  EXPECT_GE(after.hugepage_bytes, before.hugepage_bytes + (4u << 20));
  EXPECT_GT(after.hugepage_coverage(), 0.0);
  mem::dealloc(p);
  mem::trim();
}

TEST(MemPool, DoubleFreeAndNullAreIgnored) {
  mem::dealloc(nullptr);
  void* p = mem::alloc(4096);
  mem::dealloc(p);
  mem::dealloc(p);  // already pooled (or freed to the OS): a no-op
  // The block went back to the pool once, so it is handed out once.
  void* a = mem::alloc(4096);
  void* b = mem::alloc(4096);
  EXPECT_NE(a, b);
  mem::dealloc(a);
  mem::dealloc(b);
  mem::trim();
}

TEST(MemFirstTouch, ParallelZeroMatchesSerialContent) {
  // Determinism: the parallel streaming zero and a serial memset must
  // produce identical bytes (TSan additionally checks the parallel
  // path is race-free).
  constexpr std::size_t kCount = (4u << 20) / sizeof(double);
  auto* p =
      static_cast<double*>(mem::alloc(kCount * sizeof(double), mem::Init::Zero));
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_EQ(p[i], 0.0) << "i=" << i;
  mem::dealloc(p);
  mem::trim();
}

TEST(MemFirstTouch, SerialModeStillZeroes) {
  ConfigGuard g;
  mem::Config c = mem::config();
  c.first_touch = false;
  mem::set_config_for_testing(c);
  constexpr std::size_t kCount = (1u << 20) / sizeof(std::uint32_t);
  auto* p = static_cast<std::uint32_t*>(
      mem::alloc(kCount * sizeof(std::uint32_t), mem::Init::Zero));
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_EQ(p[i], 0u);
  mem::dealloc(p);
  mem::trim();
}

TEST(MemFirstTouch, OverrideIsThreadLocal) {
  mem::set_first_touch_override(false);
  EXPECT_FALSE(mem::first_touch_active());
  bool other_thread_sees_config = false;
  std::thread([&] {
    other_thread_sees_config =
        !mem::first_touch_override().has_value() &&
        mem::first_touch_active() == mem::config().first_touch;
  }).join();
  EXPECT_TRUE(other_thread_sees_config);
  mem::set_first_touch_override(std::nullopt);
  EXPECT_EQ(mem::first_touch_active(), mem::config().first_touch);
}

TEST(MemFirstTouch, TouchCountsTelemetry) {
  ConfigGuard g;
  mem::Config c = mem::config();
  c.first_touch = true;
  c.pool = false;  // force a fresh block so Touch actually runs
  mem::set_config_for_testing(c);
  const auto before = mem::stats();
  constexpr std::size_t kBytes = 2u << 20;
  void* p = mem::alloc(kBytes, mem::Init::Touch);
  const auto after = mem::stats();
  EXPECT_GE(after.bytes_first_touched, before.bytes_first_touched + kBytes);
  mem::dealloc(p);
}

TEST(MemStream, ParallelFillWritesEveryElement) {
  constexpr std::size_t kCount = (3u << 20) / sizeof(double) + 3;  // odd tail
  std::vector<double> v(kCount, -1.0);
  mem::parallel_fill(v.data(), v.size(), 2.5);
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_EQ(v[i], 2.5) << "i=" << i;
}

TEST(MemStream, ParallelCopyMatchesMemcpy) {
  constexpr std::size_t kBytes = (2u << 20) + 13;  // unaligned tail
  std::vector<std::uint8_t> src(kBytes), dst(kBytes, 0);
  for (std::size_t i = 0; i < kBytes; ++i)
    src[i] = static_cast<std::uint8_t>(i * 131 + 7);
  mem::parallel_copy(dst.data(), src.data(), kBytes);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), kBytes), 0);
}

TEST(MemStream, FillAndCopyTelemetryAdvances) {
  const auto before = mem::stats();
  std::vector<double> a(1u << 16, 0.0), b(1u << 16, 1.0);
  mem::parallel_fill(a.data(), a.size(), 3.0);
  mem::parallel_copy(b.data(), a.data(), a.size() * sizeof(double));
  const auto after = mem::stats();
  EXPECT_GE(after.stream_fill_bytes,
            before.stream_fill_bytes + a.size() * sizeof(double));
  EXPECT_GE(after.stream_copy_bytes,
            before.stream_copy_bytes + a.size() * sizeof(double));
}

TEST(MemArray, ZeroInitAndFill) {
  syclport::rt::mem::Array<double> a(1000);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], 0.0);
  a.fill(4.0);
  for (const double x : a) ASSERT_EQ(x, 4.0);
}

TEST(MemArray, AssignReallocatesOnlyOnSizeChange) {
  syclport::rt::mem::Array<float> a(100);
  const float* before = a.data();
  a.assign(100, 7.0f);
  EXPECT_EQ(a.data(), before);  // same size: storage kept
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], 7.0f);
  a.assign(200, 1.0f);
  EXPECT_EQ(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], 1.0f);
}

TEST(MemArray, MoveTransfersOwnership) {
  syclport::rt::mem::Array<int> a(64);
  a.fill(3);
  int* p = a.data();
  syclport::rt::mem::Array<int> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b[63], 3);
}

TEST(MemUsm, OutstandingBytesTracksAllocAndFree) {
  sycl::queue q;
  const std::size_t base = sycl::usm_outstanding_bytes();
  double* p = sycl::malloc_device<double>(1u << 16, q);
  EXPECT_EQ(sycl::usm_outstanding_bytes(), base + (1u << 16) * sizeof(double));
  double* r = sycl::malloc_shared<double>(100, q);
  EXPECT_EQ(sycl::usm_outstanding_bytes(),
            base + (1u << 16) * sizeof(double) + 100 * sizeof(double));
  sycl::free(p, q);
  sycl::free(r, q);
  EXPECT_EQ(sycl::usm_outstanding_bytes(), base);
}

TEST(MemUsm, RecycledPointerReRegistersCleanly) {
  // The pool can hand the same address back; the registry must replace
  // the stale byte count, not double-count it.
  sycl::queue q;
  const std::size_t base = sycl::usm_outstanding_bytes();
  for (int i = 0; i < 8; ++i) {
    float* p = sycl::malloc_device<float>(1u << 14, q);
    sycl::free(p, q);
  }
  EXPECT_EQ(sycl::usm_outstanding_bytes(), base);
  mem::trim();
}

TEST(MemUsm, LargeUsmIsHugeAligned) {
  sycl::queue q;
  double* p = sycl::malloc_device<double>((8u << 20) / sizeof(double), q);
  if (mem::config().hugepages) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % (2u << 20), 0u);
  }
  sycl::free(p, q);
  mem::trim();
}

TEST(MemBuffer, DiscardWriteSkipsZeroAndSeesKernelValues) {
  sycl::queue q;
  constexpr std::size_t n = 1u << 16;
  sycl::buffer<double, 1> buf{sycl::range<1>(n)};
  q.submit([&](sycl::handler& h) {
    sycl::accessor acc{buf, h, sycl::write_only, sycl::no_init};
    h.parallel_for(sycl::range<1>(n), [=](sycl::item<1> it) {
      acc[it.get_linear_id()] = static_cast<double>(it.get_linear_id());
    });
  });
  q.wait();
  sycl::host_accessor host{buf};
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(host[i], static_cast<double>(i)) << "i=" << i;
}

TEST(MemBuffer, ReadOfUntouchedBufferSeesZeros) {
  // A buffer that was never written materialises as zeros on first
  // read (lazy zero-fill), matching the eager-zero seed semantics.
  sycl::queue q;
  constexpr std::size_t n = 4096;
  sycl::buffer<int, 1> buf{sycl::range<1>(n)};
  long long sum = -1;
  {
    sycl::buffer<long long, 1> out{sycl::range<1>(1)};
    q.submit([&](sycl::handler& h) {
      sycl::accessor in{buf, h, sycl::read_only};
      sycl::accessor o{out, h, sycl::read_write};
      h.single_task([=] {
        long long s = 0;
        for (std::size_t i = 0; i < n; ++i) s += in[i];
        o[0] = s;
      });
    });
    q.wait();
    sycl::host_accessor ho{out};
    sum = ho[0];
  }
  EXPECT_EQ(sum, 0);
}

TEST(MemBuffer, HandlerFillThenCopy) {
  sycl::queue q;
  constexpr std::size_t n = 1u << 14;
  sycl::buffer<double, 1> a{sycl::range<1>(n)}, b{sycl::range<1>(n)};
  q.submit([&](sycl::handler& h) {
    sycl::accessor acc{a, h, sycl::write_only, sycl::no_init};
    h.fill(acc, 1.5);
  });
  q.submit([&](sycl::handler& h) {
    sycl::accessor src{a, h, sycl::read_only};
    sycl::accessor dst{b, h, sycl::write_only, sycl::no_init};
    h.copy(src, dst);
  });
  q.wait();
  sycl::host_accessor hb{b};
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hb[i], 1.5);
}

TEST(MemBuffer, QueueFillAndMemcpyOnUsm) {
  sycl::queue q;
  constexpr std::size_t n = 1u << 15;
  double* a = sycl::malloc_device<double>(n, q);
  double* b = sycl::malloc_device<double>(n, q);
  q.fill(a, 2.25, n);
  q.wait();
  q.memcpy(b, a, n * sizeof(double));
  q.wait();
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(b[i], 2.25) << "i=" << i;
  sycl::free(a, q);
  sycl::free(b, q);
}

TEST(MemAutotune, FirstTouchRoundTripsThroughWireFormat) {
  namespace at = syclport::rt::autotune;
  at::Config c;
  c.tile = 32;
  c.first_touch = true;
  const std::string wire = c.to_string();
  EXPECT_NE(wire.find("first_touch=on"), std::string::npos);
  const auto back = at::Config::parse(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, c);

  c.first_touch = false;
  const auto back2 = at::Config::parse(c.to_string());
  ASSERT_TRUE(back2.has_value());
  EXPECT_EQ(back2->first_touch, std::optional<bool>(false));

  EXPECT_FALSE(at::Config::parse("first_touch=sideways").has_value());
}

TEST(MemPool, TinyArenaCapDegradesGracefullyNotFatally) {
  // With the arena cap below a single block's class, nothing is ever
  // pooled - every request must still be served (from the OS), and the
  // initialisation contract must still hold.
  ConfigGuard g;
  mem::Config c = mem::config();
  c.pool = true;
  c.pool_max_bytes = 32u << 10;
  mem::set_config_for_testing(c);
  mem::reset_stats_for_testing();

  constexpr std::size_t kBytes = 64u << 10;  // class > cap
  void* p = mem::alloc(kBytes, mem::Init::Zero);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, kBytes);
  mem::dealloc(p);  // over the cap: straight back to the OS

  void* q = mem::alloc(kBytes, mem::Init::Zero);
  ASSERT_NE(q, nullptr);
  const auto* bytes = static_cast<const unsigned char*>(q);
  for (std::size_t i = 0; i < kBytes; i += 997) EXPECT_EQ(bytes[i], 0u);
  const auto s = mem::stats();
  EXPECT_EQ(s.pool_hits, 0u);  // the saturated pool never served a hit
  EXPECT_GE(s.fresh_allocs, 2u);
  EXPECT_EQ(s.pool_fallbacks, 0u);  // degraded, but no allocation failed
  mem::dealloc(q);
}
