#include "runtime/mem/mem.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <mutex>
#include <new>
#include <optional>
#include <unordered_map>
#include <vector>

#include "runtime/env.hpp"
#include "runtime/fault/fault.hpp"
#include "runtime/mem/stream.hpp"
#include "runtime/thread_pool.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace syclport::rt::mem {
namespace {

constexpr std::size_t kMinAlign = 64;          // cache line
constexpr std::size_t kHugePage = 2u << 20;    // 2 MiB
constexpr std::size_t kPageBytes = 4096;
constexpr std::size_t kMinClassBytes = 4096;   // smallest size class
constexpr std::size_t kMaxClassBytes = std::size_t{1} << 30;  // largest pooled
constexpr std::size_t kClassShift = 12;        // log2(kMinClassBytes)
/// Classes at or below this go through the per-thread cache; larger
/// blocks always hit the global arena (they are rare and big enough
/// that a mutex is noise).
constexpr std::size_t kThreadCacheMaxBytes = 1u << 20;
constexpr std::size_t kThreadCacheClasses = 20 - kClassShift + 1;  // 4K..1M
constexpr std::size_t kThreadCacheSlots = 8;   // blocks kept per class

struct Stats {
  std::atomic<std::uint64_t> alloc_calls{0};
  std::atomic<std::uint64_t> pool_hits{0};
  std::atomic<std::uint64_t> fresh_allocs{0};
  std::atomic<std::uint64_t> pool_fallbacks{0};
  std::atomic<std::uint64_t> bytes_allocated{0};
  std::atomic<std::uint64_t> bytes_pooled{0};
  std::atomic<std::uint64_t> bytes_outstanding{0};
  std::atomic<std::uint64_t> bytes_first_touched{0};
  std::atomic<std::uint64_t> bytes_zeroed{0};
  std::atomic<std::uint64_t> hugepage_bytes{0};
  std::atomic<std::uint64_t> stream_fill_bytes{0};
  std::atomic<std::uint64_t> stream_copy_bytes{0};
};

Stats& g_stats() {
  static Stats s;
  return s;
}

/// Everything known about a block handed out by alloc(): the rounded
/// size and the alignment used, so dealloc pairs the sized/aligned
/// delete exactly. Kept (keyed by pointer) for the block's whole OS
/// lifetime, including while parked in the pool.
struct Meta {
  std::size_t bytes = 0;
  std::size_t align = kMinAlign;
  bool huge = false;
  /// False for graceful-degradation blocks: sized to the raw request
  /// rather than a size class, so they must never enter the pool.
  bool pool_eligible = true;
};

/// A registry entry. `pooled` is set while the block is parked in an
/// arena free list or a thread cache: dealloc sets it under the arena
/// lock and ignores a block that already has it (a double free); alloc
/// clears it as the block leaves the pool - on the thread-cache hit
/// path without the lock, hence atomic.
struct Block {
  explicit Block(const Meta& m) : meta(m) {}
  Meta meta;
  std::atomic<bool> pooled{false};
};
using Registry = std::unordered_map<void*, Block>;
/// Pooled blocks are held as their registry nodes (address and entry),
/// which stay put until erased - and a block is erased only once it has
/// left the pool.
using PooledBlock = Registry::value_type*;

/// Global arena: free lists keyed by class size (a power of two up to
/// 2 MiB, a 2 MiB multiple above) plus the pointer->Block registry.
/// Leaked on purpose - thread-cache flush destructors and late frees
/// in static teardown must always find it alive.
struct Arena {
  std::mutex mu;
  std::unordered_map<std::size_t, std::vector<PooledBlock>> free_lists;
  Registry registry;
};

Arena& g_arena() {
  static Arena* a = new Arena;  // intentionally leaked
  return *a;
}

std::mutex& g_config_mu() {
  static std::mutex mu;
  return mu;
}

bool parse_switch(const char* name, bool fallback) {
  static constexpr std::string_view kOnOff[] = {"off", "on"};
  if (auto idx = env::get_choice(name, kOnOff)) return *idx == 1;
  return fallback;
}

Config parse_config() {
  Config c;
  c.pool = parse_switch("SYCLPORT_POOL", c.pool);
  c.hugepages = parse_switch("SYCLPORT_HUGEPAGES", c.hugepages);
  c.first_touch = parse_switch("SYCLPORT_FIRST_TOUCH", c.first_touch);
  c.stream_stores = parse_switch("SYCLPORT_STREAM_STORES", c.stream_stores);
  if (auto mb = env::get_long("SYCLPORT_POOL_MAX_MB", 0, 1 << 20))
    c.pool_max_bytes = static_cast<std::size_t>(*mb) << 20;
  return c;
}

Config& g_config() {
  static Config c = parse_config();
  return c;
}

thread_local std::optional<bool> t_first_touch_override;

/// Does a block of this class size go back to the pool when freed?
bool pooled_class(std::size_t rounded) noexcept {
  return rounded <= kMaxClassBytes;
}

/// Per-thread free cache over the small classes. The destructor (thread
/// exit) flushes every cached block back to the global arena.
struct ThreadCache {
  struct Slot {
    std::array<PooledBlock, kThreadCacheSlots> blocks{};
    std::size_t count = 0;
  };
  std::array<Slot, kThreadCacheClasses> slots;

  /// The slot of a class size, or null when the class is too large for
  /// the thread cache.
  Slot* slot(std::size_t rounded) noexcept {
    if (rounded > kThreadCacheMaxBytes) return nullptr;
    return &slots[static_cast<std::size_t>(std::bit_width(rounded) - 1) -
                  kClassShift];
  }

  /// Move every cached block to the arena's lists (caller holds mu).
  void flush_locked(Arena& arena) {
    for (std::size_t c = 0; c < kThreadCacheClasses; ++c) {
      auto& list = arena.free_lists[kMinClassBytes << c];
      for (std::size_t i = 0; i < slots[c].count; ++i)
        list.push_back(slots[c].blocks[i]);
      slots[c].count = 0;
    }
  }

  ~ThreadCache() {
    Arena& arena = g_arena();
    std::lock_guard lock(arena.mu);
    flush_locked(arena);
  }
};

ThreadCache& t_cache() {
  thread_local ThreadCache cache;
  return cache;
}

void os_release(void* p, const Meta& m) noexcept {
  ::operator delete(p, m.bytes, std::align_val_t{m.align});
}

/// Touch one byte per page so the OS commits it on the calling thread's
/// NUMA node. Content is unspecified afterwards (Init::Touch contract).
void touch_pages(std::byte* base, std::size_t bytes) noexcept {
  for (std::size_t off = 0; off < bytes; off += kPageBytes)
    *reinterpret_cast<volatile std::byte*>(base + off) = std::byte{0};
}

/// Parallel page touch under the executor's static-schedule topology so
/// pages land on the node of the worker that will stream them. Chunking
/// is over pages, mirroring how parallel_for chunks the element range.
void first_touch(void* p, std::size_t bytes) {
  auto* base = static_cast<std::byte*>(p);
  const std::size_t pages = (bytes + kPageBytes - 1) / kPageBytes;
  if (bytes < mem::detail::kParallelBytesThreshold ||
      serial_execution_forced()) {
    touch_pages(base, bytes);
    return;
  }
  ScopedLaunchParams params(Schedule::Static, std::nullopt);
  ThreadPool::global().parallel_for(pages, [&](std::size_t b, std::size_t e) {
    touch_pages(base + b * kPageBytes,
                std::min(bytes, e * kPageBytes) - b * kPageBytes);
  });
}

/// Parallel streaming zero; doubles as the first touch (a zero store
/// places the page just as well as a dummy touch). Word-sized NT stores
/// need 8-byte alignment, which the 64-byte allocation base guarantees;
/// a ragged tail falls back to memset inside fill_serial's gate.
void zero_parallel(void* p, std::size_t bytes) {
  auto* base = static_cast<std::byte*>(p);
  const std::size_t words = bytes / 8;
  if (words > 0) parallel_fill(reinterpret_cast<std::uint64_t*>(base), words,
                               std::uint64_t{0});
  if (const std::size_t tail = bytes % 8; tail != 0)
    std::memset(base + words * 8, 0, tail);
}

}  // namespace

const Config& config() { return g_config(); }

void set_config_for_testing(const Config& c) {
  trim();
  std::lock_guard lock(g_config_mu());
  g_config() = c;
}

std::size_t size_class_bytes(std::size_t bytes) noexcept {
  if (bytes <= kMinClassBytes) return kMinClassBytes;
  if (bytes <= kHugePage) return std::bit_ceil(bytes);
  // Above 2 MiB a power of two would waste up to half the block (and
  // zero it under Init::Zero): pooled classes are 2 MiB multiples.
  // Beyond the largest pooled class, round to page (or huge-page)
  // multiples so the OS mapping is exact.
  const std::size_t unit =
      bytes <= kMaxClassBytes || g_config().hugepages ? kHugePage : kPageBytes;
  return (bytes + unit - 1) / unit * unit;
}

std::optional<bool> first_touch_override() noexcept {
  return t_first_touch_override;
}

void set_first_touch_override(std::optional<bool> v) noexcept {
  t_first_touch_override = v;
}

bool first_touch_active() noexcept {
  return t_first_touch_override.value_or(g_config().first_touch);
}

bool stream_stores_active() noexcept { return g_config().stream_stores; }

void* alloc(std::size_t bytes, Init init) {
  Stats& st = g_stats();
  const Config& cfg = g_config();
  const std::size_t rounded = size_class_bytes(bytes);
  const bool huge = cfg.hugepages && rounded >= kHugePage;
  const std::size_t align = huge ? kHugePage : kMinAlign;

  st.alloc_calls.fetch_add(1, std::memory_order_relaxed);

  // Injected arena-cap pressure: the pool is treated as exhausted for
  // this request, forcing the fresh-allocation path.
  const bool arena_pressure =
      fault::armed() && fault::roll(fault::Site::MemArena).fire;

  void* p = nullptr;
  if (cfg.pool && pooled_class(rounded) && !arena_pressure) {
    PooledBlock hit = nullptr;
    if (auto* slot = t_cache().slot(rounded); slot && slot->count > 0)
      hit = slot->blocks[--slot->count];
    if (!hit) {
      Arena& arena = g_arena();
      std::lock_guard lock(arena.mu);
      if (auto it = arena.free_lists.find(rounded);
          it != arena.free_lists.end() && !it->second.empty()) {
        hit = it->second.back();
        it->second.pop_back();
      }
    }
    if (hit) {
      hit->second.pooled.store(false);
      p = hit->first;
    }
  }

  // Effective geometry of the block handed out: the size-class rounding
  // normally, the raw request on the degradation path below.
  std::size_t actual = rounded;
  const bool fresh = p == nullptr;
  if (fresh) {
    std::size_t actual_align = align;
    bool actual_huge = huge;
    bool pool_eligible = true;
    const bool inject_fail =
        fault::armed() && fault::roll(fault::Site::MemAlloc).fire;
    if (!inject_fail) {
      try {
        p = ::operator new(rounded, std::align_val_t{align});
      } catch (const std::bad_alloc&) {
        p = nullptr;  // degrade below rather than propagate
      }
    }
    if (p) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
      if (huge) ::madvise(p, rounded, MADV_HUGEPAGE);
#endif
      if (arena_pressure) fault::note_recovered(fault::Site::MemArena);
    } else {
      // Graceful degradation: the size-class allocation failed (real
      // upstream bad_alloc or an injected one), so serve the request
      // with a plain cache-line-aligned allocation of the raw size -
      // often much smaller than the size class - that bypasses
      // the pool for its whole lifetime. Only a genuine out-of-memory
      // on *this* exact-size attempt still throws.
      actual = (std::max<std::size_t>(bytes, 1) + kMinAlign - 1) /
               kMinAlign * kMinAlign;
      actual_align = kMinAlign;
      actual_huge = false;
      pool_eligible = false;
      p = ::operator new(actual, std::align_val_t{kMinAlign});
      st.pool_fallbacks.fetch_add(1, std::memory_order_relaxed);
      if (fault::armed()) {
        fault::note_recovered(fault::Site::MemAlloc);
        // An arena-pressure injection on this same request was also
        // survived - keep injected/recovered telemetry balanced.
        if (arena_pressure) fault::note_recovered(fault::Site::MemArena);
      }
    }
    Arena& arena = g_arena();
    std::lock_guard lock(arena.mu);
    arena.registry.try_emplace(p, Meta{actual, actual_align, actual_huge,
                                       pool_eligible});
    st.fresh_allocs.fetch_add(1, std::memory_order_relaxed);
    if (actual_huge)
      st.hugepage_bytes.fetch_add(actual, std::memory_order_relaxed);
  } else {
    st.pool_hits.fetch_add(1, std::memory_order_relaxed);
    st.bytes_pooled.fetch_sub(rounded, std::memory_order_relaxed);
  }
  st.bytes_allocated.fetch_add(actual, std::memory_order_relaxed);
  st.bytes_outstanding.fetch_add(actual, std::memory_order_relaxed);

  switch (init) {
    case Init::None:
      break;
    case Init::Touch:
      // Pool-reused pages are already committed and placed; re-touching
      // would only scribble on them.
      if (fresh) {
        if (first_touch_active()) {
          first_touch(p, actual);
        } else {
          touch_pages(static_cast<std::byte*>(p), actual);
        }
        st.bytes_first_touched.fetch_add(actual, std::memory_order_relaxed);
      }
      break;
    case Init::Zero:
      // Always zero: a reused block carries the previous owner's data.
      zero_fill(p, actual);
      break;
  }
  return p;
}

void dealloc(void* p) noexcept {
  if (!p) return;
  Stats& st = g_stats();
  const Config& cfg = g_config();
  Arena& arena = g_arena();

  Meta m;
  PooledBlock entry = nullptr;
  {
    std::lock_guard lock(arena.mu);
    auto it = arena.registry.find(p);
    if (it == arena.registry.end()) return;  // not ours / freed to the OS
    if (it->second.pooled.exchange(true)) return;  // double free
    entry = &*it;
    m = it->second.meta;
  }
  st.bytes_outstanding.fetch_sub(m.bytes, std::memory_order_relaxed);

  const bool pool_it =
      m.pool_eligible && cfg.pool && pooled_class(m.bytes) &&
      st.bytes_pooled.load(std::memory_order_relaxed) + m.bytes <=
          cfg.pool_max_bytes;
  if (pool_it) {
    st.bytes_pooled.fetch_add(m.bytes, std::memory_order_relaxed);
    if (auto* slot = t_cache().slot(m.bytes);
        slot && slot->count < kThreadCacheSlots) {
      slot->blocks[slot->count++] = entry;
      return;
    }
    std::lock_guard lock(arena.mu);
    arena.free_lists[m.bytes].push_back(entry);
    return;
  }

  {
    std::lock_guard lock(arena.mu);
    arena.registry.erase(p);
  }
  os_release(p, m);
}

void trim() {
  Arena& arena = g_arena();
  Stats& st = g_stats();
  // Flush this thread's cache into the global lists first so it is
  // trimmed too (other threads' caches drain at their thread exit).
  std::vector<std::pair<void*, Meta>> victims;
  {
    std::lock_guard lock(arena.mu);
    t_cache().flush_locked(arena);
    for (const auto& entry : arena.free_lists)
      for (PooledBlock b : entry.second) {
        void* const addr = b->first;  // erase must not read the dying node
        victims.emplace_back(addr, b->second.meta);
        arena.registry.erase(addr);
      }
    arena.free_lists.clear();
  }
  for (auto& [p, m] : victims) {
    st.bytes_pooled.fetch_sub(m.bytes, std::memory_order_relaxed);
    os_release(p, m);
  }
}

void zero_fill(void* p, std::size_t bytes) {
  Stats& st = g_stats();
  st.bytes_zeroed.fetch_add(bytes, std::memory_order_relaxed);
  st.bytes_first_touched.fetch_add(bytes, std::memory_order_relaxed);
  if (first_touch_active()) {
    zero_parallel(p, bytes);
  } else {
    std::memset(p, 0, bytes);
  }
}

MemStats stats() {
  const Stats& st = g_stats();
  MemStats out;
  out.alloc_calls = st.alloc_calls.load(std::memory_order_relaxed);
  out.pool_hits = st.pool_hits.load(std::memory_order_relaxed);
  out.fresh_allocs = st.fresh_allocs.load(std::memory_order_relaxed);
  out.pool_fallbacks = st.pool_fallbacks.load(std::memory_order_relaxed);
  out.bytes_allocated = st.bytes_allocated.load(std::memory_order_relaxed);
  out.bytes_pooled = st.bytes_pooled.load(std::memory_order_relaxed);
  out.bytes_outstanding = st.bytes_outstanding.load(std::memory_order_relaxed);
  out.bytes_first_touched =
      st.bytes_first_touched.load(std::memory_order_relaxed);
  out.bytes_zeroed = st.bytes_zeroed.load(std::memory_order_relaxed);
  out.hugepage_bytes = st.hugepage_bytes.load(std::memory_order_relaxed);
  out.stream_fill_bytes = st.stream_fill_bytes.load(std::memory_order_relaxed);
  out.stream_copy_bytes = st.stream_copy_bytes.load(std::memory_order_relaxed);
  return out;
}

void reset_stats_for_testing() {
  Stats& st = g_stats();
  st.alloc_calls.store(0, std::memory_order_relaxed);
  st.pool_hits.store(0, std::memory_order_relaxed);
  st.fresh_allocs.store(0, std::memory_order_relaxed);
  st.pool_fallbacks.store(0, std::memory_order_relaxed);
  st.bytes_allocated.store(0, std::memory_order_relaxed);
  st.bytes_first_touched.store(0, std::memory_order_relaxed);
  st.bytes_zeroed.store(0, std::memory_order_relaxed);
  st.hugepage_bytes.store(0, std::memory_order_relaxed);
  st.stream_fill_bytes.store(0, std::memory_order_relaxed);
  st.stream_copy_bytes.store(0, std::memory_order_relaxed);
  // bytes_pooled / bytes_outstanding track live state, not history -
  // resetting them would corrupt later accounting.
}

namespace detail {

void note_stream_fill(std::size_t bytes) noexcept {
  g_stats().stream_fill_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void note_stream_copy(std::size_t bytes) noexcept {
  g_stats().stream_copy_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace syclport::rt::mem
