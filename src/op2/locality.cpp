#include "op2/locality.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "op2/plan.hpp"

namespace syclport::op2 {

namespace {

struct GatherMemo {
  std::mutex mu;
  std::map<GatherKey, GatherStats> entries;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

GatherMemo& gather_memo() {
  static GatherMemo memo;
  return memo;
}

}  // namespace

GatherStats measure_gather(const Map& map, int dat_dim,
                           std::size_t elem_bytes,
                           const std::vector<int>& order, std::size_t wave,
                           double line_bytes, Layout layout) {
  GatherStats gs;
  if (order.empty()) return gs;
  const std::size_t payload = static_cast<std::size_t>(dat_dim) * elem_bytes;
  const auto line = static_cast<std::size_t>(line_bytes);
  const std::size_t ntargets = map.to().size();
  const auto dim = static_cast<std::size_t>(dat_dim);

  // Lines target t's components occupy under the dat's physical layout.
  auto touch_lines = [&](int t, auto&& fn) {
    if (layout == Layout::AoS) {
      const std::size_t first = static_cast<std::size_t>(t) * payload;
      for (std::size_t b = first / line; b <= (first + payload - 1) / line;
           ++b)
        fn(b);
      return;
    }
    for (std::size_t c = 0; c < dim; ++c) {
      const std::size_t slot = layout_index(
          layout, static_cast<std::size_t>(t), c, ntargets, dim);
      fn(slot * elem_bytes / line);
    }
  };

  double total_line_bytes = 0.0;
  double total_ideal_bytes = 0.0;
  std::size_t nwaves = 0;
  std::unordered_set<std::size_t> lines;
  std::unordered_set<int> targets;

  // Reuse-distance bookkeeping: per line, the value of the traffic
  // clock at its last touch; a touch with (clock - last) beyond a cache
  // capacity is a miss for that capacity (recency approximates stack
  // distance for streaming access patterns).
  std::unordered_map<std::size_t, double> last_touch;
  double clock = 0.0;
  std::array<double, hw::kGatherCachePoints.size()> miss_bytes{};

  for (std::size_t w = 0; w < order.size(); w += wave) {
    const std::size_t end = std::min(order.size(), w + wave);
    lines.clear();
    targets.clear();
    for (std::size_t i = w; i < end; ++i) {
      const auto e = static_cast<std::size_t>(order[i]);
      for (int m = 0; m < map.arity(); ++m) {
        const int t = map.at(e, m);
        targets.insert(t);
        touch_lines(t, [&](std::size_t b) { lines.insert(b); });
      }
    }
    // Per-wave line touches feed the reuse profile: one touch per
    // unique line per wave (intra-wave duplicates coalesce in the MSHR).
    for (std::size_t b : lines) {
      auto [it, inserted] = last_touch.try_emplace(b, -1.0);
      for (std::size_t c = 0; c < hw::kGatherCachePoints.size(); ++c) {
        if (inserted || clock - it->second > hw::kGatherCachePoints[c])
          miss_bytes[c] += line_bytes;
      }
      it->second = clock;
      clock += line_bytes;
    }
    total_line_bytes += static_cast<double>(lines.size()) * line_bytes;
    total_ideal_bytes += static_cast<double>(targets.size() * payload);
    ++nwaves;
  }

  gs.avg_bytes_per_wave = total_line_bytes / static_cast<double>(nwaves);
  gs.ideal_bytes_per_wave = total_ideal_bytes / static_cast<double>(nwaves);

  // Unique footprint over the whole sweep: every referenced target once.
  std::unordered_set<int> all_targets;
  for (int e : order)
    for (int m = 0; m < map.arity(); ++m)
      all_targets.insert(map.at(static_cast<std::size_t>(e), m));
  const double unique_bytes =
      static_cast<double>(all_targets.size() * payload);
  if (unique_bytes > 0.0) {
    gs.line_factor = std::max(1.0, total_line_bytes / unique_bytes);
    for (std::size_t c = 0; c < hw::kGatherCachePoints.size(); ++c)
      gs.factor_at[c] = std::max(1.0, miss_bytes[c] / unique_bytes);
  }
  return gs;
}

std::vector<int> execution_order(const Plan& plan) {
  std::vector<int> order;
  order.reserve(plan.nelems);
  switch (plan.strategy) {
    case Strategy::GlobalColor:
      for (const auto& elems : plan.elements_by_colour)
        order.insert(order.end(), elems.begin(), elems.end());
      break;
    case Strategy::Hierarchical:
      // Within a block, work-items execute one intra-colour per barrier
      // phase, so a GPU wave sees same-colour (strided) edges - this
      // is what degrades hierarchical locality below atomics while
      // keeping it far better than global colouring (paper §4.3).
      for (const auto& blocks : plan.blocks_by_colour)
        for (int blk : blocks) {
          const std::size_t b = static_cast<std::size_t>(blk) * plan.block_size;
          const std::size_t e_end = std::min(plan.nelems, b + plan.block_size);
          for (int c = 0; c < plan.max_intra_colours; ++c)
            for (std::size_t e = b; e < e_end; ++e)
              if (plan.intra_colour[e] == c)
                order.push_back(static_cast<int>(e));
        }
      break;
    default:
      for (std::size_t e = 0; e < plan.nelems; ++e)
        order.push_back(static_cast<int>(e));
      break;
  }
  return order;
}

std::uint64_t map_digest(const Map& map) {
  // xxHash64's round and avalanche over the entries read two at a time:
  // one multiply-rotate per 8 bytes, about 2 ms for 7 MB of maps.
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  const std::size_t n =
      map.from().size() * static_cast<std::size_t>(map.arity());
  const int* entries = map.row(0);
  std::uint64_t h = kP1 ^ n;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    std::uint64_t w = 0;
    std::memcpy(&w, entries + i, sizeof w);
    h = std::rotl(h + w * kP2, 31) * kP1;
  }
  if (i < n)
    h = std::rotl(h + static_cast<std::uint32_t>(entries[i]) * kP2, 31) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

GatherStats memoized_gather(const GatherKey& key,
                            const std::function<GatherStats()>& measure) {
  GatherMemo& memo = gather_memo();
  {
    std::lock_guard lock(memo.mu);
    if (const auto it = memo.entries.find(key); it != memo.entries.end()) {
      ++memo.hits;
      return it->second;
    }
    ++memo.misses;
  }
  const GatherStats gs = measure();
  std::lock_guard lock(memo.mu);
  memo.entries.try_emplace(key, gs);
  return gs;
}

GatherMemoCounters gather_memo_counters() {
  GatherMemo& memo = gather_memo();
  std::lock_guard lock(memo.mu);
  return {memo.hits, memo.misses};
}

void clear_gather_memo() {
  GatherMemo& memo = gather_memo();
  std::lock_guard lock(memo.mu);
  memo.entries.clear();
}

}  // namespace syclport::op2
