#include "op2/plan.hpp"

#include <algorithm>
#include <compare>
#include <map>
#include <mutex>
#include <stdexcept>

namespace syclport::op2 {

namespace {

/// OP2-style iterative greedy colouring of `ids` (element or block ids):
/// repeated passes, each pass claims targets first-come-first-served and
/// assigns the pass colour to every claimable element. `targets_of(id)`
/// yields the conflict targets. Returns the number of colours used and
/// fills `colour`.
template <typename TargetsOf>
int greedy_colour(std::size_t n, std::size_t ntargets, TargetsOf&& targets_of,
                  std::vector<int>& colour) {
  colour.assign(n, -1);
  std::vector<unsigned char> claimed(ntargets);
  std::size_t remaining = n;
  int c = 0;
  while (remaining > 0) {
    std::fill(claimed.begin(), claimed.end(), 0);
    for (std::size_t e = 0; e < n; ++e) {
      if (colour[e] >= 0) continue;
      bool free = true;
      targets_of(e, [&](int t) {
        if (claimed[static_cast<std::size_t>(t)]) free = false;
      });
      if (!free) continue;
      targets_of(e, [&](int t) { claimed[static_cast<std::size_t>(t)] = 1; });
      colour[e] = c;
      --remaining;
    }
    ++c;
    if (c > 4096)
      throw std::runtime_error("greedy_colour: colour explosion (bad map?)");
  }
  return c;
}

/// Call fn(r) once for every distinct owner r of element e's targets.
/// Rows are short (arity <= a few), so duplicates are found by a scan
/// of the row's earlier entries.
template <typename Fn>
void for_each_owner(const int* row, std::size_t arity,
                    const std::vector<std::uint32_t>& owner, Fn&& fn) {
  for (std::size_t i = 0; i < arity; ++i) {
    const std::uint32_t r = owner[static_cast<std::size_t>(row[i])];
    bool seen = false;
    for (std::size_t j = 0; j < i && !seen; ++j)
      seen = owner[static_cast<std::size_t>(row[j])] == r;
    if (!seen) fn(r);
  }
}

struct OwnershipKey {
  std::uint64_t map_digest = 0;
  std::size_t from_size = 0;
  std::size_t to_size = 0;
  int arity = 0;
  std::size_t ranges = 0;
  auto operator<=>(const OwnershipKey&) const = default;
};

struct OwnershipMemo {
  std::mutex mu;
  std::map<OwnershipKey, std::shared_ptr<const Ownership>> entries;
};

}  // namespace

Ownership build_ownership(const Map& map, std::size_t ranges) {
  const std::size_t n = map.from().size();
  const std::size_t ntargets = map.to().size();
  const auto arity = static_cast<std::size_t>(map.arity());
  const std::size_t nr = std::max<std::size_t>(1, ranges);

  Ownership o;
  o.range_begin.resize(nr + 1);
  for (std::size_t r = 0; r <= nr; ++r) o.range_begin[r] = r * ntargets / nr;
  std::vector<std::uint32_t> owner(ntargets);
  for (std::size_t r = 0; r < nr; ++r)
    std::fill(owner.begin() + static_cast<std::ptrdiff_t>(o.range_begin[r]),
              owner.begin() + static_cast<std::ptrdiff_t>(o.range_begin[r + 1]),
              static_cast<std::uint32_t>(r));

  // Pass 1 counts each range's elements; pass 2 places them, ascending
  // because elements are visited in order.
  o.offsets.assign(nr + 1, 0);
  for (std::size_t e = 0; e < n; ++e)
    for_each_owner(map.row(e), arity, owner,
                   [&](std::uint32_t r) { ++o.offsets[r + 1]; });
  for (std::size_t r = 0; r < nr; ++r) o.offsets[r + 1] += o.offsets[r];
  o.elems.resize(o.offsets[nr]);
  std::vector<std::size_t> next(o.offsets.begin(), o.offsets.end() - 1);
  for (std::size_t e = 0; e < n; ++e)
    for_each_owner(map.row(e), arity, owner, [&](std::uint32_t r) {
      o.elems[next[r]++] = static_cast<int>(e);
    });
  return o;
}

std::shared_ptr<const Ownership> memoized_ownership(const Map& map,
                                                    std::uint64_t digest,
                                                    std::size_t ranges) {
  static OwnershipMemo memo;
  const OwnershipKey key{.map_digest = digest,
                         .from_size = map.from().size(),
                         .to_size = map.to().size(),
                         .arity = map.arity(),
                         .ranges = ranges};
  {
    std::lock_guard lock(memo.mu);
    if (const auto it = memo.entries.find(key); it != memo.entries.end())
      return it->second;
  }
  // Built outside the lock; concurrent misses on one key build equal
  // partitions and share whichever is stored first.
  auto built = std::make_shared<const Ownership>(build_ownership(map, ranges));
  std::lock_guard lock(memo.mu);
  return memo.entries.try_emplace(key, std::move(built)).first->second;
}

Plan build_plan(const Map& map, Strategy strategy, std::size_t block_size) {
  Plan p;
  p.strategy = strategy;
  p.nelems = map.from().size();
  p.block_size = block_size;
  const std::size_t ntargets = map.to().size();
  const int arity = map.arity();

  auto elem_targets = [&](std::size_t e, auto&& fn) {
    for (int i = 0; i < arity; ++i) fn(map.at(e, i));
  };

  switch (strategy) {
    case Strategy::Atomics:
    case Strategy::None:
    case Strategy::Staged:  // identity order; races resolved by staging
      break;

    case Strategy::GlobalColor: {
      p.ncolours = greedy_colour(p.nelems, ntargets, elem_targets, p.colour);
      p.elements_by_colour.assign(static_cast<std::size_t>(p.ncolours), {});
      for (std::size_t e = 0; e < p.nelems; ++e)
        p.elements_by_colour[static_cast<std::size_t>(p.colour[e])].push_back(
            static_cast<int>(e));
      break;
    }

    case Strategy::Hierarchical: {
      p.nblocks = (p.nelems + block_size - 1) / block_size;
      auto block_targets = [&](std::size_t blk, auto&& fn) {
        const std::size_t b = blk * block_size;
        const std::size_t e_end = std::min(p.nelems, b + block_size);
        for (std::size_t e = b; e < e_end; ++e)
          for (int i = 0; i < arity; ++i) fn(map.at(e, i));
      };
      p.nblock_colours =
          greedy_colour(p.nblocks, ntargets, block_targets, p.block_colour);
      p.blocks_by_colour.assign(static_cast<std::size_t>(p.nblock_colours), {});
      for (std::size_t blk = 0; blk < p.nblocks; ++blk)
        p.blocks_by_colour[static_cast<std::size_t>(p.block_colour[blk])]
            .push_back(static_cast<int>(blk));

      // Intra-block colouring: elements within one block conflict on
      // shared targets; colour each block independently. Per target we
      // track the highest colour used and the block that used it, so no
      // per-block reset pass is needed.
      p.intra_colour.assign(p.nelems, -1);
      std::vector<int> seen_colour(ntargets, -1);
      std::vector<int> seen_block(ntargets, -1);
      for (std::size_t blk = 0; blk < p.nblocks; ++blk) {
        const std::size_t b = blk * block_size;
        const std::size_t e_end = std::min(p.nelems, b + block_size);
        for (std::size_t e = b; e < e_end; ++e) {
          int c = 0;
          for (int i = 0; i < arity; ++i) {
            const auto t = static_cast<std::size_t>(map.at(e, i));
            if (seen_block[t] == static_cast<int>(blk))
              c = std::max(c, seen_colour[t] + 1);
          }
          p.intra_colour[e] = c;
          p.max_intra_colours = std::max(p.max_intra_colours, c + 1);
          for (int i = 0; i < arity; ++i) {
            const auto t = static_cast<std::size_t>(map.at(e, i));
            if (seen_block[t] != static_cast<int>(blk)) {
              seen_block[t] = static_cast<int>(blk);
              seen_colour[t] = c;
            } else {
              seen_colour[t] = std::max(seen_colour[t], c);
            }
          }
        }
      }
      break;
    }
  }
  return p;
}

bool validate_plan(const Plan& plan, const Map& map) {
  const std::size_t ntargets = map.to().size();
  const int arity = map.arity();

  if (plan.strategy == Strategy::GlobalColor) {
    std::vector<int> owner(ntargets, -1);
    for (int c = 0; c < plan.ncolours; ++c) {
      std::fill(owner.begin(), owner.end(), -1);
      for (int e : plan.elements_by_colour[static_cast<std::size_t>(c)]) {
        for (int i = 0; i < arity; ++i) {
          const auto t = static_cast<std::size_t>(
              map.at(static_cast<std::size_t>(e), i));
          if (owner[t] >= 0) return false;  // two same-colour elems share t
          owner[t] = e;
        }
      }
    }
    return true;
  }

  if (plan.strategy == Strategy::Hierarchical) {
    // Same-colour blocks must not share targets.
    std::vector<int> block_of(ntargets, -1);
    for (int c = 0; c < plan.nblock_colours; ++c) {
      std::fill(block_of.begin(), block_of.end(), -1);
      for (int blk : plan.blocks_by_colour[static_cast<std::size_t>(c)]) {
        const std::size_t b = static_cast<std::size_t>(blk) * plan.block_size;
        const std::size_t e_end = std::min(plan.nelems, b + plan.block_size);
        for (std::size_t e = b; e < e_end; ++e)
          for (int i = 0; i < arity; ++i) {
            const auto t = static_cast<std::size_t>(map.at(e, i));
            if (block_of[t] >= 0 && block_of[t] != blk) return false;
            block_of[t] = blk;
          }
      }
    }
    // Within each block, no two elements of the same intra-colour may
    // share a target: record (block, colour) pairs per target.
    {
      std::vector<int> tag_block(ntargets, -1);
      std::vector<std::vector<char>> tag_colours(ntargets);
      for (std::size_t blk = 0; blk < plan.nblocks; ++blk) {
        const std::size_t b = blk * plan.block_size;
        const std::size_t e_end = std::min(plan.nelems, b + plan.block_size);
        for (std::size_t e = b; e < e_end; ++e) {
          const auto c = static_cast<std::size_t>(plan.intra_colour[e]);
          for (int i = 0; i < arity; ++i) {
            const auto t = static_cast<std::size_t>(map.at(e, i));
            if (tag_block[t] != static_cast<int>(blk)) {
              tag_block[t] = static_cast<int>(blk);
              tag_colours[t].assign(
                  static_cast<std::size_t>(plan.max_intra_colours), 0);
            }
            if (tag_colours[t][c]) return false;
            tag_colours[t][c] = 1;
          }
        }
      }
    }
    return true;
  }

  if (plan.strategy == Strategy::Atomics && plan.owners != nullptr) {
    const Ownership& o = *plan.owners;
    const std::size_t nr = o.ranges();
    // Bounds 0 = b0 <= b1 <= ... = ntargets put every target in
    // exactly one range.
    if (nr == 0 || o.offsets.size() != nr + 1 || o.range_begin.front() != 0 ||
        o.range_begin.back() != ntargets || o.offsets.front() != 0 ||
        o.offsets.back() != o.elems.size())
      return false;
    for (std::size_t r = 0; r < nr; ++r)
      if (o.range_begin[r] > o.range_begin[r + 1] ||
          o.offsets[r] > o.offsets[r + 1])
        return false;
    // Range r's list must equal, entry for entry, the ascending walk of
    // the elements with a target in [range_begin[r], range_begin[r+1]):
    // strictly ascending, nothing missing, nothing extra.
    for (std::size_t r = 0; r < nr; ++r) {
      std::size_t pos = o.offsets[r];
      for (std::size_t e = 0; e < plan.nelems; ++e) {
        bool in_range = false;
        for (int i = 0; i < arity; ++i) {
          const auto t = static_cast<std::size_t>(map.at(e, i));
          in_range |= t >= o.range_begin[r] && t < o.range_begin[r + 1];
        }
        if (!in_range) continue;
        if (pos == o.offsets[r + 1] ||
            o.elems[pos] != static_cast<int>(e))
          return false;
        ++pos;
      }
      if (pos != o.offsets[r + 1]) return false;
    }
  }
  return true;
}

}  // namespace syclport::op2
