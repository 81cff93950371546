#pragma once
/// \file plan.hpp
/// OP2 execution plans: the colouring data structures that resolve
/// indirect-increment races (paper §3, Figure 1).
///  - global colouring: elements coloured so no two elements of one
///    colour share a mapped target; one parallel sweep per colour.
///  - hierarchical colouring: elements grouped into blocks of
///    consecutive ids; blocks coloured against shared targets; within
///    each block elements get intra-block colours. On GPUs a block is a
///    work-group (with barriers between intra-colours).
///  - owner-computes (the host lowering of atomics): targets split into
///    contiguous ranges; each range's task runs, in ascending order,
///    the elements that map into it and keeps only the increments that
///    land in it.
/// Plans are computed once per (map, strategy, block size) and cached.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.hpp"
#include "op2/set.hpp"

namespace syclport::op2 {

/// Owner-computes partition of a map's targets into ranges() contiguous
/// ranges. Every target lies in exactly one range, and a range lists,
/// strictly ascending, every element with a mapped target in it. A task
/// that runs its range's elements in order and applies only the
/// increments landing in the range therefore gives each target its
/// increments in element order - bit-identical to a serial sweep - while
/// the tasks run in parallel. Elements mapping into several ranges are
/// listed (and run) once per range.
struct Ownership {
  std::vector<std::size_t> range_begin;  ///< ranges()+1 target bounds
  std::vector<std::size_t> offsets;      ///< ranges()+1 bounds into elems
  std::vector<int> elems;  ///< range r: elems[offsets[r], offsets[r+1])

  [[nodiscard]] std::size_t ranges() const {
    return range_begin.empty() ? 0 : range_begin.size() - 1;
  }
};

/// Split map.to() into `ranges` (>= 1) near-equal contiguous ranges and
/// list each range's elements: two counting passes over the map into
/// one flat array.
[[nodiscard]] Ownership build_ownership(const Map& map, std::size_t ranges);

/// The process-wide ownership memo: the partition of a map with these
/// entries (`digest`, op2::map_digest) and set sizes into `ranges`
/// ranges, built on a miss. Keyed by content, never by address, like
/// the gather memo (docs/unstructured.md).
[[nodiscard]] std::shared_ptr<const Ownership> memoized_ownership(
    const Map& map, std::uint64_t digest, std::size_t ranges);

struct Plan {
  Strategy strategy = Strategy::Atomics;
  std::size_t nelems = 0;

  // --- global colouring ---------------------------------------------------
  std::vector<int> colour;             ///< colour per element
  int ncolours = 0;
  /// Elements grouped by colour: elements_by_colour[c] lists ids.
  std::vector<std::vector<int>> elements_by_colour;

  // --- hierarchical colouring ----------------------------------------------
  std::size_t block_size = 0;
  std::size_t nblocks = 0;
  std::vector<int> block_colour;       ///< colour per block
  int nblock_colours = 0;
  std::vector<std::vector<int>> blocks_by_colour;
  std::vector<int> intra_colour;       ///< colour of element within its block
  int max_intra_colours = 0;

  // --- atomics: owner-computes ---------------------------------------------
  /// Set by Context::owners_for the first time a loop over the map
  /// executes; null in plans that only price (the identity order).
  std::shared_ptr<const Ownership> owners;

  /// Parallel sweeps this plan splits a loop into (kernel launches).
  [[nodiscard]] std::size_t launches() const {
    switch (strategy) {
      case Strategy::GlobalColor: return static_cast<std::size_t>(ncolours);
      case Strategy::Hierarchical:
        return static_cast<std::size_t>(nblock_colours);
      default: return 1;
    }
  }
};

/// Build a plan resolving conflicts through `map` (two elements conflict
/// when they share any mapped target). `block_size` is used by the
/// hierarchical strategy only.
[[nodiscard]] Plan build_plan(const Map& map, Strategy strategy,
                              std::size_t block_size = 256);

/// Verify plan invariants (used by property tests): no two same-colour
/// elements (global) or same-colour blocks (hierarchical) share a
/// target, and within a block no two same-intra-colour elements do.
/// An atomics plan's ownership, when present, must cover every target
/// with exactly one range and list, strictly ascending, exactly the
/// elements with a target in each range.
[[nodiscard]] bool validate_plan(const Plan& plan, const Map& map);

}  // namespace syclport::op2
