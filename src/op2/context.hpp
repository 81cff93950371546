#pragma once
/// \file context.hpp
/// OP2 execution context: race-resolution strategy, execution backend,
/// plan cache, and the recorded loop profiles.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "core/types.hpp"
#include "hwmodel/loop_profile.hpp"
#include "op2/layout.hpp"
#include "op2/locality.hpp"
#include "op2/plan.hpp"
#include "runtime/env.hpp"
#include "runtime/thread_pool.hpp"
#include "sycl/sycl.hpp"

namespace syclport::op2 {

enum class Exec : std::uint8_t {
  Serial,   ///< reference execution, one element at a time
  Threads,  ///< thread-pool sweeps (OpenMP-like / MPI-rank-local)
  Sycl,     ///< sweeps routed through the miniSYCL queue
};

enum class Mode : std::uint8_t { Execute, ModelOnly };

struct Options {
  Exec exec = Exec::Threads;
  Mode mode = Mode::Execute;
  bool record = true;
  Strategy strategy = Strategy::Atomics;  ///< for indirect-increment loops
  std::size_t block_size = 256;           ///< hierarchical block size
  std::size_t wg = 256;                   ///< work-group size for Sycl exec
  /// Wave width for locality measurement (sub_group of the modeled GPU).
  std::size_t wave = 64;
  /// Staged lowering: elements per gather/compute tile. Sized so one
  /// tile's operand scratch (a few dats x dim x 8 bytes x tile) stays
  /// L1/L2-resident while a super-tile of nthreads tiles is in flight.
  std::size_t stage_tile = 96;
  /// Physical layout the app should give its mesh dats (apps apply it
  /// to the dats they create, e.g. run_mgcfd); nullopt keeps the
  /// process default (SYCLPORT_LAYOUT or AoS). Non-AoS dats route
  /// their loops through the staged lowering.
  std::optional<Layout> layout;
  /// Online autotuner override for this context's loops: true/false
  /// forces tuning on/off regardless of SYCLPORT_TUNE; nullopt defers
  /// to the env mode. See docs/tuning.md.
  std::optional<bool> tune;
};

/// SYCLPORT_INDIRECT overrides the app's default race-resolution
/// strategy for indirect-increment loops (docs/unstructured.md);
/// nullopt when unset or invalid.
[[nodiscard]] inline std::optional<Strategy> strategy_from_env() {
  static constexpr std::array<std::string_view, 4> kNames = {
      "atomics", "global", "hierarchical", "staged"};
  static constexpr std::array<Strategy, 4> kValues = {
      Strategy::Atomics, Strategy::GlobalColor, Strategy::Hierarchical,
      Strategy::Staged};
  if (const auto idx = rt::env::get_choice("SYCLPORT_INDIRECT", kNames))
    return kValues[*idx];
  return std::nullopt;
}

class Context {
 public:
  explicit Context(Options o) : opt(o) {
    if (const auto s = strategy_from_env()) opt.strategy = *s;
  }
  Context() : Context(Options{}) {}

  Options opt;
  sycl::queue queue;
  std::vector<hw::LoopProfile> profiles;
  void clear_profiles() { profiles.clear(); }

  [[nodiscard]] bool executing() const { return opt.mode == Mode::Execute; }

  /// Plan for resolving conflicts through `map` under `strategy`
  /// (default: the context's); built once and cached. Staged and None
  /// share the Atomics plan - all three execute elements in identity
  /// order; staging resolves the races in scratch, the others by owner
  /// ranges (owners_for), rather than by colouring. Plans are cached by
  /// the map's address, so a map must not be edited once this Context
  /// has run a loop over it: its stale colours or owner lists would
  /// race or drop increments. Renumber before, as run_mgcfd does.
  [[nodiscard]] const Plan& plan_for(const Map& map) {
    return plan_for(map, opt.strategy);
  }
  [[nodiscard]] const Plan& plan_for(const Map& map, Strategy strategy) {
    return plan_slot(map, strategy);
  }

  /// Contiguous ranges a conflict loop splits `ntargets` targets into,
  /// for owner-computes and for the staged scatter: one per pool worker
  /// (at most one per target), one on Exec::Serial.
  [[nodiscard]] std::size_t target_ranges(std::size_t ntargets) const {
    if (opt.exec == Exec::Serial) return 1;
    return std::max<std::size_t>(
        1, std::min<std::size_t>(rt::ThreadPool::global().size(), ntargets));
  }

  /// The owner-computes partition of `map`'s targets into `ranges`
  /// ranges (op2/par_loop.hpp), held by the map's Atomics plan: taken
  /// once per Context from the process-wide ownership memo, which
  /// builds it on the first miss for the map's content.
  [[nodiscard]] const Ownership& owners_for(const Map& map,
                                            std::size_t ranges) {
    Plan& plan = plan_slot(map, Strategy::Atomics);
    if (plan.owners == nullptr || plan.owners->ranges() != ranges)
      plan.owners = memoized_ownership(map, digest_of(map), ranges);
    return *plan.owners;
  }

  /// Gather-locality statistics for accessing (dim x elem_bytes) data
  /// in `layout` through `map` in the plan's execution order. Served
  /// from this context's cache, else from the process-wide memo keyed by
  /// the map's content (hashed once per context), else measured.
  [[nodiscard]] const GatherStats& gather_for(const Map& map, int dim,
                                              std::size_t elem_bytes,
                                              Layout layout = Layout::AoS) {
    return gather_for(map, dim, elem_bytes, opt.strategy, layout);
  }
  [[nodiscard]] const GatherStats& gather_for(const Map& map, int dim,
                                              std::size_t elem_bytes,
                                              Strategy strategy,
                                              Layout layout) {
    if (strategy == Strategy::Staged) strategy = Strategy::Atomics;
    const auto key = std::make_tuple(static_cast<const void*>(&map),
                                     strategy, opt.block_size, dim,
                                     elem_bytes, layout);
    auto it = gathers_.find(key);
    if (it == gathers_.end()) {
      const GatherKey memo_key{.map_digest = digest_of(map),
                               .from_size = map.from().size(),
                               .to_size = map.to().size(),
                               .arity = map.arity(),
                               .strategy = strategy,
                               .block_size = opt.block_size,
                               .dim = dim,
                               .elem_bytes = elem_bytes,
                               .layout = layout,
                               .wave = opt.wave};
      it = gathers_
               .emplace(key, memoized_gather(memo_key, [&] {
                          return measure_gather(
                              map, dim, elem_bytes,
                              execution_order(plan_for(map, strategy)),
                              opt.wave, 64.0, layout);
                        }))
               .first;
    }
    return it->second;
  }

 private:
  [[nodiscard]] Plan& plan_slot(const Map& map, Strategy strategy) {
    if (strategy == Strategy::Staged || strategy == Strategy::None)
      strategy = Strategy::Atomics;
    const auto key = std::make_tuple(static_cast<const void*>(&map),
                                     strategy, opt.block_size);
    auto it = plans_.find(key);
    if (it == plans_.end())
      it = plans_
               .emplace(key, std::make_unique<Plan>(build_plan(
                                 map, strategy, opt.block_size)))
               .first;
    return *it->second;
  }

  /// map_digest of `map`, taken on its first use here.
  [[nodiscard]] std::uint64_t digest_of(const Map& map) {
    auto [it, fresh] = digests_.try_emplace(&map);
    if (fresh) it->second = map_digest(map);
    return it->second;
  }

  std::map<std::tuple<const void*, Strategy, std::size_t>,
           std::unique_ptr<Plan>>
      plans_;
  std::map<std::tuple<const void*, Strategy, std::size_t, int, std::size_t,
                      Layout>,
           GatherStats>
      gathers_;
  /// map_digest of each map, taken on its first use here.
  std::map<const Map*, std::uint64_t> digests_;
};

}  // namespace syclport::op2
