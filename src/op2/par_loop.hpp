#pragma once
/// \file par_loop.hpp
/// The OP2 parallel-loop primitive for unstructured meshes. A par_loop
/// names a kernel over a set with direct, indirect, increment and
/// global arguments. Indirect increments race between elements sharing
/// a mapped target; the context's Strategy resolves them (paper §3):
///   - Atomics (and None): priced as one sweep of atomic adds, executed
///     on the host owner-computes: the targets split into one range per
///     worker, and each range's task runs, in element order, the
///     elements mapping into it, with plain adds; increments to another
///     range's targets go to the task's scratch sink. Every target gets
///     its increments in element order, so the result is bit-identical
///     to Exec::Serial at any thread count. An element mapping into two
///     ranges runs twice, so only loops whose other arguments are all
///     Acc::R and that reduce nothing take this path; the others run
///     through the staged lowering (stage.hpp), also element-ordered;
///   - GlobalColor: one sweep per colour, plain adds;
///   - Hierarchical: one sweep per block colour; within a block,
///     intra-colour phases (separated by work-group barriers when
///     executing through SYCL).
/// Every invocation records a LoopProfile including measured gather
/// locality, the input to the hardware model's MG-CFD reproduction.

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "hwmodel/loop_profile.hpp"
#include "hwmodel/tuning_priors.hpp"
#include "op2/arg.hpp"
#include "op2/context.hpp"
#include "op2/renumber.hpp"
#include "op2/stage.hpp"
#include "runtime/autotune/autotune.hpp"
#include "runtime/thread_pool.hpp"
#include "sycl/launch_log.hpp"

namespace syclport::op2 {

struct Meta {
  const char* name = "(kernel)";
  double flops_per_elem = 0.0;
};

namespace detail {

// --- kernel-side binders -----------------------------------------------------
// make(e, blk): the view of element e, which the sweep runs in reduction
// block blk (core/reducer.hpp; only GblBinder reads it).

template <typename T>
struct DirectBinder {
  T* base;
  int dim;
  [[nodiscard]] T* make(std::size_t e, std::size_t) const {
    return base + e * static_cast<std::size_t>(dim);
  }
};

template <typename T>
struct IndirectBinder {
  T* base;
  int dim;
  const Map* map;
  int idx;
  [[nodiscard]] T* make(std::size_t e, std::size_t) const {
    return base +
           static_cast<std::size_t>(map->at(e, idx)) *
               static_cast<std::size_t>(dim);
  }
};

template <typename T>
struct IncBinder {
  T* base;
  int dim;
  const Map* map;
  int idx;
  [[nodiscard]] Inc<T> make(std::size_t e, std::size_t) const {
    return Inc<T>(base + static_cast<std::size_t>(map->at(e, idx)) *
                             static_cast<std::size_t>(dim));
  }
};

/// An INC binder inside one owner-computes task: targets in [lo, hi)
/// are the task's own; the increments of any other target go to the
/// task's sink, cleared per element and never read.
template <typename T>
struct OwnedIncBinder {
  IncBinder<T> inc;
  std::size_t lo, hi;
  std::vector<T> sink;
  [[nodiscard]] Inc<T> make(std::size_t e, std::size_t) {
    const auto t = static_cast<std::size_t>(inc.map->at(e, inc.idx));
    if (t >= lo && t < hi)
      return Inc<T>(inc.base + t * static_cast<std::size_t>(inc.dim));
    std::fill(sink.begin(), sink.end(), T{});
    return Inc<T>(sink.data());
  }
};

/// The binder an owner-computes task over targets [lo, hi) uses.
template <typename B>
B owned(const B& b, std::size_t, std::size_t) {
  return b;
}
template <typename T>
OwnedIncBinder<T> owned(const IncBinder<T>& b, std::size_t lo,
                        std::size_t hi) {
  return {b, lo, hi, std::vector<T>(static_cast<std::size_t>(b.dim))};
}

/// Global reduction: one partial per block of the current sweep,
/// folded into the target in block order when the sweep closes.
template <typename T>
struct GblBinder {
  T* target;
  RedOp op;
  std::optional<BlockPartials<T>> partials;
  [[nodiscard]] Reducer<T> make(std::size_t, std::size_t blk) const {
    return Reducer<T>(partials->slot(blk), op);
  }
};

template <typename B>
void open_sweep(B&, std::size_t) {}
template <typename T>
void open_sweep(GblBinder<T>& b, std::size_t blocks) {
  b.partials.emplace(b.op, blocks);
}
template <typename B>
void close_sweep(const B&) {}
template <typename T>
void close_sweep(const GblBinder<T>& b) {
  b.partials->fold_into(*b.target);
}

/// Open / close one sweep on every binder of a loop.
template <typename Binders>
void open_sweeps(Binders& bs, std::size_t blocks) {
  std::apply([&](auto&... b) { (open_sweep(b, blocks), ...); }, bs);
}
template <typename Binders>
void close_sweeps(const Binders& bs) {
  std::apply([](const auto&... b) { (close_sweep(b), ...); }, bs);
}

template <typename A>
struct is_gbl_arg : std::false_type {};
template <typename T>
struct is_gbl_arg<GblArg<T>> : std::true_type {};

/// Run body(i, blk) for every position i of a [0, count) sweep on
/// `exec`. With Whole (the loop reduces), blk is i's kReduceChunk
/// block and every block runs on one thread in ascending order: a
/// parallel chunk runs the blocks that start inside it, a SYCL work-item
/// at a block start sweeps its block. Without it blk is 0 and chunks
/// split freely.
template <bool Whole, typename F>
void sweep_list(Exec exec, ::sycl::queue& q, const char* name,
                std::size_t count, F&& body) {
  const BlockPartition part = BlockPartition::uniform(count, kReduceChunk);
  switch (exec) {
    case Exec::Serial:
      for (std::size_t i = 0; i < count; ++i)
        body(i, Whole ? i >> kReduceChunkShift : 0);
      break;
    case Exec::Threads:
      rt::ThreadPool::global().parallel_for(
          count, [&](std::size_t b, std::size_t e) {
            if constexpr (Whole) {
              part.for_each_starting_in(
                  b, e, [&](std::size_t k, std::size_t kb, std::size_t ke) {
                    for (std::size_t i = kb; i < ke; ++i) body(i, k);
                  });
            } else {
              for (std::size_t i = b; i < e; ++i) body(i, 0);
            }
          });
      break;
    case Exec::Sycl:
      q.parallel_for(name, ::sycl::range<1>(count), [&](::sycl::item<1> it) {
        const std::size_t i = it.get_linear_id();
        if constexpr (Whole) {
          if ((i & (kReduceChunk - 1)) != 0) return;
          const std::size_t k = i >> kReduceChunkShift;
          for (std::size_t j = i, e = part.end(k); j < e; ++j) body(j, k);
        } else {
          body(i, 0);
        }
      });
      break;
  }
}

template <typename T>
DirectBinder<T> make_binder(const DirectArg<T>& a, bool executing) {
  return {executing ? a.dat->elem(0) : nullptr, a.dat->dim()};
}
template <typename T>
IndirectBinder<T> make_binder(const IndirectArg<T>& a, bool executing) {
  if (a.acc == Acc::INC)
    throw std::invalid_argument("use arg_inc() for INC access");
  return {executing ? a.dat->elem(0) : nullptr, a.dat->dim(), a.map, a.idx};
}
template <typename T>
GblBinder<T> make_binder(const GblArg<T>& a, bool) {
  return {a.target, a.op, std::nullopt};
}

/// INC arguments get their own type so the kernel parameter is Inc<T>.
template <typename T>
struct IncArg {
  Dat<T>* dat;
  Map* map;
  int idx;
};
template <typename T>
IncBinder<T> make_binder(const IncArg<T>& a, bool executing) {
  return {executing ? a.dat->elem(0) : nullptr, a.dat->dim(), a.map, a.idx};
}

// --- profile accumulation -----------------------------------------------------

struct ArgInfo {
  const void* dat_id = nullptr;
  const Map* map = nullptr;  ///< null for direct args
  Acc acc = Acc::R;
  double unique_bytes = 0.0;
  int dim = 1;
  std::size_t elem_bytes = 8;
  bool is_gbl = false;
  Layout layout = Layout::AoS;  ///< the dat's physical layout
};

template <typename T>
ArgInfo arg_info(const DirectArg<T>& a) {
  return {a.dat, nullptr, a.acc, a.dat->bytes(), a.dat->dim(), sizeof(T),
          false, a.dat->layout()};
}
template <typename T>
ArgInfo arg_info(const IndirectArg<T>& a) {
  return {a.dat, a.map, a.acc,
          static_cast<double>(a.map->to().size()) * a.dat->dim() * sizeof(T),
          a.dat->dim(), sizeof(T), false, a.dat->layout()};
}
template <typename T>
ArgInfo arg_info(const IncArg<T>& a) {
  return {a.dat, a.map, Acc::INC,
          static_cast<double>(a.map->to().size()) * a.dat->dim() * sizeof(T),
          a.dat->dim(), sizeof(T), false, a.dat->layout()};
}
template <typename T>
ArgInfo arg_info(const GblArg<T>& a) {
  ArgInfo i;
  i.dat_id = a.target;
  i.is_gbl = true;
  return i;
}

// --- tuner-driven relayout of the gathered dats ------------------------------

template <typename T>
void relayout_indirect(const DirectArg<T>&, Layout) {}
template <typename T>
void relayout_indirect(const IndirectArg<T>& a, Layout l) {
  a.dat->set_layout(l);
}
template <typename T>
void relayout_indirect(const IncArg<T>& a, Layout l) {
  a.dat->set_layout(l);
}
template <typename T>
void relayout_indirect(const GblArg<T>&, Layout) {}

template <typename T>
[[nodiscard]] bool arg_non_aos(const DirectArg<T>& a) {
  return a.dat->layout() != Layout::AoS;
}
template <typename T>
[[nodiscard]] bool arg_non_aos(const IndirectArg<T>& a) {
  return a.dat->layout() != Layout::AoS;
}
template <typename T>
[[nodiscard]] bool arg_non_aos(const IncArg<T>& a) {
  return a.dat->layout() != Layout::AoS;
}
template <typename T>
[[nodiscard]] bool arg_non_aos(const GblArg<T>&) { return false; }

template <typename T>
void note_gather_layout(const DirectArg<T>&, Layout&) {}
template <typename T>
void note_gather_layout(const IndirectArg<T>& a, Layout& l) {
  l = a.dat->layout();
}
template <typename T>
void note_gather_layout(const IncArg<T>& a, Layout& l) {
  l = a.dat->layout();
}
template <typename T>
void note_gather_layout(const GblArg<T>&, Layout&) {}

}  // namespace detail

template <typename T>
[[nodiscard]] detail::IncArg<T> arg_inc(Dat<T>& d, Map& m, int idx) {
  return {&d, &m, idx};
}

template <typename K, typename... Args>
void par_loop(Context& ctx, Meta meta, Set& set, K&& kernel, Args... args) {
  const std::size_t n = set.size();
  if (n == 0) return;

  // Collect type-erased argument facts for profiling + scheduling.
  std::vector<detail::ArgInfo> infos{detail::arg_info(args)...};
  const detail::ArgInfo* conflict = nullptr;
  for (const auto& i : infos)
    if (i.acc == Acc::INC) {
      if (conflict != nullptr && conflict->map != i.map)
        throw std::invalid_argument(
            "par_loop: INC args must share one conflict map");
      conflict = &i;
    }

  // Non-AoS operands cannot run through the eager binders (they hand
  // the kernel raw AoS pointers), so their loops route to the staged
  // lowering, which transcodes per tile. Conflict loops additionally
  // stage when the context (or SYCLPORT_INDIRECT) asks for it.
  bool non_aos = false;
  for (const auto& i : infos) non_aos |= i.layout != Layout::AoS;
  const Strategy ctx_strat =
      conflict != nullptr && non_aos ? Strategy::Staged : ctx.opt.strategy;
  const bool ctx_staged =
      non_aos || (conflict != nullptr && ctx_strat == Strategy::Staged);

  const Plan* plan =
      conflict != nullptr ? &ctx.plan_for(*conflict->map, ctx_strat)
                          : nullptr;

  if (ctx.opt.record) {
    hw::LoopProfile lp;
    lp.name = meta.name;
    lp.dims = 1;
    lp.extent = {n, 1, 1};
    lp.flops = meta.flops_per_elem * static_cast<double>(n);
    lp.n_arrays = 0;
    bool any_indirect = false;
    double max_line_factor = 1.0;
    std::vector<const void*> seen_dats;
    std::vector<const Map*> seen_maps;
    for (const auto& i : infos) {
      if (i.is_gbl) {
        lp.reduction = hw::ReductionKind::BuiltIn;
        continue;
      }
      if (std::find(seen_dats.begin(), seen_dats.end(), i.dat_id) !=
          seen_dats.end())
        continue;  // same dat through several map columns: count once
      seen_dats.push_back(i.dat_id);
      lp.n_arrays += 1;
      lp.elem_bytes = i.elem_bytes;
      lp.working_set += i.unique_bytes;
      const bool indirect = i.map != nullptr;
      any_indirect |= indirect;
      const bool reads = i.acc == Acc::R || i.acc == Acc::RW || i.acc == Acc::INC;
      const bool writes =
          i.acc == Acc::W || i.acc == Acc::RW || i.acc == Acc::INC;
      if (reads) {
        lp.bytes_read += i.unique_bytes;
        if (indirect) lp.bytes_read_indirect += i.unique_bytes;
      }
      if (writes) {
        lp.bytes_written += i.unique_bytes;
        if (indirect) lp.bytes_written_indirect += i.unique_bytes;
      }
      if (indirect) {
        if (std::find(seen_maps.begin(), seen_maps.end(), i.map) ==
            seen_maps.end()) {
          seen_maps.push_back(i.map);
          lp.map_bytes += i.map->bytes();
          lp.working_set += i.map->bytes();
        }
        const GatherStats& gs =
            ctx.gather_for(*i.map, i.dim, i.elem_bytes, ctx_strat, i.layout);
        max_line_factor = std::max(max_line_factor, gs.line_factor);
        for (std::size_t c = 0; c < gs.factor_at.size(); ++c)
          lp.gather_factor_at[c] =
              std::max(lp.gather_factor_at[c], gs.factor_at[c]);
      }
    }
    lp.gather_line_factor = max_line_factor;
    if (ctx_staged) {
      // Scratch traffic of the staging: every staged operand (gather
      // buffer, INC arena, non-AoS direct buffer) is written once and
      // read back once per element.
      lp.staged = true;
      for (const auto& i : infos) {
        if (i.is_gbl) continue;
        if (i.map != nullptr || i.layout != Layout::AoS)
          lp.staged_bytes += 2.0 * static_cast<double>(n) *
                             static_cast<double>(i.dim) *
                             static_cast<double>(i.elem_bytes);
      }
    }
    if (conflict != nullptr) {
      lp.cls = hw::KernelClass::EdgeFlux;
      // Staged: one gather/compute pass plus one ordered scatter pass,
      // and no atomic increments - the races resolve in scratch.
      lp.launches = ctx_strat == Strategy::Staged ? 2 : plan->launches();
      if (ctx_strat == Strategy::Atomics) {
        std::size_t incs = 0;
        for (const auto& i : infos)
          if (i.acc == Acc::INC)
            incs += n * static_cast<std::size_t>(i.dim);
        lp.atomic_updates = incs;
      }
    } else if (any_indirect) {
      lp.cls = hw::KernelClass::MGTransfer;
    } else {
      lp.cls = lp.reduction != hw::ReductionKind::None
                   ? hw::KernelClass::Reduction
                   : hw::KernelClass::VertexUpdate;
    }
    ctx.profiles.push_back(std::move(lp));
  }
  if (!ctx.executing()) return;

  // Tuning scope for the whole loop (all colour sweeps share it): the
  // autotuner serves schedule x grain for this kernel's site unless
  // tuning is off. The handler-level scope inside Exec::Sycl sweeps
  // defers to this one.
  hw::seed_autotuner_priors();
  rt::autotune::ScopedTune tune_override(ctx.opt.tune);
  rt::autotune::Site site;
  site.name = meta.name;
  site.global = {n, 1, 1};
  // Indirect-increment loops additionally race the race-resolution
  // strategy jointly with the gathered dats' physical layout - unless
  // the user pinned either knob through the environment.
  const bool pinned = strategy_from_env().has_value() ||
                      rt::env::get("SYCLPORT_LAYOUT").has_value();
  site.axes = rt::autotune::kScheduleGrain |
              (conflict != nullptr && !pinned
                   ? rt::autotune::kIndirect | rt::autotune::kLayout
                   : 0u);
  rt::autotune::TunedLaunchParams sched_scope(site);

  // Apply the tuner's joint strategy x layout decision for this launch,
  // then re-derive the lowering: any non-AoS operand (tuner-chosen or
  // app-chosen) forces the staged path.
  Strategy strat = ctx_strat;
  if (sched_scope.phase() != rt::autotune::Phase::None && conflict != nullptr) {
    const auto& cfg = sched_scope.config();
    if (cfg.indirect && *cfg.indirect >= 1 && *cfg.indirect <= 4)
      strat = static_cast<Strategy>(*cfg.indirect);
    if (cfg.layout && *cfg.layout >= 0 && *cfg.layout <= 2)
      (detail::relayout_indirect(args, static_cast<Layout>(*cfg.layout)),
       ...);
  }
  const bool non_aos_now = (detail::arg_non_aos(args) || ...);
  if (conflict != nullptr && non_aos_now) strat = Strategy::Staged;
  // Owner-computes runs an element once per owner range it maps into,
  // so it takes only loops whose elements have no other side effect
  // than their increments; the staged lowering runs the rest.
  const bool owner = conflict != nullptr && (strat == Strategy::Atomics ||
                                             strat == Strategy::None);
  bool owner_ok = true;
  for (const auto& i : infos)
    owner_ok = owner_ok && !i.is_gbl && (i.acc == Acc::R || i.acc == Acc::INC);
  const bool staged = non_aos_now ||
                      (conflict != nullptr && strat == Strategy::Staged) ||
                      (owner && !owner_ok);
  if (conflict != nullptr && !staged && strat != ctx_strat)
    plan = &ctx.plan_for(*conflict->map, strat);

  // Per-loop locality decision record: strategy/layout/ordering plus
  // the measured cold gather line factor next to the model's
  // LLC-capacity prediction (study report / ablation_layout table).
  auto log_decision = [&] {
    if (conflict == nullptr || !sycl::launch_log::instance().enabled())
      return;
    Layout lay = Layout::AoS;
    (detail::note_gather_layout(args, lay), ...);
    const GatherStats& gs = ctx.gather_for(
        *conflict->map, conflict->dim, conflict->elem_bytes, strat, lay);
    sycl::locality_record rec;
    rec.loop = meta.name;
    rec.strategy = std::string(to_string(strat));
    rec.layout = std::string(to_string(lay));
    const bool ren = conflict->map->to().renumbered();
    if (const auto o = ordering_from_env(); o.has_value() && ren)
      rec.ordering = std::string(to_string(*o));
    else
      rec.ordering = ren ? "custom" : "identity";
    rec.measured_gather = gs.line_factor;
    rec.predicted_gather = hw::interp_gather_curve(
        gs.factor_at, hw::nearest_host_platform().llc.bytes * 0.5);
    sycl::launch_log::instance().append_locality(std::move(rec));
  };

  if (staged) {
    auto targs = std::forward_as_tuple(args...);
    detail::staged_loop(
        ctx, meta.name, n,
        conflict != nullptr ? conflict->map->to().size() : std::size_t{0},
        kernel, targs);
    log_decision();
    return;
  }
  log_decision();

  auto binders = std::make_tuple(detail::make_binder(args, true)...);
  auto invoke = [&](std::size_t e, std::size_t blk) {
    std::apply([&](const auto&... b) { kernel(b.make(e, blk)...); }, binders);
  };
  // Every sweep reduces into fresh block partials and folds them into
  // the targets when it completes (core/reducer.hpp).
  constexpr bool has_gbl = (detail::is_gbl_arg<Args>::value || ...);

  // Parallel sweep over an index list (or the identity when null).
  auto sweep = [&](const std::vector<int>* elems, std::size_t count) {
    detail::open_sweeps(binders,
                        BlockPartition::uniform(count, kReduceChunk).count());
    detail::sweep_list<has_gbl>(
        ctx.opt.exec, ctx.queue, meta.name, count,
        [&](std::size_t i, std::size_t blk) {
          invoke(elems != nullptr ? static_cast<std::size_t>((*elems)[i]) : i,
                 blk);
        });
    detail::close_sweeps(binders);
  };

  if (conflict == nullptr) {
    sweep(nullptr, n);
    return;
  }

  if (owner) {
    // A reducing loop is never owner_ok, so it was staged above.
    if constexpr (!has_gbl) {
      const std::size_t ranges =
          ctx.target_ranges(conflict->map->to().size());
      if (ranges == 1) {  // one owner: the plain serial sweep
        for (std::size_t e = 0; e < n; ++e) invoke(e, 0);
        return;
      }
      const Ownership& own = ctx.owners_for(*conflict->map, ranges);
      auto run_range = [&](std::size_t r) {
        auto views = std::apply(
            [&](const auto&... b) {
              return std::make_tuple(detail::owned(
                  b, own.range_begin[r], own.range_begin[r + 1])...);
            },
            binders);
        for (std::size_t i = own.offsets[r]; i < own.offsets[r + 1]; ++i) {
          const auto e = static_cast<std::size_t>(own.elems[i]);
          std::apply([&](auto&... v) { kernel(v.make(e, 0)...); }, views);
        }
      };
      if (ctx.opt.exec == Exec::Sycl)
        ctx.queue.parallel_for(meta.name, ::sycl::range<1>(ranges),
                               [&](::sycl::item<1> it) {
                                 run_range(it.get_linear_id());
                               });
      else
        rt::ThreadPool::global().run_chunks(ranges, run_range);
    }
    return;
  }

  if (strat == Strategy::GlobalColor) {
    for (const auto& elems : plan->elements_by_colour)
      sweep(&elems, elems.size());
    return;
  }

  // Hierarchical: blocks of one colour run in parallel; inside a block,
  // intra-colour phases execute in order. Each plan block is one
  // reduction block (slot = its position in the colour's list).
  const auto run_block_serial = [&](int blk, std::size_t slot) {
    const std::size_t b = static_cast<std::size_t>(blk) * plan->block_size;
    const std::size_t e_end = std::min(n, b + plan->block_size);
    for (int c = 0; c < plan->max_intra_colours; ++c)
      for (std::size_t e = b; e < e_end; ++e)
        if (plan->intra_colour[e] == c) invoke(e, slot);
  };
  for (const auto& blocks : plan->blocks_by_colour) {
    detail::open_sweeps(binders, blocks.size());
    switch (ctx.opt.exec) {
      case Exec::Serial:
        for (std::size_t i = 0; i < blocks.size(); ++i)
          run_block_serial(blocks[i], i);
        break;
      case Exec::Threads:
        rt::ThreadPool::global().parallel_for(
            blocks.size(), [&](std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i)
                run_block_serial(blocks[i], i);
            });
        break;
      case Exec::Sycl: {
        // One work-group per block; barriers separate intra-colours -
        // the GPU hierarchical execution of Figure 1 (right). A group
        // runs on one worker, so its block's slot is never shared.
        const std::size_t wg = std::max<std::size_t>(1, ctx.opt.wg);
        const Plan* pl = plan;
        const std::vector<int>* blks = &blocks;
        const std::size_t total = n;
        ctx.queue.parallel_for(
            meta.name,
            sycl::nd_range<1>(sycl::range<1>(blocks.size() * wg),
                              sycl::range<1>(wg)),
            [&, pl, blks, total](sycl::nd_item<1> it) {
              const std::size_t slot = it.get_group(0);
              const int blk = (*blks)[slot];
              const std::size_t b =
                  static_cast<std::size_t>(blk) * pl->block_size;
              const std::size_t e_end = std::min(total, b + pl->block_size);
              for (int c = 0; c < pl->max_intra_colours; ++c) {
                for (std::size_t e = b + it.get_local_id(0); e < e_end;
                     e += wg)
                  if (pl->intra_colour[e] == c) invoke(e, slot);
                it.barrier();
              }
            });
        break;
      }
    }
    detail::close_sweeps(binders);
  }
}

}  // namespace syclport::op2
