#pragma once
/// \file par_loop.hpp
/// The OPS parallel-loop primitive. A par_loop names a kernel, an
/// iteration range over a block, and a list of dat/reduction arguments
/// with stencils and access modes. From this single high-level
/// description the DSL:
///   1. records a LoopProfile (transfer footprints, radii, flops, halo
///      needs) for the hardware model - in both Execute and ModelOnly
///      modes;
///   2. lowers the kernel to the configured backend (serial, threads,
///      SYCL flat, SYCL nd_range, MPI decompositions) and runs it.
/// This mirrors how the real OPS generates per-parallelization code
/// from one kernel description (paper §3).

#include <algorithm>
#include <array>
#include <tuple>

#include "hwmodel/loop_profile.hpp"
#include "hwmodel/tuning_priors.hpp"
#include "ops/arg.hpp"
#include "ops/block.hpp"
#include "ops/context.hpp"
#include "runtime/autotune/autotune.hpp"
#include "runtime/thread_pool.hpp"

namespace syclport::ops {

/// Static metadata of a kernel.
struct Meta {
  const char* name = "(kernel)";
  hw::KernelClass cls = hw::KernelClass::Interior;
  double flops_per_point = 0.0;
};

/// Iteration range, interior-relative, slowest dimension first; may
/// extend into the halo (negative lo / hi beyond the block size) for
/// boundary-condition loops.
struct Range {
  std::array<long, 3> lo{0, 0, 0};
  std::array<long, 3> hi{1, 1, 1};

  [[nodiscard]] static Range all(const Block& b) {
    Range r;
    for (int d = 0; d < b.dims(); ++d) {
      r.lo[static_cast<std::size_t>(d)] = 0;
      r.hi[static_cast<std::size_t>(d)] = static_cast<long>(b.size(d));
    }
    return r;
  }

  /// The full interior shrunk by `n` points on every side.
  [[nodiscard]] static Range inner(const Block& b, long n) {
    Range r = all(b);
    for (int d = 0; d < b.dims(); ++d) {
      r.lo[static_cast<std::size_t>(d)] += n;
      r.hi[static_cast<std::size_t>(d)] -= n;
    }
    return r;
  }
};

namespace detail {

template <typename T>
struct DatBinder {
  T* origin;
  std::ptrdiff_t s_slow, s_mid, s_fast;
  int dims;

  [[nodiscard]] ACC<T> make(long i0, long i1, long i2) const {
    T* p = origin;
    if (dims == 1) {
      p += i0 * s_fast;
      return ACC<T>(p, s_fast, 0, 0);
    }
    if (dims == 2) {
      p += i0 * s_mid + i1 * s_fast;
      return ACC<T>(p, s_fast, s_mid, 0);
    }
    p += i0 * s_slow + i1 * s_mid + i2 * s_fast;
    return ACC<T>(p, s_fast, s_mid, s_slow);
  }
};

/// Reduction blocks of one loop over `r` (core/reducer.hpp): one
/// fast-dimension row per block for 2-D and 3-D loops, kReduceChunk
/// chunks aligned to absolute coordinates for 1-D loops. Rows and
/// chunks are fixed by the range alone, so a tiled sub-range of the
/// loop (LoopChain) sees the same blocks in the same order.
struct RedBlocks {
  int dims = 1;
  long lo0 = 0, lo1 = 0;
  long ext1 = 1;
  BlockPartition part;

  RedBlocks(int d, const Range& r, const std::array<std::size_t, 3>& ext,
            std::size_t total)
      : dims(d), lo0(r.lo[0]), lo1(r.lo[1]),
        ext1(static_cast<long>(ext[1])),
        part(d == 1 ? BlockPartition::aligned(r.lo[0], total)
                    : BlockPartition::uniform(
                          total, ext[static_cast<std::size_t>(d - 1)])) {}

  [[nodiscard]] std::size_t block_of(long i0, long i1) const {
    if (dims == 1)
      return static_cast<std::size_t>((i0 >> kReduceChunkShift) -
                                      (lo0 >> kReduceChunkShift));
    if (dims == 2) return static_cast<std::size_t>(i0 - lo0);
    return static_cast<std::size_t>((i0 - lo0) * ext1 + (i1 - lo1));
  }
};

template <typename T>
struct RedBinder {
  T* target;
  RedOp op;
  const RedBlocks* blocks;
  BlockPartials<T> partials;

  [[nodiscard]] Reducer<T> make(long i0, long i1, long) const {
    return Reducer<T>(partials.slot(blocks->block_of(i0, i1)), op);
  }
  void finish() const { partials.fold_into(*target); }
};

template <typename T>
DatBinder<T> make_binder(const DatArg<T>& a, const RedBlocks&) {
  const int dims = a.dat->block().dims();
  return DatBinder<T>{a.dat->origin(), a.dat->stride_slow(),
                      a.dat->stride_mid(), a.dat->stride_fast(), dims};
}

template <typename T>
RedBinder<T> make_binder(const RedArg<T>& a, const RedBlocks& rb) {
  return RedBinder<T>{a.target, a.op, &rb,
                      BlockPartials<T>(a.op, rb.part.count())};
}

/// Per-run views of the arguments in the host row sweep. A dat's view
/// is its accessor, stepped by the fast stride per point. A reduction's
/// view accumulates into a local copy of its block's slot - a run never
/// leaves one block - so the running value can live in a register; the
/// slot is written back once, after the run.
template <typename T>
struct DatRun {
  ACC<T> acc;
  [[nodiscard]] const ACC<T>& get() const { return acc; }
  void advance() { acc.advance(); }
  void finish() const {}
};

template <typename T>
struct RedRun {
  T* slot;
  T value;
  RedOp op;
  [[nodiscard]] Reducer<T> get() { return Reducer<T>(&value, op); }
  void advance() const {}
  void finish() const { *slot = value; }
};

template <typename T>
DatRun<T> run_view(const DatBinder<T>& b, long i0, long i1, long i2) {
  return {b.make(i0, i1, i2)};
}

template <typename T>
RedRun<T> run_view(const RedBinder<T>& b, long i0, long i1, long) {
  T* slot = b.partials.slot(b.blocks->block_of(i0, i1));
  return {slot, *slot, b.op};
}

/// Run the kernel at `n` consecutive points along the fastest dimension.
template <typename K, typename... V>
void sweep_run(K& kernel, std::size_t n, V... v) {
  for (std::size_t k = 0; k < n; ++k) {
    kernel(v.get()...);
    (v.advance(), ...);
  }
  (v.finish(), ...);
}

template <typename B>
void finish_binder(const B&) {}
template <typename T>
void finish_binder(const RedBinder<T>& b) {
  b.finish();
}

/// Does the argument pack contain a reduction? Reduction loops run whole
/// reduction blocks per chunk or work-item.
template <typename A>
struct is_red_arg : std::false_type {};
template <typename T>
struct is_red_arg<RedArg<T>> : std::true_type {};

/// An in-place stencil (Acc::RW read at a nonzero radius, e.g. a halo
/// mirror whose outer layer copies the layer the same loop writes)
/// reads points its own loop writes: the result is defined only by the
/// ascending visit order, so such a loop always runs the Serial sweep.
template <typename T>
bool in_place_stencil(const DatArg<T>& a) {
  return a.acc == Acc::RW && a.st.max_radius() > 0;
}
template <typename T>
bool in_place_stencil(const RedArg<T>&) {
  return false;
}

// --- profile accumulation ---------------------------------------------------

template <typename T>
void accumulate(hw::LoopProfile& lp, const std::array<std::size_t, 3>& ext,
                int dims, const DatArg<T>& a) {
  // Map stencil radii (x fastest) onto the slow..fast extent layout.
  std::array<int, 3> rad{0, 0, 0};
  rad[static_cast<std::size_t>(dims - 1)] = a.st.radius_x;
  if (dims >= 2) rad[static_cast<std::size_t>(dims - 2)] = a.st.radius_y;
  if (dims >= 3) rad[0] = a.st.radius_z;

  double pts = 1.0;
  for (int d = 0; d < dims; ++d)
    pts *= static_cast<double>(ext[static_cast<std::size_t>(d)]) +
           2.0 * rad[static_cast<std::size_t>(d)];
  const double footprint = pts * a.dat->ncomp() * sizeof(T);

  const double point_bytes = static_cast<double>(a.dat->ncomp()) * sizeof(T);
  if (a.acc == Acc::R || a.acc == Acc::RW) {
    lp.bytes_read += footprint;
    // Register/L1 traffic: every stencil tap is a separate load.
    const int touches = 1 + 2 * (a.st.radius_x + a.st.radius_y + a.st.radius_z);
    double rpts = 1.0;
    for (int d = 0; d < dims; ++d)
      rpts *= static_cast<double>(ext[static_cast<std::size_t>(d)]);
    lp.cache_access_bytes += rpts * touches * point_bytes;
    lp.radius_fast = std::max(lp.radius_fast,
                              rad[static_cast<std::size_t>(dims - 1)]);
    if (dims >= 2)
      lp.radius_mid = std::max(lp.radius_mid,
                               rad[static_cast<std::size_t>(dims - 2)]);
    if (dims >= 3) lp.radius_slow = std::max(lp.radius_slow, rad[0]);
    if (a.st.max_radius() > 0) {
      lp.bytes_read_stencil += footprint;
      lp.stencil_point_bytes += point_bytes;
      lp.halo_depth = std::max(lp.halo_depth, a.st.max_radius());
      lp.halo_point_bytes += point_bytes;
    }
  }
  if (a.acc == Acc::W || a.acc == Acc::RW) {
    lp.bytes_written += footprint;
    double wpts = 1.0;
    for (int d = 0; d < dims; ++d)
      wpts *= static_cast<double>(ext[static_cast<std::size_t>(d)]);
    lp.cache_access_bytes += wpts * point_bytes;
  }
  lp.working_set += footprint;
  lp.n_arrays += 1;
  lp.elem_bytes = sizeof(T);

  // Dat identity for the dependence-level analyses (fusion headroom,
  // chain partitioning): interior footprint only, no halo inflation.
  hw::DatAccess da;
  da.id = a.dat;
  da.name = a.dat->name();
  double ipts = 1.0;
  for (int d = 0; d < dims; ++d)
    ipts *= static_cast<double>(ext[static_cast<std::size_t>(d)]);
  da.bytes = ipts * point_bytes;
  da.read = a.acc == Acc::R || a.acc == Acc::RW;
  da.write = a.acc == Acc::W || a.acc == Acc::RW;
  da.radius_slow = rad[0];
  da.radius_max = a.st.max_radius();
  lp.accesses.push_back(std::move(da));
}

template <typename T>
void accumulate(hw::LoopProfile& lp, const std::array<std::size_t, 3>&, int,
                const RedArg<T>&) {
  lp.reduction = hw::ReductionKind::BuiltIn;
  if (lp.cls == hw::KernelClass::Interior) lp.cls = hw::KernelClass::Reduction;
}

}  // namespace detail

template <typename K, typename... Args>
void par_loop(Context& ctx, Meta meta, Block& block, Range r, K&& kernel,
              Args... args) {
  const int dims = block.dims();
  std::array<std::size_t, 3> ext{1, 1, 1};
  std::size_t total = 1;
  for (int d = 0; d < dims; ++d) {
    const long e = r.hi[static_cast<std::size_t>(d)] -
                   r.lo[static_cast<std::size_t>(d)];
    if (e <= 0) return;  // empty range: nothing to run or record
    ext[static_cast<std::size_t>(d)] = static_cast<std::size_t>(e);
    total *= static_cast<std::size_t>(e);
  }

  if (ctx.opt.record) {
    hw::LoopProfile lp;
    lp.name = meta.name;
    lp.cls = meta.cls;
    lp.dims = dims;
    lp.extent = ext;
    lp.flops = meta.flops_per_point * static_cast<double>(total);
    lp.n_arrays = 0;  // counted by the accumulate fold below
    (detail::accumulate(lp, ext, dims, args), ...);
    const bool mpi_backend = ctx.opt.backend == Backend::MPI ||
                             ctx.opt.backend == Backend::MPIThreads;
    if (!mpi_backend) {
      lp.halo_depth = 0;
      lp.halo_point_bytes = 0.0;
    }
    ctx.profiles.push_back(std::move(lp));
  }
  if (!ctx.executing()) return;

  // Apply this loop's launch parameters for its duration. Explicit
  // Options::schedule/grain always win; otherwise, when tuning is on
  // (SYCLPORT_TUNE or Options::tune), the autotuner serves the
  // schedule x grain - and for SyclNd also the work-group shape - for
  // this kernel's site, measuring the loop's wall time as feedback.
  // Both the Threads backend (direct pool launches) and the SYCL
  // backends (handler-issued launches) read the params at submit time;
  // the handler's own per-launch tuning scope defers to this one.
  hw::seed_autotuner_priors();
  rt::autotune::ScopedTune tune_override(ctx.opt.tune);
  rt::autotune::Site site;
  site.name = meta.name;
  site.dims = dims;
  site.global = ext;
  site.nd = ctx.opt.backend == Backend::SyclNd;
  site.axes = rt::autotune::kScheduleGrain |
              (site.nd ? rt::autotune::kWorkGroup : 0u);
  site.max_wg = ctx.queue.get_device().max_work_group_size();
  rt::autotune::TunedLaunchParams sched_scope(site, ctx.opt.schedule,
                                              ctx.opt.grain);

  constexpr bool has_red = (detail::is_red_arg<Args>::value || ...);
  const detail::RedBlocks blocks(dims, r, ext, total);
  auto binders = std::make_tuple(detail::make_binder(args, blocks)...);
  auto invoke = [&](long i0, long i1, long i2) {
    std::apply(
        [&](const auto&... b) { kernel(b.make(i0, i1, i2)...); }, binders);
  };
  // Iteration coordinates are offset by r.lo; delinearize over ext.
  auto invoke_linear = [&](std::size_t lin) {
    long i2 = 0, i1 = 0, i0 = 0;
    if (dims == 1) {
      i0 = static_cast<long>(lin);
    } else if (dims == 2) {
      i1 = static_cast<long>(lin % ext[1]);
      i0 = static_cast<long>(lin / ext[1]);
    } else {
      i2 = static_cast<long>(lin % ext[2]);
      const std::size_t rest = lin / ext[2];
      i1 = static_cast<long>(rest % ext[1]);
      i0 = static_cast<long>(rest / ext[1]);
    }
    invoke(r.lo[0] + i0, r.lo[1] + i1, r.lo[2] + i2);
  };
  // Work-item body of the SYCL lowerings. A reduction loop runs whole
  // blocks - the item at a block's first element sweeps the block in
  // ascending order - so no slot is shared between threads and the
  // result does not depend on how items are spread over the pool.
  auto item_body = [&](std::size_t lin) {
    if constexpr (has_red) {
      if (!blocks.part.is_start(lin)) return;
      const std::size_t k = blocks.part.first_at_or_after(lin);
      for (std::size_t i = lin, e = blocks.part.end(k); i < e; ++i)
        invoke_linear(i);
    } else {
      invoke_linear(lin);
    }
  };

  // Host lowering: units of a 2-D/3-D loop are its fast-dimension rows
  // (exactly its reduction blocks), units of a 1-D loop its points. A
  // chunk [b, e) of units runs in ascending order, each row as one run
  // of stepped accessors; a 1-D reduction runs the blocks that start in
  // the chunk. The Serial sweep is the single chunk [0, units).
  auto run = [&](long i0, long i1, long i2, std::size_t n) {
    std::apply(
        [&](const auto&... b) {
          detail::sweep_run(kernel, n, detail::run_view(b, i0, i1, i2)...);
        },
        binders);
  };
  const std::size_t row_len =
      dims == 1 ? 1 : ext[static_cast<std::size_t>(dims - 1)];
  const std::size_t units = total / row_len;
  auto host_sweep = [&](std::size_t b, std::size_t e) {
    if (dims == 1) {
      if constexpr (has_red) {
        blocks.part.for_each_starting_in(
            b, e, [&](std::size_t, std::size_t kb, std::size_t ke) {
              run(r.lo[0] + static_cast<long>(kb), 0, 0, ke - kb);
            });
      } else {
        run(r.lo[0] + static_cast<long>(b), 0, 0, e - b);
      }
    } else if (dims == 2) {
      for (std::size_t row = b; row < e; ++row)
        run(r.lo[0] + static_cast<long>(row), r.lo[1], 0, row_len);
    } else {
      for (std::size_t row = b; row < e; ++row)
        run(r.lo[0] + static_cast<long>(row / ext[1]),
            r.lo[1] + static_cast<long>(row % ext[1]), r.lo[2], row_len);
    }
  };

  const bool in_place = (detail::in_place_stencil(args) || ...);
  switch (in_place ? Backend::Serial : ctx.opt.backend) {
    case Backend::Serial:
      host_sweep(0, units);
      break;
    case Backend::Threads:
    case Backend::MPI:
    case Backend::MPIThreads:
      // MPI backends are semantically identical sweeps on shared memory;
      // their decomposition cost is carried by the recorded halo profile.
      // The grain counts points, so a chunk holds ceil(grain / row_len)
      // rows.
      rt::ThreadPool::global().parallel_for(units, row_len, host_sweep);
      break;
    case Backend::SyclFlat: {
      if (dims == 1) {
        ctx.queue.parallel_for(meta.name, sycl::range<1>(ext[0]),
                               [&](sycl::item<1> it) {
                                 item_body(it.get_linear_id());
                               });
      } else if (dims == 2) {
        ctx.queue.parallel_for(meta.name, sycl::range<2>(ext[0], ext[1]),
                               [&](sycl::item<2> it) {
                                 item_body(it.get_linear_id());
                               });
      } else {
        ctx.queue.parallel_for(meta.name,
                               sycl::range<3>(ext[0], ext[1], ext[2]),
                               [&](sycl::item<3> it) {
                                 item_body(it.get_linear_id());
                               });
      }
      break;
    }
    case Backend::SyclNd: {
      // Pad the global range to a multiple of the tuned local shape and
      // mask the overhang inside the kernel, as generated OPS SYCL does.
      // nd_local is stored slow..fast for 3D; align it with this loop's
      // dimensionality (a 2D loop uses the (mid, fast) entries, a 1D
      // loop the fast entry only). When the autotuner serves this loop
      // its decided shape replaces the hand-tuned Options::nd_local.
      const std::array<std::size_t, 3>& shape =
          sched_scope.phase() != rt::autotune::Phase::None &&
                  sched_scope.config().local
              ? *sched_scope.config().local
              : ctx.opt.nd_local;
      std::array<std::size_t, 3> local{1, 1, 1};
      for (int d = 0; d < dims; ++d)
        local[static_cast<std::size_t>(d)] = std::max<std::size_t>(
            1, shape[static_cast<std::size_t>(3 - dims + d)]);
      auto padded = ext;
      for (int d = 0; d < dims; ++d) {
        const auto l = local[static_cast<std::size_t>(d)];
        auto& p = padded[static_cast<std::size_t>(d)];
        p = (p + l - 1) / l * l;
      }
      auto body = [&](auto it) {
        std::size_t lin = 0;
        bool inside = true;
        if constexpr (std::is_same_v<decltype(it), sycl::nd_item<1>>) {
          const auto g0 = it.get_global_id(0);
          inside = g0 < ext[0];
          lin = g0;
        } else if constexpr (std::is_same_v<decltype(it), sycl::nd_item<2>>) {
          const auto g0 = it.get_global_id(0), g1 = it.get_global_id(1);
          inside = g0 < ext[0] && g1 < ext[1];
          lin = g0 * ext[1] + g1;
        } else {
          const auto g0 = it.get_global_id(0), g1 = it.get_global_id(1),
                     g2 = it.get_global_id(2);
          inside = g0 < ext[0] && g1 < ext[1] && g2 < ext[2];
          lin = (g0 * ext[1] + g1) * ext[2] + g2;
        }
        if (inside) item_body(lin);
      };
      if (dims == 1) {
        ctx.queue.parallel_for(
            meta.name,
            sycl::nd_range<1>(sycl::range<1>(padded[0]),
                              sycl::range<1>(local[0])),
            [&](sycl::nd_item<1> it) { body(it); });
      } else if (dims == 2) {
        ctx.queue.parallel_for(
            meta.name,
            sycl::nd_range<2>(sycl::range<2>(padded[0], padded[1]),
                              sycl::range<2>(local[0], local[1])),
            [&](sycl::nd_item<2> it) { body(it); });
      } else {
        ctx.queue.parallel_for(
            meta.name,
            sycl::nd_range<3>(sycl::range<3>(padded[0], padded[1], padded[2]),
                              sycl::range<3>(local[0], local[1], local[2])),
            [&](sycl::nd_item<3> it) { body(it); });
      }
      break;
    }
  }
  // Fold every reduction's block partials into its target, in block order.
  std::apply([](const auto&... b) { (detail::finish_binder(b), ...); },
             binders);
}

}  // namespace syclport::ops
