#pragma once
/// \file dist.hpp
/// A genuinely distributed OPS backend over mini-MPI: every rank owns a
/// block of the grid with ghost layers, par_loops execute rank-locally,
/// reads through nonzero stencils trigger face halo exchanges first,
/// and global reductions combine across ranks - the owner-compute
/// execution model of OPS-MPI (paper §3), running on real messages
/// rather than the shared-memory shortcut the modeling backends use.
///
/// Scope: interior sweeps and global reductions over fields whose halo
/// depth covers the stencils used (the structure all of this study's
/// interior kernels share). Kernels receive the same ACC accessors as
/// the shared-memory backends, so kernel code is reused verbatim.

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/reducer.hpp"
#include "minimpi/cart.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/halo.hpp"
#include "ops/arg.hpp"

namespace syclport::ops::dist {

/// Per-rank execution context.
class DistContext {
 public:
  DistContext(mpi::Comm& comm, int dims)
      : comm_(&comm), cart_(comm.rank(), comm.size(), dims), dims_(dims) {}

  [[nodiscard]] mpi::Comm& comm() const { return *comm_; }
  [[nodiscard]] const mpi::CartDecomp& cart() const { return cart_; }
  [[nodiscard]] int dims() const { return dims_; }

 private:
  mpi::Comm* comm_;
  mpi::CartDecomp cart_;
  int dims_;
};

/// A distributed field: the rank-local block of a global grid, with
/// ghost layers deep enough for the stencils applied to it.
template <typename T>
class DistDat {
 public:
  DistDat(DistContext& ctx, std::array<std::size_t, 3> global, int halo)
      : ctx_(&ctx), global_(global), halo_(halo) {
    field_.dims = ctx.dims();
    field_.halo = halo;
    for (int d = 0; d < ctx.dims(); ++d) {
      auto [b, e] = ctx.cart().owned(d, global[static_cast<std::size_t>(d)]);
      begin_[static_cast<std::size_t>(d)] = b;
      field_.local[static_cast<std::size_t>(d)] = e - b;
    }
    field_.allocate();
  }

  /// Fill the owned interior from a function of *global* coordinates.
  void init(const std::function<T(std::size_t, std::size_t, std::size_t)>& f) {
    for_owned([&](std::size_t gi, std::size_t gj, std::size_t gk,
                  std::ptrdiff_t li, std::ptrdiff_t lj, std::ptrdiff_t lk) {
      field_.at(li, lj, lk) = f(gi, gj, gk);
    });
  }

  /// Iterate owned points with both global and local coordinates.
  template <typename Fn>
  void for_owned(Fn&& fn) {
    const auto n0 = field_.local[0];
    const auto n1 = ctx_->dims() >= 2 ? field_.local[1] : 1;
    const auto n2 = ctx_->dims() >= 3 ? field_.local[2] : 1;
    for (std::size_t i = 0; i < n0; ++i)
      for (std::size_t j = 0; j < n1; ++j)
        for (std::size_t k = 0; k < n2; ++k)
          fn(begin_[0] + i, begin_[1] + j, begin_[2] + k,
             static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(j),
             static_cast<std::ptrdiff_t>(k));
  }

  /// Exchange ghost layers with the Cartesian neighbours (collective).
  void exchange_halos() {
    mpi::exchange_halos(ctx_->comm(), ctx_->cart(), field_);
  }

  [[nodiscard]] mpi::LocalField<T>& field() { return field_; }
  [[nodiscard]] DistContext& ctx() const { return *ctx_; }
  [[nodiscard]] int halo() const { return halo_; }
  [[nodiscard]] const std::array<std::size_t, 3>& global() const {
    return global_;
  }
  [[nodiscard]] const std::array<std::size_t, 3>& begin() const {
    return begin_;
  }

  /// Sum of the owned interior across all ranks (collective).
  [[nodiscard]] double global_sum() {
    double local = 0.0;
    for_owned([&](std::size_t, std::size_t, std::size_t, std::ptrdiff_t li,
                  std::ptrdiff_t lj, std::ptrdiff_t lk) {
      local += static_cast<double>(field_.at(li, lj, lk));
    });
    return ctx_->comm().allreduce(local, mpi::Op::Sum);
  }

 private:
  DistContext* ctx_;
  std::array<std::size_t, 3> global_;
  std::array<std::size_t, 3> begin_{0, 0, 0};
  int halo_;
  mpi::LocalField<T> field_;
};

template <typename T>
struct DistArg {
  DistDat<T>* dat;
  Stencil st;
  Acc acc;
};

template <typename T>
[[nodiscard]] DistArg<T> arg(DistDat<T>& d, Stencil st, Acc a) {
  if (st.max_radius() > d.halo())
    throw std::invalid_argument("dist::arg: stencil exceeds halo depth");
  return {&d, st, a};
}

template <typename T>
struct DistRedArg {
  T* target;
  RedOp op;
};

template <typename T>
[[nodiscard]] DistRedArg<T> reduce(T& target, RedOp op) {
  return {&target, op};
}

namespace detail {

using Fn3 =
    std::function<void(std::ptrdiff_t, std::ptrdiff_t, std::ptrdiff_t)>;

/// Type-erased hook so par_loop can find the iteration space (the first
/// dat argument) without caring about T.
struct IterSpace {
  std::function<void(const Fn3&)> iterate;
  int dims = 0;
  std::array<std::size_t, 3> local{1, 1, 1};
};

template <typename T>
struct DatBinder {
  DistDat<T>* dat;
  bool needs_halo;

  void prepare() const {
    if (needs_halo) dat->exchange_halos();
  }

  [[nodiscard]] ACC<T> make(std::ptrdiff_t li, std::ptrdiff_t lj,
                            std::ptrdiff_t lk) const {
    auto& f = dat->field();
    if (f.dims == 1) return ACC<T>(&f.at(li), 1, 0, 0);
    if (f.dims == 2) {
      const auto s_mid = static_cast<std::ptrdiff_t>(f.padded(1));
      return ACC<T>(&f.at(li, lj), 1, s_mid, 0);
    }
    const auto s_mid = static_cast<std::ptrdiff_t>(f.padded(2));
    const auto s_slow = s_mid * static_cast<std::ptrdiff_t>(f.padded(1));
    return ACC<T>(&f.at(li, lj, lk), 1, s_mid, s_slow);
  }
  void finish(DistContext&) const {}
  void bind(const IterSpace&) const {}
  void offer_iter(IterSpace& is) const {
    if (is.iterate) return;
    DistDat<T>* d = dat;
    is.iterate = [d](const auto& fn) {
      d->for_owned([&](std::size_t, std::size_t, std::size_t,
                       std::ptrdiff_t li, std::ptrdiff_t lj,
                       std::ptrdiff_t lk) { fn(li, lj, lk); });
    };
    is.dims = d->field().dims;
    is.local = d->field().local;
  }
};

/// Rank-local reducer on the core/reducer.hpp primitive: one block per
/// local fast-dimension row (kReduceChunk chunks for 1-D fields), folded
/// in block order before the cross-rank combine.
template <typename T>
struct RedBinder {
  T* target;
  RedOp op;
  int dims = 1;
  std::size_t mid = 1;  ///< local extent of dimension 1 (3-D row index)
  std::shared_ptr<BlockPartials<T>> partials;

  RedBinder(T* t, RedOp o) : target(t), op(o) {}
  void bind(const IterSpace& is) {
    dims = is.dims;
    mid = is.local[1];
    const std::size_t blocks =
        dims == 1 ? (is.local[0] + kReduceChunk - 1) / kReduceChunk
        : dims == 2 ? is.local[0]
                    : is.local[0] * is.local[1];
    partials = std::make_shared<BlockPartials<T>>(op, blocks);
  }
  void prepare() const {}
  [[nodiscard]] Reducer<T> make(std::ptrdiff_t li, std::ptrdiff_t lj,
                                std::ptrdiff_t) const {
    const auto i = static_cast<std::size_t>(li);
    const std::size_t k = dims == 1   ? i >> kReduceChunkShift
                          : dims == 2 ? i
                                      : i * mid + static_cast<std::size_t>(lj);
    return Reducer<T>(partials->slot(k), op);
  }
  void finish(DistContext& ctx) const {
    const RedFn<T> fn{op};
    T local = fn.identity();
    partials->fold_into(local);
    const T global = ctx.comm().allreduce(
        local, op == RedOp::Sum   ? mpi::Op::Sum
               : op == RedOp::Min ? mpi::Op::Min
                                  : mpi::Op::Max);
    *target = fn(*target, global);
  }
  void offer_iter(IterSpace&) const {}
};

template <typename T>
DatBinder<T> make_binder(const DistArg<T>& a) {
  const bool reads_stencil =
      (a.acc == Acc::R || a.acc == Acc::RW) && a.st.max_radius() > 0;
  return {a.dat, reads_stencil};
}

template <typename T>
RedBinder<T> make_binder(const DistRedArg<T>& a) {
  return RedBinder<T>(a.target, a.op);
}

}  // namespace detail

/// Distributed par_loop over the full interior of the global grid.
/// Collective: every rank must call it with the same arguments.
template <typename K, typename... Args>
void par_loop(DistContext& ctx, K&& kernel, Args... args) {
  auto binders = std::make_tuple(detail::make_binder(args)...);

  detail::IterSpace is;
  std::apply([&](const auto&... b) { (b.offer_iter(is), ...); }, binders);
  if (!is.iterate)
    throw std::invalid_argument("dist::par_loop: needs at least one dat arg");
  std::apply([&](auto&... b) { (b.bind(is), ...); }, binders);

  std::apply([](const auto&... b) { (b.prepare(), ...); }, binders);
  is.iterate([&](std::ptrdiff_t li, std::ptrdiff_t lj, std::ptrdiff_t lk) {
    std::apply([&](const auto&... b) { kernel(b.make(li, lj, lk)...); },
               binders);
  });
  std::apply([&](const auto&... b) { (b.finish(ctx), ...); }, binders);
}

}  // namespace syclport::ops::dist
