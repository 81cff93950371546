#pragma once
/// \file halo.hpp
/// Face halo exchange for rank-local structured fields with ghost
/// layers, over the mini-MPI communicator. Pack, sendrecv, unpack -
/// the OPS MPI backend's exchange structure (paper §3). Header-only
/// template so any element type works.

#include <span>
#include <vector>

#include "minimpi/cart.hpp"
#include "minimpi/comm.hpp"

namespace syclport::mpi {

/// A rank-local field of `dims` dimensions with interior extents
/// `local[0..dims-1]` (slowest first, fastest last) and `halo` ghost
/// layers on every side. Storage row-major including ghosts.
template <typename T>
struct LocalField {
  int dims = 2;
  std::array<std::size_t, 3> local{1, 1, 1};
  int halo = 1;
  std::vector<T> data;

  [[nodiscard]] std::size_t padded(int d) const {
    return local[static_cast<std::size_t>(d)] + 2 * static_cast<std::size_t>(halo);
  }
  [[nodiscard]] std::size_t volume() const {
    std::size_t v = 1;
    for (int d = 0; d < dims; ++d) v *= padded(d);
    return v;
  }
  void allocate() { data.assign(volume(), T{}); }

  /// Index with coordinates relative to the interior origin: -halo ..
  /// local[d]+halo-1 are valid.
  [[nodiscard]] T& at(std::ptrdiff_t i, std::ptrdiff_t j = 0,
                      std::ptrdiff_t k = 0) {
    std::array<std::ptrdiff_t, 3> c{i, j, k};
    std::size_t lin = 0;
    for (int d = 0; d < dims; ++d)
      lin = lin * padded(d) +
            static_cast<std::size_t>(c[static_cast<std::size_t>(d)] + halo);
    return data[lin];
  }
};

namespace detail {
/// Iterate a face slab of thickness `halo` at `side` (0: low, 1: high)
/// of dimension `dim`, interior-adjacent (`ghost` false) or the ghost
/// region itself (`ghost` true); call fn(i,j,k) for every point.
template <typename T, typename Fn>
void for_face(const LocalField<T>& f, int dim, int side, bool ghost, Fn&& fn) {
  std::array<std::ptrdiff_t, 3> lo{0, 0, 0}, hi{1, 1, 1};
  for (int d = 0; d < f.dims; ++d) {
    lo[static_cast<std::size_t>(d)] = 0;
    hi[static_cast<std::size_t>(d)] =
        static_cast<std::ptrdiff_t>(f.local[static_cast<std::size_t>(d)]);
  }
  const auto ext = static_cast<std::ptrdiff_t>(f.local[static_cast<std::size_t>(dim)]);
  if (side == 0) {
    lo[static_cast<std::size_t>(dim)] = ghost ? -f.halo : 0;
    hi[static_cast<std::size_t>(dim)] = ghost ? 0 : f.halo;
  } else {
    lo[static_cast<std::size_t>(dim)] = ghost ? ext : ext - f.halo;
    hi[static_cast<std::size_t>(dim)] = ghost ? ext + f.halo : ext;
  }
  for (std::ptrdiff_t i = lo[0]; i < hi[0]; ++i)
    for (std::ptrdiff_t j = lo[1]; j < hi[1]; ++j)
      for (std::ptrdiff_t k = lo[2]; k < hi[2]; ++k) fn(i, j, k);
}
}  // namespace detail

/// A halo exchange in two phases. Construction eagerly packs every
/// interior-adjacent face and posts the (buffered) sends; finish()
/// blocks on the receives and unpacks the ghost slabs. Between the two
/// the caller may freely *read* every interior cell and *write* cells
/// at distance >= halo from the block faces - the packed strips were
/// copied out at construction and the receives only write ghost cells,
/// which are disjoint from the interior. exchange_halos() below runs
/// the two phases back to back.
///
/// Tags encode (dim, direction) so concurrent exchanges of different
/// fields must still not interleave per peer; one in-flight exchange
/// per (comm, field) at a time, as before.
template <typename T>
class HaloExchange {
 public:
  HaloExchange(Comm& comm, const CartDecomp& cart, LocalField<T>& f)
      : comm_(&comm), field_(&f) {
    for (int dim = 0; dim < f.dims; ++dim) {
      for (int side = 0; side < 2; ++side) {
        const int nb = cart.neighbour(dim, side == 0 ? -1 : +1);
        if (nb < 0) continue;
        std::vector<T> out;
        detail::for_face(f, dim, side, /*ghost=*/false,
                         [&](auto i, auto j, auto k) {
                           out.push_back(f.at(i, j, k));
                         });
        const std::size_t count = out.size();
        comm.send(nb, 100 + dim * 4 + side, std::span<const T>(out));
        pending_.push_back({dim, side, nb, count});
      }
    }
  }

  HaloExchange(const HaloExchange&) = delete;
  HaloExchange& operator=(const HaloExchange&) = delete;
  /// Draining from the destructor must not throw: under fault injection
  /// finish() can raise comm_error, which callers observe by calling
  /// finish() explicitly. An exchange abandoned to its destructor after
  /// such a failure is dropped (ghost cells keep their prior values).
  ~HaloExchange() {
    try {
      finish();
    } catch (...) {
      pending_.clear();
    }
  }

  /// Receive and unpack every pending face (idempotent).
  void finish() {
    for (const auto& p : pending_) {
      std::vector<T> in(p.count);
      comm_->recv(p.nb, 100 + p.dim * 4 + (1 - p.side), std::span<T>(in));
      std::size_t idx = 0;
      detail::for_face(*field_, p.dim, p.side, /*ghost=*/true,
                       [&](auto i, auto j, auto k) {
                         field_->at(i, j, k) = in[idx++];
                       });
    }
    pending_.clear();
  }

 private:
  struct Pending {
    int dim, side, nb;
    std::size_t count;
  };
  Comm* comm_;
  LocalField<T>* field_;
  std::vector<Pending> pending_;
};

/// Exchange all face halos of `f` with the Cartesian neighbours
/// (blocking form: begin and finish back to back).
template <typename T>
void exchange_halos(Comm& comm, const CartDecomp& cart, LocalField<T>& f) {
  HaloExchange<T>(comm, cart, f).finish();
}

}  // namespace syclport::mpi
