#pragma once
/// \file tree_reduction.hpp
/// User-defined binary-tree reduction in SYCL local memory. The paper
/// (§4.2) notes OPS had to fall back to this formulation on CPU SYCL
/// targets because SYCL 2020 built-in reductions were unsupported
/// (OpenSYCL) or failed to compile (DPC++); it costs 6-7x more than
/// OpenMP reductions there - a cost the hardware model charges
/// (hw::ReductionKind), not this host. This is that pattern: stage into
/// local memory, log2(wg) barrier rounds, one partial per group. Each
/// group writes its partial to its own slot and the slots are folded in
/// group order after the launch (core/reducer.hpp), so the result does
/// not depend on which worker finished first.

#include <cstddef>

#include "core/reducer.hpp"
#include "sycl/sycl.hpp"

namespace syclport::ops {

/// Reduce data[0..n) with `op` (associative, commutative), combining
/// into *result (which must be pre-initialized, typically with the
/// identity). `wg` is the work-group size and must be a power of two.
/// The queue shortcut runs the launch inline, so the fold follows it.
template <typename T, typename Op>
void tree_reduce(sycl::queue& q, const T* data, std::size_t n, T identity,
                 Op op, T* result, std::size_t wg = 64) {
  if (n == 0) return;
  const std::size_t padded = (n + wg - 1) / wg * wg;
  const BlockPartials<T, Op> groups(op, identity, padded / wg);
  T* const slots = groups.slot(0);
  sycl::local_accessor<T, 1> scratch{sycl::range<1>(wg)};
  q.parallel_for(
      "tree_reduce", sycl::nd_range<1>(sycl::range<1>(padded), sycl::range<1>(wg)),
      [=](sycl::nd_item<1> it) {
        const std::size_t g = it.get_global_id(0);
        const std::size_t l = it.get_local_id(0);
        scratch[l] = g < n ? data[g] : identity;
        it.barrier();
        for (std::size_t stride = wg / 2; stride > 0; stride /= 2) {
          if (l < stride) scratch[l] = op(scratch[l], scratch[l + stride]);
          it.barrier();
        }
        if (l == 0) slots[it.get_group(0)] = scratch[0];
      });
  groups.fold_into(*result);
}

}  // namespace syclport::ops
