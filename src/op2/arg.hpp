#pragma once
/// \file arg.hpp
/// OP2 par_loop arguments and kernel-side views:
///  - arg_direct(dat, acc): the element's own values, as (const) T*;
///  - arg_indirect(dat, map, idx, acc): values of the idx-th mapped
///    element;
///  - arg_inc(dat, map, idx) (par_loop.hpp): an Inc<T> proxy that adds
///    into the idx-th mapped element;
///  - arg_gbl(target, op): global reduction, as Reducer<T> - a plain
///    accumulator into the current block's slot, folded in block order
///    when the sweep completes (core/reducer.hpp).

#include "core/reducer.hpp"
#include "op2/dat.hpp"
#include "op2/set.hpp"

namespace syclport::op2 {

enum class Acc : std::uint8_t { R, W, RW, INC };

using syclport::Reducer;
using syclport::RedOp;

template <typename T>
struct DirectArg {
  Dat<T>* dat;
  Acc acc;
};

template <typename T>
[[nodiscard]] DirectArg<T> arg_direct(Dat<T>& d, Acc a) {
  return {&d, a};
}

template <typename T>
struct IndirectArg {
  Dat<T>* dat;
  Map* map;
  int idx;  ///< which map column selects the target element
  Acc acc;
};

template <typename T>
[[nodiscard]] IndirectArg<T> arg_indirect(Dat<T>& d, Map& m, int idx, Acc a) {
  return {&d, &m, idx, a};
}

template <typename T>
struct GblArg {
  T* target;
  RedOp op;
};

template <typename T>
[[nodiscard]] GblArg<T> arg_gbl(T& target, RedOp op) {
  return {&target, op};
}

/// Kernel-side view of an INC argument: plain adds into the mapped
/// element's components (or into scratch). The lowering keeps them
/// race-free (par_loop.hpp): colouring never runs two elements that
/// share a target at once, owner-computes and the staged scatter give
/// each target to one thread.
template <typename T>
class Inc {
 public:
  explicit Inc(T* p) : p_(p) {}

  void add(int c, T v) const { p_[c] += v; }

 private:
  T* p_;
};

}  // namespace syclport::op2
