#pragma once
/// \file reducer.hpp
/// Deterministic privatized global reductions - the one primitive behind
/// the OPS and OP2 reducers, the distributed rank-local reducers and the
/// miniSYCL handler's reduction launches.
///
/// A launch's linear iteration space is split into a fixed sequence of
/// blocks (BlockPartition) that depends only on the loop's range: never
/// on thread count, schedule, tiling or pool state. Each block runs on
/// one thread, visits its elements in ascending order and accumulates
/// into its own plain slot (BlockPartials). After the launch the slots
/// are folded into the target in ascending block order, so a result is
/// bit-identical at any thread count and under any schedule. The cost
/// differences between programming models' reductions (paper §4.2) are
/// a hardware-model concern (hw::ReductionKind), not a host cost.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>

namespace syclport {

enum class RedOp : std::uint8_t { Sum, Min, Max };

/// Combine functor for the DSLs' runtime-selected operator.
template <typename T>
struct RedFn {
  RedOp op;

  // Sum is the common operator: laid out as the fall-through, a row
  // sweep's accumulate loop stays branch-light (-O2 does not unswitch
  // the runtime op out of the loop).
  [[nodiscard]] constexpr T operator()(T a, T b) const {
    switch (op) {
      case RedOp::Sum: [[likely]] return a + b;
      case RedOp::Min: return b < a ? b : a;
      case RedOp::Max: return a < b ? b : a;
    }
    return a;
  }
  [[nodiscard]] constexpr T identity() const {
    switch (op) {
      case RedOp::Sum: return T{};
      case RedOp::Min: return std::numeric_limits<T>::max();
      case RedOp::Max: return std::numeric_limits<T>::lowest();
    }
    return T{};
  }
};

/// Kernel-side view of a global reduction: a plain accumulator into the
/// slot of the block the current element belongs to. Only the thread
/// running that block touches the slot.
template <typename T>
class Reducer {
 public:
  Reducer(T* slot, RedOp op) : slot_(slot), op_(op) {}

  void combine(T v) const { *slot_ = RedFn<T>{op_}(*slot_, v); }
  void operator+=(T v) const { combine(v); }

 private:
  T* slot_;
  RedOp op_;
};

/// Elements per block of a 1-D reduction space (structured 1-D loops,
/// OP2 sweeps, miniSYCL flat reductions). A power of two, so absolute
/// chunk indices are shifts.
inline constexpr int kReduceChunkShift = 10;
inline constexpr std::size_t kReduceChunk = std::size_t{1} << kReduceChunkShift;

/// Fixed split of a linear iteration space [0, n) into blocks: block 0
/// is [0, first), every later block is `len` long (the last clipped).
struct BlockPartition {
  std::size_t n = 0;
  std::size_t first = 1;
  std::size_t len = 1;

  /// Equal blocks of `len` (rows of a multi-dimensional loop, chunks of
  /// an element list).
  [[nodiscard]] static BlockPartition uniform(std::size_t n, std::size_t len) {
    return {n, len, len};
  }
  /// kReduceChunk-sized chunks aligned to absolute coordinate multiples,
  /// for a 1-D range that starts at `lo`: any sub-range split at chunk
  /// multiples (a tiled sweep) sees the same blocks.
  [[nodiscard]] static BlockPartition aligned(long lo, std::size_t n) {
    const auto mask = static_cast<long>(kReduceChunk - 1);
    return {n, kReduceChunk - static_cast<std::size_t>(lo & mask),
            kReduceChunk};
  }

  [[nodiscard]] std::size_t count() const {
    if (n == 0) return 0;
    return n <= first ? 1 : 1 + (n - first + len - 1) / len;
  }
  [[nodiscard]] std::size_t begin(std::size_t k) const {
    return k == 0 ? 0 : first + (k - 1) * len;
  }
  [[nodiscard]] std::size_t end(std::size_t k) const {
    const std::size_t e = first + k * len;
    return e < n ? e : n;
  }
  /// Does a block start at element `i`?
  [[nodiscard]] bool is_start(std::size_t i) const {
    return i == 0 || (i >= first && (i - first) % len == 0);
  }
  /// Index of the first block starting at or after `i`.
  [[nodiscard]] std::size_t first_at_or_after(std::size_t i) const {
    if (i == 0) return 0;
    if (i <= first) return 1;
    return 1 + (i - first + len - 1) / len;
  }

  /// Run fn(k, begin, end) for every block whose first element lies in
  /// [b, e). A parallel chunk [b, e) of [0, n) thereby owns whole
  /// blocks, so no block is ever split between threads, whatever the
  /// chunk boundaries.
  template <typename F>
  void for_each_starting_in(std::size_t b, std::size_t e, F&& fn) const {
    const std::size_t last = count();
    for (std::size_t k = first_at_or_after(b); k < last && begin(k) < e; ++k)
      fn(k, begin(k), end(k));
  }
};

/// One plain slot per block, initialized to the identity. fold_into()
/// combines the slots into the target in ascending block order, starting
/// from the target's prior value.
template <typename T, typename Op = RedFn<T>>
class BlockPartials {
 public:
  BlockPartials(Op op, T identity, std::size_t blocks)
      : op_(op),
        n_(blocks),
        slots_(std::make_unique_for_overwrite<T[]>(blocks > 0 ? blocks : 1)) {
    for (std::size_t k = 0; k < n_; ++k) slots_[k] = identity;
  }
  BlockPartials(RedOp op, std::size_t blocks)
    requires std::is_same_v<Op, RedFn<T>>
      : BlockPartials(RedFn<T>{op}, RedFn<T>{op}.identity(), blocks) {}

  /// The slot of block k. Writable through a const object: the slots
  /// are the launch's scratch, the object only fixes their number.
  [[nodiscard]] T* slot(std::size_t k) const { return slots_.get() + k; }

  void fold_into(T& target) const {
    T acc = target;
    for (std::size_t k = 0; k < n_; ++k) acc = op_(acc, slots_[k]);
    target = acc;
  }

 private:
  Op op_;
  std::size_t n_;
  std::unique_ptr<T[]> slots_;
};

}  // namespace syclport
