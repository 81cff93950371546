#pragma once
/// \file loop_chain.hpp
/// Lazy dataflow capture for OP2: the unstructured-mesh counterpart of
/// ops::LoopChain. Captured par_loops over the same set whose arguments
/// are all direct (or global reductions) fuse element-wise: one sweep
/// runs every kernel back to back per element, so chain-internal
/// intermediates stay register/L1-resident instead of making a DRAM
/// round trip per loop. Element-wise fusion of direct loops is always
/// legal - every access of element e touches only e's own values, so
/// per-element program order preserves RAW/WAR/WAW exactly. Each global
/// reduction keeps the unfused sweep's kReduceChunk blocks and folds
/// them in block order (core/reducer.hpp), so fused and unfused results
/// are bit-identical under every Exec.
///
/// Segments split where fusion stops being element-local:
///  - any indirect or INC argument (values of mapped neighbours may be
///    written by other elements mid-sweep; these loops run through the
///    full par_loop machinery with their colouring strategy);
///  - a set change between consecutive loops.
///
/// The fuse/no-fuse decision is autotuned per chain composition (kFuse
/// axis, same "(chain:...)" site naming as the structured chain); with
/// tuning off the chain fuses by default. Per-chain eliminated bytes are
/// reported through sycl::launch_log, like the structured path.

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "op2/par_loop.hpp"
#include "ops/dataflow.hpp"
#include "sycl/launch_log.hpp"

namespace syclport::op2 {

class LoopChain {
 public:
  explicit LoopChain(Context& ctx) : ctx_(&ctx) {}

  /// Queue one loop. Kernel + args are captured by value; execution is
  /// deferred to execute(). The loop's profile is recorded now, in
  /// capture order, so a fused chain is profile-wise the same logical
  /// schedule as the unfused one.
  template <typename K, typename... Args>
  void enqueue(Meta meta, Set& set, K kernel, Args... args) {
    Queued q;
    q.set = &set;
    q.node.name = meta.name;
    q.node.hi = {static_cast<long>(set.size()), 1, 1};
    (classify(q, args), ...);

    if (ctx_->opt.record) {
      // par_loop records and returns without running in ModelOnly.
      const Mode saved = ctx_->opt.mode;
      ctx_->opt.mode = Mode::ModelOnly;
      par_loop(*ctx_, meta, set, kernel, args...);
      ctx_->opt.mode = saved;
    }

    Context* ctx = ctx_;
    Set* set_p = &set;
    q.run_full = [ctx, meta, set_p, kernel, args...] {
      const bool rec = ctx->opt.record;
      ctx->opt.record = false;
      par_loop(*ctx, meta, *set_p, kernel, args...);
      ctx->opt.record = rec;
    };
    q.make_fused = [kernel, args...]() -> std::unique_ptr<Fused> {
      auto binders = std::make_tuple(detail::make_binder(args, true)...);
      return std::make_unique<FusedLoop<K, decltype(binders)>>(
          kernel, std::move(binders));
    };
    queued_.push_back(std::move(q));
  }

  /// Number of queued loops.
  [[nodiscard]] std::size_t size() const { return queued_.size(); }

  /// Run everything captured, then clear the queue - also on a kernel
  /// throw mid-chain. fuse_opt pins the fuse decision; nullopt lets the
  /// autotuner race fuse on/off for this chain site (fused by default
  /// when tuning is off).
  void execute(std::optional<bool> fuse_opt = std::nullopt) {
    if (queued_.empty()) return;
    struct ClearGuard {
      std::vector<Queued>* q;
      ~ClearGuard() { q->clear(); }
    } guard{&queued_};
    last_ = Telemetry{};

    std::vector<ops::dataflow::Node> nodes;
    nodes.reserve(queued_.size());
    for (const Queued& q : queued_) nodes.push_back(q.node);
    const char* site_name = ops::dataflow::intern_chain_name(nodes);

    // Segment boundaries: element-locality ends at any unfusable loop
    // or set change.
    std::vector<std::size_t> cuts{0};
    for (std::size_t j = 1; j < queued_.size(); ++j)
      if (!queued_[j].fusable || !queued_[j - 1].fusable ||
          queued_[j].set != queued_[j - 1].set)
        cuts.push_back(j);
    cuts.push_back(queued_.size());

    bool fuse = fuse_opt.value_or(true);
    std::optional<rt::autotune::TunedLaunchParams> tuned;
    if (!fuse_opt) {
      hw::seed_autotuner_priors();
      rt::autotune::ScopedTune tune_override(ctx_->opt.tune);
      if (rt::autotune::current_phase() == rt::autotune::Phase::None &&
          rt::autotune::Autotuner::instance().enabled()) {
        rt::autotune::Site site;
        site.name = site_name;
        site.dims = 1;
        std::size_t max_n = 1;
        for (const Queued& q : queued_)
          max_n = std::max(max_n, q.set->size());
        site.global = {max_n, 1, 1};
        site.axes = rt::autotune::kFuse;
        tuned.emplace(site);  // scope spans the whole chain execution
        if (tuned->phase() != rt::autotune::Phase::None &&
            tuned->config().fuse)
          fuse = *tuned->config().fuse;
      }
    }

    const bool live = ctx_->executing();
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k)
      run_segment(nodes, cuts[k], cuts[k + 1], site_name, fuse, live);
    last_.loops = nodes.size();
    last_.segments = cuts.size() - 1;

    if (::sycl::launch_log::instance().enabled()) {
      ::sycl::fusion_record rec;
      rec.chain = site_name;
      rec.loops = last_.loops;
      rec.segments = last_.segments;
      rec.tile = 0;
      rec.fused = last_.fused;
      rec.fusable_bytes = last_.fusable_bytes;
      rec.eliminated_bytes = last_.eliminated_bytes;
      ::sycl::launch_log::instance().append_fusion(std::move(rec));
    }
  }

  // Telemetry of the most recent execute().
  [[nodiscard]] std::size_t last_segments() const { return last_.segments; }
  [[nodiscard]] bool last_fused() const { return last_.fused; }
  /// Name-level internal producer->consumer bound (bytes) of the chain.
  [[nodiscard]] double last_fusable_bytes() const {
    return last_.fusable_bytes;
  }
  /// Modeled DRAM bytes the executed schedule eliminated.
  [[nodiscard]] double last_eliminated_bytes() const {
    return last_.eliminated_bytes;
  }

 private:
  /// One loop of a fused sweep: its binders, bound at execute time.
  struct Fused {
    virtual ~Fused() = default;
    virtual void open(std::size_t blocks) = 0;
    virtual void invoke(std::size_t e, std::size_t blk) const = 0;
    virtual void close() const = 0;
  };
  template <typename K, typename Binders>
  struct FusedLoop final : Fused {
    FusedLoop(K k, Binders b) : kernel(std::move(k)), binders(std::move(b)) {}
    void open(std::size_t blocks) override {
      detail::open_sweeps(binders, blocks);
    }
    void invoke(std::size_t e, std::size_t blk) const override {
      std::apply([&](const auto&... b) { kernel(b.make(e, blk)...); },
                 binders);
    }
    void close() const override { detail::close_sweeps(binders); }
    K kernel;
    Binders binders;
  };

  struct Queued {
    Set* set = nullptr;
    bool fusable = true;
    ops::dataflow::Node node;
    std::function<void()> run_full;
    /// Deferred binder construction: dat base pointers are resolved at
    /// execute time, not capture time.
    std::function<std::unique_ptr<Fused>()> make_fused;
  };

  struct Telemetry {
    std::size_t loops = 0;
    std::size_t segments = 0;
    bool fused = false;
    double fusable_bytes = 0.0;
    double eliminated_bytes = 0.0;
  };

  template <typename T>
  void classify(Queued& q, const DirectArg<T>& a) {
    ops::dataflow::AccessBox box;
    box.dat = a.dat;
    box.hi = q.node.hi;
    box.bytes = a.dat->bytes();
    box.read = a.acc == Acc::R || a.acc == Acc::RW;
    box.write = a.acc == Acc::W || a.acc == Acc::RW;
    q.node.acc.push_back(box);
  }
  template <typename T>
  void classify(Queued& q, const IndirectArg<T>&) {
    q.fusable = false;
  }
  template <typename T>
  void classify(Queued& q, const detail::IncArg<T>&) {
    q.fusable = false;
  }
  template <typename T>
  void classify(Queued& q, const GblArg<T>&) {
    q.node.reduction = true;
  }

  void run_segment(const std::vector<ops::dataflow::Node>& nodes,
                   std::size_t b, std::size_t e, const char* site_name,
                   bool fuse, bool live) {
    const double fusable_bytes =
        ops::dataflow::internal_edge_bytes(nodes, b, e, 1);
    last_.fusable_bytes += fusable_bytes;

    if (!fuse || e - b < 2 || !queued_[b].fusable) {
      if (live)
        for (std::size_t i = b; i < e; ++i) queued_[i].run_full();
      return;
    }

    last_.fused = true;
    // Element-wise fusion keeps intermediates element-private, i.e.
    // register/L1-resident: the whole internal bound is eliminated.
    last_.eliminated_bytes += fusable_bytes;
    if (!live) return;

    const std::size_t n = queued_[b].set->size();
    const std::size_t blocks = BlockPartition::uniform(n, kReduceChunk).count();
    std::vector<std::unique_ptr<Fused>> loops;
    loops.reserve(e - b);
    for (std::size_t i = b; i < e; ++i) {
      loops.push_back(queued_[i].make_fused());
      loops.back()->open(blocks);
    }
    auto invoke_all = [&](std::size_t el, std::size_t blk) {
      for (const auto& f : loops) f->invoke(el, blk);
    };
    bool reduces = false;
    for (std::size_t i = b; i < e; ++i) reduces |= nodes[i].reduction;
    if (reduces)
      detail::sweep_list<true>(ctx_->opt.exec, ctx_->queue, site_name, n,
                               invoke_all);
    else
      detail::sweep_list<false>(ctx_->opt.exec, ctx_->queue, site_name, n,
                                invoke_all);
    for (const auto& f : loops) f->close();
  }

  Context* ctx_;
  std::vector<Queued> queued_;
  Telemetry last_;
};

}  // namespace syclport::op2
