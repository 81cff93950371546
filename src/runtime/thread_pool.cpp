#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "runtime/env.hpp"
#include "runtime/fault/fault.hpp"

namespace syclport::rt {

namespace {

/// parallel_for targets this many chunks per worker before the grain
/// floor is applied (matches the seed's size()*4 split).
constexpr std::size_t kChunksPerWorker = 4;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Spin-then-park helper. Back-to-back launches in the apps arrive within
/// microseconds, so a short busy spin skips the condvar wake latency on
/// the common path. The spin degrades pause -> sched_yield -> park (the
/// caller parks once spin() returns false); on a single-CPU machine
/// pausing only burns the timeslice the peer thread needs, so the pause
/// phase is skipped entirely there.
class SpinWait {
 public:
  /// Single-CPU machines go straight to the yield phase.
  SpinWait() noexcept : count_(single_cpu() ? kPauseIters : 0) {}

  bool spin() noexcept {
    if (count_ >= kPauseIters + kYieldIters) return false;
    if (count_ >= kPauseIters) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
    ++count_;
    return true;
  }

 private:
  static bool single_cpu() noexcept {
    static const bool v = std::thread::hardware_concurrency() <= 1;
    return v;
  }
  static constexpr int kPauseIters = 2048;
  static constexpr int kYieldIters = 32;
  int count_ = 0;
};

constexpr std::uint64_t pack(std::uint32_t begin, std::uint32_t end) noexcept {
  return (static_cast<std::uint64_t>(begin) << 32) | end;
}
constexpr std::uint32_t range_begin(std::uint64_t r) noexcept {
  return static_cast<std::uint32_t>(r >> 32);
}
constexpr std::uint32_t range_end(std::uint64_t r) noexcept {
  return static_cast<std::uint32_t>(r);
}

/// Set while a thread is executing chunks of a pool's job; a launch
/// issued from such a thread must run inline (the workers are busy with
/// the outer job, and blocking on them would deadlock).
thread_local const ThreadPool* t_active_pool = nullptr;

/// Set while a ScopedSerialExecution is alive on this thread; forces
/// launches from this thread onto the serial path.
thread_local bool t_force_serial = false;

/// Stats of the most recent launch issued from this thread.
thread_local LaunchStats t_last_stats{};

// --- process-wide launch params --------------------------------------------

std::atomic<Schedule> g_schedule{Schedule::Steal};
std::atomic<std::size_t> g_grain{1};
std::once_flag g_params_once;

void init_params_from_env() {
  if (const auto v = env::get("SYCLPORT_SCHEDULE")) {
    if (const auto s = parse_schedule(*v))
      g_schedule.store(*s, std::memory_order_relaxed);
    else
      env::warn_invalid("SYCLPORT_SCHEDULE", *v, "static|dynamic|steal");
  }
  if (const auto v = env::get_long("SYCLPORT_GRAIN", 1,
                                   std::numeric_limits<long>::max()))
    g_grain.store(static_cast<std::size_t>(*v), std::memory_order_relaxed);
}

}  // namespace

std::optional<Schedule> parse_schedule(std::string_view s) noexcept {
  if (s == "static") return Schedule::Static;
  if (s == "dynamic") return Schedule::Dynamic;
  if (s == "steal") return Schedule::Steal;
  return std::nullopt;
}

const char* to_string(Schedule s) noexcept {
  switch (s) {
    case Schedule::Static: return "static";
    case Schedule::Dynamic: return "dynamic";
    case Schedule::Steal: return "steal";
  }
  return "?";
}

LaunchParams launch_params() noexcept {
  std::call_once(g_params_once, init_params_from_env);
  return {g_schedule.load(std::memory_order_relaxed),
          g_grain.load(std::memory_order_relaxed)};
}

void set_launch_params(const LaunchParams& p) noexcept {
  std::call_once(g_params_once, init_params_from_env);
  g_schedule.store(p.schedule, std::memory_order_relaxed);
  g_grain.store(std::max<std::size_t>(1, p.grain), std::memory_order_relaxed);
}

ScopedLaunchParams::ScopedLaunchParams(std::optional<Schedule> schedule,
                                       std::optional<std::size_t> grain) noexcept
    : saved_(launch_params()) {
  LaunchParams p = saved_;
  if (schedule) p.schedule = *schedule;
  if (grain) p.grain = *grain;
  set_launch_params(p);
}

ScopedLaunchParams::~ScopedLaunchParams() { set_launch_params(saved_); }

ScopedSerialExecution::ScopedSerialExecution() noexcept
    : saved_(t_force_serial) {
  t_force_serial = true;
}

ScopedSerialExecution::~ScopedSerialExecution() { t_force_serial = saved_; }

bool serial_execution_forced() noexcept { return t_force_serial; }

// --- pool lifecycle ---------------------------------------------------------

ThreadPool::ThreadPool(unsigned threads)
    : threads_(std::max(1u, threads)), slots_(new WorkerSlot[threads_]) {
  workers_.reserve(threads_ - 1);
  for (unsigned i = 1; i < threads_; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard lock(mu_);
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

// --- claim protocol ---------------------------------------------------------

bool ThreadPool::pop_own(unsigned worker_id, std::uint32_t& b,
                         std::uint32_t& e) {
  auto& range = slots_[worker_id].range;
  std::uint64_t cur = range.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t begin = range_begin(cur), end = range_end(cur);
    if (begin >= end) return false;
    if (range.compare_exchange_weak(cur, pack(begin + 1, end),
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      b = begin;
      e = begin + 1;
      return true;
    }
  }
}

bool ThreadPool::steal(unsigned worker_id, std::uint32_t& b, std::uint32_t& e) {
  for (unsigned k = 1; k < threads_; ++k) {
    const unsigned victim = (worker_id + k) % threads_;
    auto& range = slots_[victim].range;
    std::uint64_t cur = range.load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t begin = range_begin(cur), end = range_end(cur);
      if (begin >= end) break;
      const std::uint32_t take = (end - begin + 1) / 2;
      if (range.compare_exchange_weak(cur, pack(begin, end - take),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        // Keep the first stolen chunk, expose the rest in our own (empty)
        // slot so other thieves can re-steal from it.
        if (take > 1)
          slots_[worker_id].range.store(pack(end - take + 1, end),
                                        std::memory_order_release);
        slots_[worker_id].steals += 1;
        slots_[worker_id].stolen_chunks += take;
        b = end - take;
        e = b + 1;
        return true;
      }
    }
  }
  return false;
}

void ThreadPool::work(unsigned worker_id) {
  const ThreadPool* prev = t_active_pool;
  t_active_pool = this;
  detail::JobState& job = job_state_;
  switch (job_schedule_) {
    case Schedule::Dynamic:
      for (;;) {
        if (job.cancel.load(std::memory_order_relaxed)) break;
        const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
        if (c >= job_chunks_) break;
        invoke_(job, ctx_, c, c + 1);
      }
      break;
    case Schedule::Static: {
      const std::uint64_t r =
          slots_[worker_id].range.exchange(0, std::memory_order_acq_rel);
      if (range_begin(r) < range_end(r))
        invoke_(job, ctx_, range_begin(r), range_end(r));
      break;
    }
    case Schedule::Steal: {
      std::uint32_t b = 0, e = 0;
      while (!job.cancel.load(std::memory_order_relaxed) &&
             (pop_own(worker_id, b, e) || steal(worker_id, b, e)))
        invoke_(job, ctx_, b, e);
      break;
    }
  }
  t_active_pool = prev;
}

// --- launch/join ------------------------------------------------------------

void ThreadPool::worker_loop(unsigned worker_id) {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t gen = generation_.load(std::memory_order_acquire);
    SpinWait spinner;
    while (gen == seen && !stop_.load(std::memory_order_relaxed) &&
           spinner.spin())
      gen = generation_.load(std::memory_order_acquire);
    if (gen == seen && !stop_.load(std::memory_order_relaxed)) {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               generation_.load(std::memory_order_acquire) != seen;
      });
      gen = generation_.load(std::memory_order_acquire);
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    seen = gen;
    // Injected worker stall / late start: the worker sleeps briefly
    // before touching its chunk range, so the launch's work must be
    // re-balanced onto the remaining workers (steal schedule) or wait
    // it out (static) - either way the launch completes correctly.
    if (fault::armed())
      if (const auto r = fault::roll(fault::Site::PoolStall); r.fire)
        fault::inject_sleep(r.value, 100, 2000);
    work(worker_id);
    if (pending_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(mu_);
      cv_done_.notify_all();
    }
  }
}

bool ThreadPool::wait_done_spin() const noexcept {
  SpinWait spinner;
  do {
    if (pending_workers_.load(std::memory_order_acquire) == 0) return true;
  } while (spinner.spin());
  return pending_workers_.load(std::memory_order_acquire) == 0;
}

void ThreadPool::dispatch(RangeFn invoke, void* ctx, std::size_t nchunks) {
  Schedule sched = launch_params().schedule;
  // The packed per-worker ranges hold 32-bit chunk indices; fall back to
  // the shared counter for (absurdly) larger launches.
  if (nchunks > 0xffffffffull && sched != Schedule::Dynamic)
    sched = Schedule::Dynamic;
  if (threads_ == 1 || nchunks == 1 || t_active_pool == this ||
      t_force_serial) {
    run_serial(invoke, ctx, nchunks, sched);
    return;
  }
  submit(invoke, ctx, nchunks, sched);
}

void ThreadPool::run_serial(RangeFn invoke, void* ctx, std::size_t nchunks,
                            Schedule sched) {
  detail::JobState job;
  invoke(job, ctx, 0, nchunks);
  t_last_stats = LaunchStats{sched, nchunks, 0, 0, false};
  if (job.first_error) std::rethrow_exception(job.first_error);
}

void ThreadPool::submit(RangeFn invoke, void* ctx, std::size_t nchunks,
                        Schedule sched) {
  std::lock_guard submit_lock(submit_mu_);
  invoke_ = invoke;
  ctx_ = ctx;
  job_chunks_ = nchunks;
  job_schedule_ = sched;
  job_state_.cancel.store(false, std::memory_order_relaxed);
  job_state_.first_error = nullptr;
  if (sched == Schedule::Dynamic) {
    next_chunk_.store(0, std::memory_order_relaxed);
  } else {
    for (unsigned i = 0; i < threads_; ++i) {
      const auto lo = static_cast<std::uint32_t>(nchunks * i / threads_);
      const auto hi = static_cast<std::uint32_t>(nchunks * (i + 1) / threads_);
      slots_[i].range.store(pack(lo, hi), std::memory_order_relaxed);
    }
  }
  for (unsigned i = 0; i < threads_; ++i)
    slots_[i].steals = slots_[i].stolen_chunks = 0;
  pending_workers_.store(threads_ - 1, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard lock(mu_);
  }
  cv_start_.notify_all();

  work(0);

  if (!wait_done_spin()) {
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [&] {
      return pending_workers_.load(std::memory_order_acquire) == 0;
    });
  }

  LaunchStats st{sched, nchunks, 0, 0, true};
  for (unsigned i = 0; i < threads_; ++i) {
    st.steals += slots_[i].steals;
    st.stolen_chunks += slots_[i].stolen_chunks;
  }
  t_last_stats = st;
  invoke_ = nullptr;
  ctx_ = nullptr;
  if (job_state_.first_error) {
    std::exception_ptr err = job_state_.first_error;
    job_state_.first_error = nullptr;
    std::rethrow_exception(err);
  }
}

std::size_t ThreadPool::chunk_size(std::size_t n,
                                   std::size_t unit) const noexcept {
  const std::size_t iters = std::max<std::size_t>(1, launch_params().grain);
  const std::size_t u = std::max<std::size_t>(1, unit);
  const std::size_t grain = (iters + u - 1) / u;
  const std::size_t target = static_cast<std::size_t>(threads_) * kChunksPerWorker;
  return std::max(grain, (n + target - 1) / target);
}

// --- type-erased wrappers ---------------------------------------------------

void ThreadPool::run_chunks(std::size_t nchunks,
                            const std::function<void(std::size_t)>& fn) {
  run_chunks(nchunks, [&fn](std::size_t c) { fn(c); });
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for(n, [&fn](std::size_t b, std::size_t e) { fn(b, e); });
}

LaunchStats ThreadPool::last_stats() noexcept { return t_last_stats; }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const auto v = env::get_long("SYCLPORT_THREADS", 1, 4096))
      return static_cast<unsigned>(*v);
    return std::max(2u, std::thread::hardware_concurrency());
  }());
  return pool;
}

}  // namespace syclport::rt
