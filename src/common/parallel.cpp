#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace memcim {

namespace {

/// Polls a waiter makes, each followed by a CPU pause, before it starts
/// yielding its CPU.
constexpr int kPausePolls = 32;

/// How long a waiter keeps polling, yielding its CPU between polls,
/// before it parks on a condition variable.  Chosen, on a 4-vCPU VM,
/// when serving windows still fanned their tiles out on the pool: the
/// serial gap between consecutive perfbench serve_add_heavy windows was
/// mostly 10–50 µs, so 50 µs kept the workers awake across a serving run
/// and let them park when the caller went quiet.  Serving windows now
/// run their tiles inline and never reach the pool, so that reason is
/// gone; the value stays, as windows from 20 to 1000 µs were not clearly
/// faster on any perfbench workload.  Yielding rather than spinning on
/// `pause` keeps a descheduled caller or worker from waiting behind a
/// spinner on a loaded machine.
constexpr std::chrono::microseconds kSpinWindow{50};

/// Set while a thread is executing pool work; nested parallel_for calls
/// from such a thread run serially instead of re-entering the pool.
thread_local bool t_in_parallel_region = false;

/// Per-thread busy-time counter ("parallel.worker<i>.busy_ns"): worker
/// threads bind theirs on startup, the caller thread binds worker 0 on
/// first use.  Schedule-dependent by nature — excluded from the
/// determinism guarantee like every *.ns metric.
thread_local telemetry::Counter* t_busy_ns = nullptr;

telemetry::Counter& worker_busy_counter(std::size_t worker) {
  return telemetry::Registry::global().counter(
      "parallel.worker" + std::to_string(worker) + ".busy_ns");
}

/// MEMCIM_THREADS must be a whole decimal number in 1..kMaxParallelThreads.
std::size_t parse_thread_count(const char* text) {
  std::size_t n = 0;
  const char* c = text;
  for (; *c >= '0' && *c <= '9' && n <= kMaxParallelThreads; ++c)
    n = n * 10 + static_cast<std::size_t>(*c - '0');
  if (c == text || *c != '\0' || n < 1 || n > kMaxParallelThreads)
    throw Error("MEMCIM_THREADS=\"" + std::string(text) +
                "\" is not a whole number from 1 to " +
                std::to_string(kMaxParallelThreads));
  return n;
}

std::size_t default_thread_count() {
  if (const char* env = std::getenv("MEMCIM_THREADS"))
    return parse_thread_count(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxParallelThreads);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Where one waiting thread parks once its spin window has passed.  The
/// waiter sets `sleeping` and then re-reads the word it waits on; a
/// poster stores that word and then reads `sleeping`.  Both sides are
/// seq_cst, so either the waiter sees the new word or the poster sees
/// the flag and notifies under the mutex — a wake-up cannot be lost.
struct alignas(64) Parker {
  std::atomic<bool> sleeping{false};
  std::mutex mutex;
  std::condition_variable cv;
};

/// Returns once ready() holds: a few dozen polls with a CPU pause, then
/// polls that yield the CPU until kSpinWindow has passed, then a park
/// on `p`.  ready() may read only words whose posters call wake(p)
/// after storing them, and must read them seq_cst.
template <typename Ready>
void await(Parker& p, const Ready& ready) {
  for (int i = 0; i < kPausePolls; ++i) {
    if (ready()) return;
    cpu_relax();
  }
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  do {
    if (ready()) return;
    std::this_thread::yield();
  } while (std::chrono::steady_clock::now() < deadline);
  std::unique_lock<std::mutex> lock(p.mutex);
  p.sleeping.store(true);
  p.cv.wait(lock, ready);
  p.sleeping.store(false);
}

/// The poster's half of await(): call after storing the awaited word.
void wake(Parker& p) {
  if (!p.sleeping.load()) return;
  const std::lock_guard<std::mutex> lock(p.mutex);
  p.cv.notify_one();
}

/// One fork/join region.  It lives on the caller's stack and refers to
/// the caller's callable; a worker touches it only between seeing the
/// region's epoch in its mailbox and posting that epoch as done, and the
/// caller returns only after every worker it posted is done.
struct Region {
  ChunkFn fn;
  std::size_t begin = 0, end = 0, chunk = 1, n_chunks = 0;
  /// Submitter's trace context: workers adopt it while draining, so
  /// their spans parent under the dispatching span.
  telemetry::TraceContext trace_ctx;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  /// The first exception a chunk threw; written only by the thread that
  /// set `failed`, read by the caller after the join.
  std::exception_ptr error{};
};

void drain(Region& region) {
  const bool telem = telemetry::enabled();
  const std::uint64_t t0 = telem ? telemetry::now_ns() : 0;
  const telemetry::TraceContextScope trace_scope(region.trace_ctx);
  std::size_t executed = 0;
  for (;;) {
    const std::size_t c = region.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= region.n_chunks) break;
    const std::size_t lo = region.begin + c * region.chunk;
    const std::size_t hi = std::min(region.end, lo + region.chunk);
    try {
      region.fn(lo, hi);
    } catch (...) {
      if (!region.failed.exchange(true))
        region.error = std::current_exception();
      // Hand out no further chunks.
      region.next.store(region.n_chunks, std::memory_order_relaxed);
    }
    ++executed;
  }
  if (telem && executed > 0) {
    static telemetry::Counter& chunks =
        telemetry::Registry::global().counter("parallel.pool.chunks");
    chunks.add(executed);
    if (t_busy_ns == nullptr) t_busy_ns = &worker_busy_counter(0);
    t_busy_ns->add(telemetry::now_ns() - t0);
  }
}

/// Marks the caller as inside a parallel region for its scope.
struct InRegionScope {
  InRegionScope() { t_in_parallel_region = true; }
  ~InRegionScope() { t_in_parallel_region = false; }
  InRegionScope(const InRegionScope&) = delete;
  InRegionScope& operator=(const InRegionScope&) = delete;
};

/// Persistent workers, each waiting on its own mailbox; one region
/// active at a time (parallel_for is a blocking fork/join region and
/// nested calls run serially).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t n_workers)
      : boxes_(n_workers > 1 ? n_workers - 1 : 0) {
    workers_.reserve(boxes_.size());
    try {
      for (std::size_t i = 0; i < boxes_.size(); ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
    } catch (...) {
      stop();
      throw;
    }
  }

  ~ThreadPool() { stop(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return boxes_.size() + 1; }

  /// Claims the pool for one region; false while another thread's
  /// region holds it.
  bool try_claim() { return !busy_.exchange(true, std::memory_order_acquire); }

  /// Runs a claimed region on the caller and on up to n_chunks − 1
  /// workers, returns once every worker that entered it has left, and
  /// releases the pool.
  void run(Region& region) {
    const std::size_t helpers = std::min(boxes_.size(), region.n_chunks - 1);
    region_ = &region;
    const std::uint64_t epoch = ++epoch_ * kStates;
    for (std::size_t i = 0; i < helpers; ++i) post(boxes_[i], epoch + kPosted);
    {
      const InRegionScope in_region;
      drain(region);
    }
    // Every chunk has been handed out.  A worker that has not entered
    // yet (descheduled, or still waking from a park) is told to skip
    // the region instead of being waited for.
    for (std::size_t i = 0; i < helpers; ++i) {
      std::uint64_t expected = epoch + kPosted;
      boxes_[i].state.compare_exchange_strong(expected, epoch + kRevoked);
    }
    await(caller_park_, [this, helpers, epoch] {
      for (std::size_t i = 0; i < helpers; ++i)
        if (boxes_[i].state.load() == epoch + kEntered) return false;
      return true;
    });
    busy_.store(false, std::memory_order_release);
  }

 private:
  /// A mailbox holds epoch · kStates plus one of these states.
  static constexpr std::uint64_t kPosted = 0, kEntered = 1, kDone = 2,
                                 kRevoked = 3, kStates = 4;

  /// One worker's mailbox, on cache lines of its own.  The caller posts
  /// a region's epoch; the worker enters the region by a CAS from
  /// posted, and marks it done once it has left.  The caller revokes a
  /// post the worker has not entered by a CAS of its own, so exactly one
  /// of the two CASes succeeds.
  struct alignas(64) Mailbox {
    std::atomic<std::uint64_t> state{kDone};
    Parker park;  ///< where the worker waits for a post
  };

  void post(Mailbox& box, std::uint64_t posted) {
    box.state.store(posted);
    wake(box.park);
  }

  /// Joins the started workers; no region may be running.
  void stop() {
    stopping_.store(true, std::memory_order_relaxed);
    const std::uint64_t epoch = ++epoch_ * kStates;
    for (std::size_t i = 0; i < workers_.size(); ++i)
      post(boxes_[i], epoch + kPosted);
    for (std::thread& w : workers_) w.join();
  }

  void worker_loop(std::size_t index) {
    t_in_parallel_region = true;
    t_busy_ns = &worker_busy_counter(index + 1);
    Mailbox& box = boxes_[index];
    for (;;) {
      std::uint64_t posted = 0;
      await(box.park, [&box, &posted] {
        posted = box.state.load();
        return posted % kStates == kPosted;
      });
      // The post that announced the stop orders this read after it.
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (!box.state.compare_exchange_strong(posted, posted + kEntered))
        continue;  // revoked before this worker entered
      drain(*region_);
      box.state.store(posted - kPosted + kDone);
      wake(caller_park_);
    }
  }

  std::vector<Mailbox> boxes_;
  Parker caller_park_;  ///< where the caller waits for the workers' `done`
  std::atomic<bool> busy_{false};
  std::atomic<bool> stopping_{false};
  // Written by the claiming caller before its posts; read by a worker
  // after it sees one.
  Region* region_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::vector<std::thread> workers_;
};

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // lazily sized; guarded by g_pool_mutex
/// g_pool.get(), readable without the lock on every region.
std::atomic<ThreadPool*> g_pool_view{nullptr};

ThreadPool& pool() {
  if (ThreadPool* p = g_pool_view.load(std::memory_order_acquire)) return *p;
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(default_thread_count());
    g_pool_view.store(g_pool.get(), std::memory_order_release);
  }
  return *g_pool;
}

}  // namespace

std::size_t parallel_threads() {
  // Reporting the size must not spawn the workers.
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return g_pool ? g_pool->size() : default_thread_count();
}

void set_parallel_threads(std::size_t n) {
  if (n > kMaxParallelThreads)
    throw Error("set_parallel_threads(" + std::to_string(n) +
                "): at most " + std::to_string(kMaxParallelThreads) +
                " threads");
  const std::size_t target = n > 0 ? n : default_thread_count();
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool && g_pool->size() == target) return;
  g_pool_view.store(nullptr, std::memory_order_relaxed);
  g_pool.reset();  // join old workers before spawning the new pool
  g_pool = std::make_unique<ThreadPool>(target);
  g_pool_view.store(g_pool.get(), std::memory_order_release);
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         std::size_t grain, ChunkFn fn) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  if (grain == 0) grain = 1;
  // Nested and small regions are serial whatever the pool size, so they
  // return before touching the pool.  So does a region submitted while
  // another thread's region holds the pool.
  ThreadPool* const p =
      t_in_parallel_region || count < 2 * grain ? nullptr : &pool();
  if (p == nullptr || p->size() == 1 || !p->try_claim()) {
    if (telemetry::enabled()) {
      static telemetry::Counter& serial =
          telemetry::Registry::global().counter("parallel.pool.serial_regions");
      serial.add(1);
    }
    fn(begin, end);
    return;
  }
  if (telemetry::enabled()) {
    static telemetry::Counter& jobs =
        telemetry::Registry::global().counter("parallel.pool.jobs");
    jobs.add(1);
  }
  // Chunk size: at least `grain`, at most what spreads the range across
  // every worker; the partition is a pure function of (range, grain,
  // pool size), never of scheduling.
  const std::size_t by_workers = (count + p->size() - 1) / p->size();
  const std::size_t chunk = std::max(grain, by_workers);
  Region region{fn, begin, end, chunk, (count + chunk - 1) / chunk,
                telemetry::current_trace_context()};
  p->run(region);
  if (region.error) std::rethrow_exception(region.error);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  FunctionRef<void(std::size_t)> fn) {
  parallel_for_chunks(begin, end, grain,
                      [fn](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) fn(i);
                      });
}

}  // namespace memcim
