#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"

namespace memcim {

namespace {

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

std::size_t default_thread_count() {
  if (const char* env = std::getenv("MEMCIM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// One fork/join region.  Immutable after publication except for the
/// atomics; shared_ptr ownership lets a late-waking worker look at an
/// already-finished job safely (its chunk counter is exhausted, so the
/// worker exits without touching fn).
struct Job {
  ChunkFn fn;
  std::size_t begin = 0, end = 0, chunk = 1, n_chunks = 0;
  /// Submitter's trace context: workers adopt it while draining, so
  /// their spans parent under the dispatching span.
  telemetry::TraceContext trace_ctx;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
};

void drain(Job& job) {
  const bool telem = telemetry::enabled();
  const std::uint64_t t0 = telem ? telemetry::now_ns() : 0;
  const telemetry::TraceContextScope trace_scope(job.trace_ctx);
  std::size_t executed = 0;
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.n_chunks) break;
    const std::size_t lo = job.begin + c * job.chunk;
    const std::size_t hi = std::min(job.end, lo + job.chunk);
    job.fn(lo, hi);
    ++executed;
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(job.m);
      job.done = true;
      job.cv.notify_all();
    }
  }
  if (telem && executed > 0) {
    static telemetry::Counter& chunks =
        telemetry::Registry::global().counter("parallel.pool.chunks");
    chunks.add(executed);
    if (t_busy_ns == nullptr) t_busy_ns = &worker_busy_counter(0);
    t_busy_ns->add(telemetry::now_ns() - t0);
  }
}

/// Persistent workers; one job active at a time (parallel_for is a
/// blocking fork/join region and nested calls run serially).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t n_workers) {
    const std::size_t helpers = n_workers > 1 ? n_workers - 1 : 0;
    workers_.reserve(helpers);
    for (std::size_t i = 0; i < helpers; ++i)
      workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  void run(const std::shared_ptr<Job>& job) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      current_job_ = job;
      ++generation_;
    }
    wake_.notify_all();
    t_in_parallel_region = true;
    drain(*job);
    t_in_parallel_region = false;
    std::unique_lock<std::mutex> lock(job->m);
    job->cv.wait(lock, [&job] { return job->done; });
  }

 private:
  void worker_loop(std::size_t worker) {
    std::uint64_t seen_generation = 0;
    t_in_parallel_region = true;
    t_busy_ns = &worker_busy_counter(worker);
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this, seen_generation] {
          return shutdown_ || generation_ != seen_generation;
        });
        if (shutdown_) return;
        seen_generation = generation_;
        job = current_job_;
      }
      if (job) drain(*job);
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::shared_ptr<Job> current_job_;
};

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // lazily sized

ThreadPool& pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_thread_count());
  return *g_pool;
}

}  // namespace

std::size_t parallel_threads() {
  // Reporting the size must not spawn the workers.
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return g_pool ? g_pool->size() : default_thread_count();
}

void set_parallel_threads(std::size_t n) {
  const std::size_t target = n > 0 ? n : default_thread_count();
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool && g_pool->size() == target) return;
  g_pool.reset();  // join old workers before spawning the new pool
  g_pool = std::make_unique<ThreadPool>(target);
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         std::size_t grain, const ChunkFn& fn) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  if (grain == 0) grain = 1;
  // Nested and small regions are serial whatever the pool size, so they
  // return before touching the pool and its global lock.
  ThreadPool* const p =
      t_in_parallel_region || count < 2 * grain ? nullptr : &pool();
  if (p == nullptr || p->size() == 1) {
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
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->trace_ctx = telemetry::current_trace_context();
  job->begin = begin;
  job->end = end;
  job->chunk = chunk;
  job->n_chunks = (count + chunk - 1) / chunk;
  job->remaining.store(job->n_chunks, std::memory_order_relaxed);
  p->run(job);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(begin, end, grain,
                      [&fn](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) fn(i);
                      });
}

}  // namespace memcim
