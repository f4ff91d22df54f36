// Minimal reusable thread pool with a chunked parallel_for.
//
// Design constraints (see docs/SOLVER.md):
//  * Determinism — parallel_for partitions [begin, end) into fixed
//    contiguous chunks; which worker executes a chunk never affects the
//    result as long as chunks write disjoint data.  Reductions are the
//    caller's job (accumulate per chunk, combine in chunk order).
//  * No nested parallelism — a parallel_for issued from inside a worker
//    runs serially on that worker, so solver code can use parallel_for
//    freely without deadlock when workloads fan out above it.
//  * Cheap fallback — with one worker (or a range below the grain) the
//    call degenerates to a plain loop; small problems pay nothing.
//  * Cheap hand-off — a region lives on the caller's stack and reaches
//    each worker through that worker's mailbox, so starting and joining
//    one costs a few atomic operations while the workers are awake: no
//    heap allocation, no lock, no system call.  The caller waits only
//    for workers that entered the region.
//  * Exceptions — the first exception a chunk throws stops the region
//    from handing out further chunks; once every worker has left the
//    region it is rethrown on the caller, and the pool stays usable.
//
// The pool size defaults to std::thread::hardware_concurrency() (capped
// at kMaxParallelThreads) and can be overridden by the MEMCIM_THREADS
// environment variable, read whenever the default size is resolved, or
// at runtime via set_parallel_threads() (tests use this to prove
// 1-vs-N bitwise identity).
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace memcim {

/// Non-owning reference to a callable: two words, never allocates.  The
/// referenced callable must outlive every call, which a temporary
/// lambda passed to parallel_for does.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>,
                                FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

/// A chunk of a parallel_for range: callers receive [begin, end).
using ChunkFn = FunctionRef<void(std::size_t, std::size_t)>;

/// Largest pool size MEMCIM_THREADS or set_parallel_threads() accepts.
inline constexpr std::size_t kMaxParallelThreads = 256;

/// Number of workers the global pool currently runs (>= 1).  Throws
/// memcim::Error when MEMCIM_THREADS is set but not a valid size.
[[nodiscard]] std::size_t parallel_threads();

/// Resize the global pool.  n = 0 restores the default (MEMCIM_THREADS,
/// else hardware concurrency).  Throws memcim::Error, before any thread
/// starts, for n > kMaxParallelThreads or, when n = 0, for a
/// MEMCIM_THREADS that is not a whole decimal number in
/// 1..kMaxParallelThreads.  Existing workers are joined before new ones
/// start; safe to call between parallel regions only.
void set_parallel_threads(std::size_t n);

/// Run fn over [begin, end) split into contiguous chunks of at least
/// `grain` indices, using the global pool.  The calling thread
/// participates.  Serial when the pool has one worker, when the range
/// is below 2·grain, or when called from inside another parallel_for.
/// The first exception a chunk throws is rethrown here after every
/// worker has left the region.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         std::size_t grain, ChunkFn fn);

/// Per-index convenience wrapper over parallel_for_chunks.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  FunctionRef<void(std::size_t)> fn);

}  // namespace memcim
