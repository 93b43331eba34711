// Shared work-partitioning thread pool: the one concurrency substrate of
// the library. Every hot kernel (GEMM, im2col, LSH hashing, the clustered
// centroid GEMM, the backward reductions) parallelizes through ParallelFor
// so thread count is controlled in exactly one place.
//
// Determinism contract: work is partitioned into chunks whose boundaries
// depend only on the problem size and grain, never on the thread count.
// Kernels either write disjoint output ranges per chunk or combine chunk
// partials in fixed chunk order, so results are bit-identical for any
// number of threads (including 1).
//
// Thread count resolution, highest priority first:
//   1. ThreadPool::SetGlobalThreads(n) — the --threads flag of the
//      examples and benches lands here;
//   2. the ADR_THREADS environment variable;
//   3. std::thread::hardware_concurrency().

#ifndef ADR_UTIL_PARALLEL_H_
#define ADR_UTIL_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace adr {

/// \brief Non-owning reference to a callable: an object pointer and a
/// trampoline. Unlike std::function it never heap-allocates, so handing
/// a capturing lambda to ParallelFor costs nothing per call. The callable
/// must outlive the reference — true of a lambda passed straight to a
/// synchronous call such as ParallelFor or ThreadPool::Run.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // implicit, like std::function
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_(&Call<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  template <typename F>
  static R Call(void* obj, Args... args) {
    return (*static_cast<F*>(obj))(std::forward<Args>(args)...);
  }

  void* obj_;
  R (*call_)(void*, Args...);
};

/// \brief Fixed-size fork-join pool. One job runs at a time; the calling
/// thread participates, so a pool of N threads applies N-way parallelism
/// with N-1 workers.
class ThreadPool {
 public:
  /// \brief Spawns `num_threads - 1` workers (clamped to >= 1 thread
  /// total, i.e. 0 workers means all work runs inline on the caller).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// \brief Executes fn(i) for every i in [0, num_chunks); the caller
  /// participates and blocks until all chunks finish. The first exception
  /// thrown by any chunk is rethrown on the caller after the join. Calls
  /// from inside a running chunk (nested parallelism) execute inline.
  void Run(int64_t num_chunks, FunctionRef<void(int64_t)> fn);

  /// \brief Process-wide pool used by ParallelFor. Created on first use
  /// with DefaultThreads() threads.
  static ThreadPool* Global();

  /// \brief Replaces the global pool with one of `num_threads` threads
  /// (clamped to >= 1). Not safe concurrently with running kernels; call
  /// it from the main thread between pieces of work (flag parsing, bench
  /// setup, tests).
  static void SetGlobalThreads(int num_threads);

  /// \brief Thread count of the global pool without forcing its creation
  /// side effects beyond the first call.
  static int GlobalThreads();

  /// \brief ADR_THREADS if set to a positive integer, else
  /// hardware_concurrency(), else 1.
  static int DefaultThreads();

 private:
  void WorkerLoop(int worker_index);
  void RunChunks();

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  int workers_running_ = 0;
  bool shutdown_ = false;

  // Current job; valid while workers_running_ > 0 or the caller is inside
  // Run().
  const FunctionRef<void(int64_t)>* job_ = nullptr;
  int64_t job_chunks_ = 0;
  std::atomic<int64_t> next_chunk_{0};

  std::mutex error_mu_;
  std::exception_ptr error_;
};

/// \brief Splits [0, n) into chunks of `grain` consecutive indices (the
/// last chunk may be shorter) and runs fn(begin, end) for each chunk on
/// the global pool. Chunk boundaries depend only on (n, grain): results
/// are deterministic for any thread count when chunks write disjoint
/// ranges. fn is invoked inline when there is a single chunk. No-op for
/// n <= 0; grain < 1 is treated as 1.
void ParallelFor(int64_t n, int64_t grain,
                 FunctionRef<void(int64_t, int64_t)> fn);

/// \brief Grain that amortizes dispatch overhead for a loop whose body
/// costs ~`ops_per_item` operations per index: at least enough items per
/// chunk to reach kMinOpsPerChunk (~256K ops), never less than 1.
int64_t GrainForCost(int64_t ops_per_item);

}  // namespace adr

#endif  // ADR_UTIL_PARALLEL_H_
