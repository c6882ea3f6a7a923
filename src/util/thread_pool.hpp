// Fixed-size worker pool for the parallel rewiring scheduler.
//
// The pool is deliberately minimal: one blocking fan-out primitive,
// `run(fn)`, which invokes fn(worker) exactly once per worker index and
// returns when every invocation finished. Work DISTRIBUTION is the
// caller's job (the scheduler assigns weight shards to worker indices
// deterministically), so results never depend on thread scheduling —
// only on the worker-index -> work mapping, which is a pure function.
//
// Worker 0 always runs on the calling thread: a pool of size 1 spawns no
// threads at all and `run` degenerates to a plain function call, which is
// what makes `--threads 1` the bit-identical serial reference point.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rapids {

class ThreadPool {
 public:
  /// `workers` is clamped to >= 1. Spawns workers-1 threads; they idle on a
  /// condition variable between run() calls.
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return workers_; }

  /// Invoke fn(w) for every w in [0, workers()), concurrently, and block
  /// until all return. fn(0) runs on the calling thread. If any invocation
  /// throws, the first exception (by worker index) is rethrown here after
  /// all workers finished.
  void run(const std::function<void(int)>& fn);

  /// Hardware concurrency with a sane floor (std::thread reports 0 when
  /// unknown).
  static int hardware_threads();

 private:
  void worker_loop(int worker);

  int workers_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace rapids
