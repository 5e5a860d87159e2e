#include "numeric/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/error.hpp"
#include "numeric/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace trustddl::kernels {
namespace {

// Pool instrumentation.  Function-local statics cache the registry
// references so the enabled path costs one relaxed RMW and the
// disabled path one relaxed load (inside Counter::add / the explicit
// metrics_enabled() gates around clock reads).
obs::Counter& jobs_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("kernels.jobs");
  return counter;
}
obs::Counter& inline_runs_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("kernels.inline_runs");
  return counter;
}
obs::Counter& caller_chunks_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("kernels.chunks.caller");
  return counter;
}
obs::Counter& worker_chunks_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("kernels.chunks.worker");
  return counter;
}
obs::Histogram& caller_wait_histogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::global().histogram("kernels.caller_wait_us");
  return histogram;
}
obs::Histogram& worker_idle_histogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::global().histogram("kernels.worker_idle_us");
  return histogram;
}

/// True on pool worker threads: nested parallel sections run inline
/// there, which both avoids deadlock (a worker never blocks waiting on
/// work only it could execute) and keeps the outermost partition the
/// only one that matters for scheduling.
thread_local bool t_in_pool_worker = false;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw) {
    return fallback;
  }
  return static_cast<std::size_t>(value);
}

std::size_t sysconf_bytes(int name) {
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long value = ::sysconf(name);
  return value > 0 ? static_cast<std::size_t>(value) : 0;
#else
  (void)name;
  return 0;
#endif
}

std::size_t l1d_cache_bytes() {
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  static const std::size_t bytes = sysconf_bytes(_SC_LEVEL1_DCACHE_SIZE);
#else
  static const std::size_t bytes = 0;
#endif
  return bytes;
}

std::size_t l2_cache_bytes() {
#if defined(_SC_LEVEL2_CACHE_SIZE)
  static const std::size_t bytes = sysconf_bytes(_SC_LEVEL2_CACHE_SIZE);
#else
  static const std::size_t bytes = 0;
#endif
  return bytes;
}

std::size_t pow2_floor(std::size_t value) {
  std::size_t result = 1;
  while (result * 2 <= value) {
    result *= 2;
  }
  return result;
}

/// Inner matmul kernel: c[j] += a * b[j].  Routed through the SIMD
/// layer for the two instantiated element types; the backend is
/// bit-identical to this scalar loop (exact ring arithmetic; no-FMA
/// doubles — see numeric/simd.hpp).
template <typename T>
inline void axpy_row(T* c, T a, const T* b, std::size_t n) {
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    simd::ring_axpy(c, a, b, n);
  } else if constexpr (std::is_same_v<T, double>) {
    simd::real_axpy(c, a, b, n);
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      c[j] += a * b[j];
    }
  }
}

/// Elementwise product row: c[j] = a[j] * b[j].
template <typename T>
inline void mul_row(T* c, const T* a, const T* b, std::size_t n) {
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    simd::ring_mul(c, a, b, n);
  } else if constexpr (std::is_same_v<T, double>) {
    simd::real_mul(c, a, b, n);
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      c[j] = a[j] * b[j];
    }
  }
}

/// A multi-chunk job: workers and the submitting caller claim chunk
/// indices from `next` until exhausted; `done` (guarded by `mutex`)
/// tracks completion for the caller's wait.
struct Job {
  std::function<void(std::size_t)> run_chunk;
  std::size_t total = 0;
  std::atomic<std::size_t> next{0};

  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t done = 0;
  std::exception_ptr error;

  void execute(std::size_t chunk) {
    std::exception_ptr failure;
    try {
      run_chunk(chunk);
    } catch (...) {
      failure = std::current_exception();
    }
    // On failure, cancel the chunks nobody has claimed yet: exchange
    // returns the claim counter at cancellation time, so chunks
    // [prev, total) will never run and must be accounted as done or
    // the submitter would wait forever.  Claims issued before the
    // exchange all execute (and count themselves); claims after it
    // see >= total and are no-ops.
    std::size_t cancelled = 0;
    if (failure) {
      const std::size_t prev = next.exchange(total, std::memory_order_relaxed);
      if (prev < total) {
        cancelled = total - prev;
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (failure && !error) {
      error = failure;
    }
    done += 1 + cancelled;
    if (done >= total) {
      done_cv.notify_all();
    }
  }
};

/// Persistent process-wide pool.  Workers are started lazily, up to
/// one less than the highest parallelism any kernel call has asked
/// for (the caller itself is always the +1).  Idle workers block on a
/// condition variable; multiple concurrent parallel sections (e.g.
/// three computing-party actor threads issuing matmuls at once) share
/// the same queue safely.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    queue_cv_.notify_all();
    for (auto& worker : workers_) {
      worker.join();
    }
  }

  /// Run `total` chunks of `job`; the caller participates and returns
  /// only when every chunk finished.
  void run(const std::shared_ptr<Job>& job, int max_workers) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ensure_workers(max_workers);
      jobs_.push_back(job);
    }
    queue_cv_.notify_all();

    std::size_t chunk;
    while ((chunk = job->next.fetch_add(1, std::memory_order_relaxed)) <
           job->total) {
      caller_chunks_counter().add(1);
      job->execute(chunk);
    }

    // Time only the wait for chunks still running on workers — that
    // tail is the pool's load-balance quality signal.
    const bool timed = obs::metrics_enabled();
    const std::uint64_t wait_start_us = timed ? obs::now_us() : 0;
    std::unique_lock<std::mutex> lock(job->mutex);
    job->done_cv.wait(lock, [&] { return job->done >= job->total; });
    if (timed) {
      caller_wait_histogram().observe(obs::now_us() - wait_start_us);
    }
    if (job->error) {
      std::rethrow_exception(job->error);
    }
  }

 private:
  ThreadPool() = default;

  void ensure_workers(int wanted) {
    // Cap the pool well above any sane configuration but below
    // anything that could run away.
    constexpr int kMaxWorkers = 64;
    wanted = std::min(wanted, kMaxWorkers);
    while (static_cast<int>(workers_.size()) < wanted) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    t_in_pool_worker = true;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const bool timed = obs::metrics_enabled();
      const std::uint64_t idle_start_us = timed ? obs::now_us() : 0;
      queue_cv_.wait(lock, [&] { return stopping_ || !jobs_.empty(); });
      if (timed) {
        worker_idle_histogram().observe(obs::now_us() - idle_start_us);
      }
      if (stopping_) {
        return;
      }
      const std::shared_ptr<Job> job = jobs_.front();
      const std::size_t chunk =
          job->next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= job->total) {
        // Exhausted: drop it from the queue (it may already be gone if
        // another worker raced us past the same state).
        if (!jobs_.empty() && jobs_.front() == job) {
          jobs_.pop_front();
        }
        continue;
      }
      lock.unlock();
      worker_chunks_counter().add(1);
      job->execute(chunk);
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

std::mutex& config_mutex() {
  static std::mutex mutex;
  return mutex;
}

KernelConfig& config_storage() {
  static KernelConfig config = KernelConfig::from_env();
  return config;
}

/// Deterministic chunk boundary: chunk c of n covers
/// [c*count/n, (c+1)*count/n).
std::size_t chunk_bound(std::size_t count, std::size_t chunks,
                        std::size_t index) {
  return count / chunks * index + count % chunks * index / chunks;
}

void run_chunked(const KernelConfig& config, std::size_t count,
                 std::size_t grain,
                 const std::function<void(std::size_t, std::size_t,
                                          std::size_t)>& body) {
  if (count == 0) {
    return;
  }
  const std::size_t chunks = plan_chunk_count(config, count, grain);
  if (chunks <= 1 || t_in_pool_worker) {
    inline_runs_counter().add(1);
    body(0, 0, count);
    return;
  }
  jobs_counter().add(1);
  auto job = std::make_shared<Job>();
  job->total = chunks;
  job->run_chunk = [&body, count, chunks](std::size_t chunk) {
    body(chunk, chunk_bound(count, chunks, chunk),
         chunk_bound(count, chunks, chunk + 1));
  };
  ThreadPool::instance().run(job, static_cast<int>(chunks) - 1);
}

}  // namespace

KernelConfig KernelConfig::from_env() {
  KernelConfig config;
  // Derive block sizes from the real cache hierarchy when the OS
  // reports it: the packed B panel (block_k x block_n) should occupy
  // about 1/16 of L2 (it is re-streamed once per block_m rows and
  // shares L2 with the A rows and C tile), and the A row slice
  // (block_k elements per row, block_m rows) should sit in L1d.  On a
  // 48K/2M part this lands on the tuned 128/128 panel; the compiled
  // 64/128/128 fallbacks hold where sysconf knows nothing.  Block
  // sizes never change results (see kernels.hpp).
  const std::size_t l2 = l2_cache_bytes();
  if (l2 > 0) {
    const std::size_t panel =
        pow2_floor(static_cast<std::size_t>(std::sqrt(
            static_cast<double>(l2) / (16.0 * sizeof(std::uint64_t)))));
    config.block_k = std::clamp<std::size_t>(panel, 64, 256);
    config.block_n = config.block_k;
  }
  const std::size_t l1d = l1d_cache_bytes();
  if (l1d > 0) {
    config.block_m = std::clamp<std::size_t>(
        pow2_floor(l1d / (sizeof(std::uint64_t) * config.block_k)), 16, 256);
  }
  config.threads = static_cast<int>(
      env_size("TRUSTDDL_THREADS", static_cast<std::size_t>(config.threads)));
  config.block_m = env_size("TRUSTDDL_BLOCK_M", config.block_m);
  config.block_k = env_size("TRUSTDDL_BLOCK_K", config.block_k);
  config.block_n = env_size("TRUSTDDL_BLOCK_N", config.block_n);
  config.grain = env_size("TRUSTDDL_GRAIN", config.grain);
  config.matmul_cutoff_bytes =
      env_size("TRUSTDDL_MATMUL_CUTOFF", config.matmul_cutoff_bytes);
  return config;
}

int KernelConfig::resolved_threads() const {
  if (threads > 0) {
    return threads;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

KernelConfig global_config() {
  std::lock_guard<std::mutex> lock(config_mutex());
  return config_storage();
}

void set_global_config(const KernelConfig& config) {
  std::lock_guard<std::mutex> lock(config_mutex());
  config_storage() = config;
}

std::size_t plan_chunk_count(const KernelConfig& config, std::size_t count,
                             std::size_t grain) {
  if (count == 0) {
    return 0;
  }
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t by_grain = (count + grain - 1) / grain;
  const auto by_threads =
      static_cast<std::size_t>(std::max(config.resolved_threads(), 1));
  return std::max<std::size_t>(1, std::min(by_grain, by_threads));
}

void parallel_for(const KernelConfig& config, std::size_t count,
                  std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  run_chunked(config, count, grain,
              [&body](std::size_t, std::size_t lo, std::size_t hi) {
                body(lo, hi);
              });
}

void parallel_for(std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for(global_config(), count, grain, body);
}

void parallel_chunks(
    const KernelConfig& config, std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  run_chunked(config, count, grain, body);
}

template <typename T>
Tensor<T> matmul_naive(const Tensor<T>& lhs, const Tensor<T>& rhs) {
  TRUSTDDL_REQUIRE(lhs.rank() == 2 && rhs.rank() == 2,
                   "matmul requires rank-2 tensors");
  TRUSTDDL_REQUIRE(lhs.cols() == rhs.rows(),
                   "matmul inner dimensions differ: " +
                       shape_to_string(lhs.shape()) + " x " +
                       shape_to_string(rhs.shape()));
  const std::size_t m = lhs.rows();
  const std::size_t k = lhs.cols();
  const std::size_t n = rhs.cols();
  Tensor<T> out(Shape{m, n});
  const T* a = lhs.data();
  const T* b = rhs.data();
  T* c = out.data();
  // i-k-j loop order for contiguous inner access.  The zero-skip
  // predates the SIMD layer and stays ahead of the axpy call so both
  // paths see identical work (im2col output is zero-heavy).
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const T a_ip = a[i * k + p];
      if (a_ip == T{}) {
        continue;
      }
      axpy_row(c + i * n, a_ip, b + p * n, n);
    }
  }
  return out;
}

template <typename T>
Tensor<T> matmul_naive_parallel(const KernelConfig& config,
                                const Tensor<T>& lhs, const Tensor<T>& rhs) {
  TRUSTDDL_REQUIRE(lhs.rank() == 2 && rhs.rank() == 2,
                   "matmul requires rank-2 tensors");
  TRUSTDDL_REQUIRE(lhs.cols() == rhs.rows(),
                   "matmul inner dimensions differ: " +
                       shape_to_string(lhs.shape()) + " x " +
                       shape_to_string(rhs.shape()));
  const std::size_t m = lhs.rows();
  const std::size_t k = lhs.cols();
  const std::size_t n = rhs.cols();
  Tensor<T> out(Shape{m, n});
  const T* a = lhs.data();
  const T* b = rhs.data();
  T* c = out.data();
  // Chunk across output rows: each C row is written by exactly one
  // chunk and accumulates p ascending exactly like matmul_naive, so
  // the result is bit-identical to the serial loop at any thread
  // count.  grain_rows keeps each chunk above config.grain
  // multiply-adds.
  const std::size_t grain_rows =
      std::max<std::size_t>(1, config.grain / std::max<std::size_t>(k * n, 1));
  parallel_for(config, m, grain_rows, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t p = 0; p < k; ++p) {
        const T a_ip = a[i * k + p];
        if (a_ip == T{}) {
          continue;
        }
        axpy_row(c + i * n, a_ip, b + p * n, n);
      }
    }
  });
  return out;
}

namespace {

/// The RHS packed into column panels: panel jb holds columns
/// [jb*block_n, ...) of B contiguously, row-major within the panel, so
/// the innermost kernel loop streams both the panel row and the C row.
template <typename T>
struct PackedRhs {
  std::vector<T> data;
  std::size_t k = 0;
  std::size_t n = 0;
  std::size_t block_n = 0;

  const T* panel(std::size_t jb) const {
    return data.data() + jb * block_n * k;
  }
  std::size_t panel_cols(std::size_t j0) const {
    return std::min(block_n, n - j0);
  }
};

template <typename T>
PackedRhs<T> pack_rhs(const KernelConfig& config, const T* b, std::size_t k,
                      std::size_t n) {
  PackedRhs<T> packed;
  packed.k = k;
  packed.n = n;
  packed.block_n = std::max<std::size_t>(config.block_n, 8);
  const std::size_t panels = (n + packed.block_n - 1) / packed.block_n;
  packed.data.resize(panels * packed.block_n * k);
  // Pack panels in parallel: each panel writes a disjoint region; a
  // ragged last panel is zero-padded (the kernel never reads the pad,
  // but keeping the stride uniform simplifies addressing).
  parallel_for(config, panels, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t jb = lo; jb < hi; ++jb) {
      const std::size_t j0 = jb * packed.block_n;
      const std::size_t width = packed.panel_cols(j0);
      T* dst = packed.data.data() + jb * packed.block_n * k;
      for (std::size_t p = 0; p < k; ++p) {
        const T* src = b + p * n + j0;
        T* row = dst + p * packed.block_n;
        std::copy(src, src + width, row);
        std::fill(row + width, row + packed.block_n, T{});
      }
    }
  });
  return packed;
}

/// Blocked kernel over a row range of C.  Accumulation order for every
/// C element is p ascending (kb blocks ascend, p ascends within each
/// block), independent of the thread count and of the row chunking —
/// this is what makes the double path bit-identical across thread
/// counts.
template <typename T>
void matmul_rows(const KernelConfig& config, const T* a,
                 const PackedRhs<T>& packed, T* c, std::size_t row_lo,
                 std::size_t row_hi, std::size_t k, std::size_t n) {
  const std::size_t block_m = std::max<std::size_t>(config.block_m, 1);
  const std::size_t block_k = std::max<std::size_t>(config.block_k, 1);
  const std::size_t block_n = packed.block_n;
  for (std::size_t i0 = row_lo; i0 < row_hi; i0 += block_m) {
    const std::size_t i1 = std::min(i0 + block_m, row_hi);
    for (std::size_t j0 = 0; j0 < n; j0 += block_n) {
      const std::size_t width = packed.panel_cols(j0);
      const T* panel = packed.panel(j0 / block_n);
      for (std::size_t p0 = 0; p0 < k; p0 += block_k) {
        const std::size_t p1 = std::min(p0 + block_k, k);
        for (std::size_t i = i0; i < i1; ++i) {
          const T* a_row = a + i * k;
          T* c_row = c + i * n + j0;
          for (std::size_t p = p0; p < p1; ++p) {
            axpy_row(c_row, a_row[p], panel + p * block_n, width);
          }
        }
      }
    }
  }
}

}  // namespace

template <typename T>
Tensor<T> matmul_blocked(const KernelConfig& config, const Tensor<T>& lhs,
                         const Tensor<T>& rhs) {
  TRUSTDDL_REQUIRE(lhs.rank() == 2 && rhs.rank() == 2,
                   "matmul requires rank-2 tensors");
  TRUSTDDL_REQUIRE(lhs.cols() == rhs.rows(),
                   "matmul inner dimensions differ: " +
                       shape_to_string(lhs.shape()) + " x " +
                       shape_to_string(rhs.shape()));
  const std::size_t m = lhs.rows();
  const std::size_t k = lhs.cols();
  const std::size_t n = rhs.cols();
  Tensor<T> out(Shape{m, n});
  if (m == 0 || k == 0 || n == 0) {
    return out;
  }
  const PackedRhs<T> packed = pack_rhs(config, rhs.data(), k, n);
  const T* a = lhs.data();
  T* c = out.data();
  // Parallelise across output rows; grain keeps each chunk's share of
  // the k*n work above config.grain multiply-adds.
  const std::size_t per_row = std::max<std::size_t>(k * n / std::max<std::size_t>(m, 1), 1);
  const std::size_t grain_rows =
      std::max<std::size_t>(1, config.grain / std::max<std::size_t>(per_row, 1));
  parallel_for(config, m, grain_rows, [&](std::size_t lo, std::size_t hi) {
    matmul_rows(config, a, packed, c, lo, hi, k, n);
  });
  return out;
}

namespace {

/// L2-derived crossover fallback: panel packing starts paying once
/// the RHS no longer fits in L2.
std::size_t default_cutoff_bytes() {
  const std::size_t l2 = l2_cache_bytes();
  return l2 > 0 ? l2 : (1u << 21);
}

/// One-shot startup calibration of the naive/blocked crossover.
/// Times both kernels serially (SIMD active, threads = 1 so the probe
/// measures per-core kernel quality, which is what the shape-only
/// dispatch rule has to rank) on square-RHS probes straddling L2 and
/// places the cutoff at the geometric mean of the last naive-win and
/// first blocked-win RHS footprints.  Budget-capped: under sanitizers
/// or heavy load the probes are abandoned and the L2 default rules.
std::size_t calibrate_cutoff_bytes() {
  using clock = std::chrono::steady_clock;
  constexpr double kBudgetSeconds = 0.20;
  constexpr std::size_t kProbeRows = 32;
  constexpr std::size_t kProbeDims[] = {192, 384, 768, 1280};

  KernelConfig probe_config;  // compiled block fallbacks, serial
  probe_config.threads = 1;

  const auto seconds_since = [](clock::time_point start) {
    return std::chrono::duration<double>(clock::now() - start).count();
  };
  const auto fill = [](Tensor<std::uint64_t>& tensor) {
    std::uint64_t value = 0x9E3779B97F4A7C15ull;
    for (auto& element : tensor.values()) {
      element = value;
      value = value * 6364136223846793005ull + 1442695040888963407ull;
    }
  };

  const auto start = clock::now();
  std::size_t last_naive_win = 0;
  for (std::size_t dim : kProbeDims) {
    Tensor<std::uint64_t> a(Shape{kProbeRows, dim});
    Tensor<std::uint64_t> b(Shape{dim, dim});
    fill(a);
    fill(b);
    double naive_s = 1e30;
    double blocked_s = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
      auto t0 = clock::now();
      const auto naive = matmul_naive_parallel(probe_config, a, b);
      naive_s = std::min(naive_s, seconds_since(t0));
      t0 = clock::now();
      const auto blocked = matmul_blocked(probe_config, a, b);
      blocked_s = std::min(blocked_s, seconds_since(t0));
      // Keep the results alive past the timers.
      if (naive.data()[0] + blocked.data()[0] == 0x5a5a5a5a5a5a5a5aull) {
        std::abort();
      }
    }
    const std::size_t rhs_bytes = dim * dim * sizeof(std::uint64_t);
    if (blocked_s < naive_s * 0.95) {
      // First shape where blocking clearly wins: put the crossover
      // between it and the last naive win (or L2/2 when blocking wins
      // from the first probe).
      const double lo = static_cast<double>(
          last_naive_win > 0 ? last_naive_win : default_cutoff_bytes() / 2);
      return std::clamp(static_cast<std::size_t>(std::sqrt(
                            lo * static_cast<double>(rhs_bytes))),
                        default_cutoff_bytes() / 2,
                        default_cutoff_bytes() * 2);
    }
    last_naive_win = rhs_bytes;
    if (seconds_since(start) > kBudgetSeconds) {
      // Out of budget (sanitizer build or loaded machine): trust what
      // we saw so far — naive won everywhere probed, so the crossover
      // is at least the largest probed footprint (or the L2 default
      // if that is bigger).
      break;
    }
  }
  // The short-row probes can overstate naive (a 32-row output never
  // amortizes panel packing the way a square product does), so the
  // calibrated crossover may move the L2 default by at most one
  // octave either way; far-from-L2 verdicts are probe artifacts, not
  // machine properties.  TRUSTDDL_MATMUL_CUTOFF pins past this clamp.
  const std::size_t floor_bytes = default_cutoff_bytes() / 2;
  const std::size_t ceil_bytes = default_cutoff_bytes() * 2;
  return std::clamp(std::max(last_naive_win, default_cutoff_bytes()),
                    floor_bytes, ceil_bytes);
}

std::size_t auto_cutoff_bytes() {
  static const std::size_t cached = [] {
    const char* raw = std::getenv("TRUSTDDL_CALIBRATE");
    if (raw != nullptr && std::strcmp(raw, "0") == 0) {
      return default_cutoff_bytes();
    }
    return calibrate_cutoff_bytes();
  }();
  return cached;
}

}  // namespace

std::size_t effective_matmul_cutoff_bytes(const KernelConfig& config) {
  if (config.matmul_cutoff_bytes > 0) {
    return config.matmul_cutoff_bytes;
  }
  return auto_cutoff_bytes();
}

template <typename T>
Tensor<T> matmul(const KernelConfig& config, const Tensor<T>& lhs,
                 const Tensor<T>& rhs) {
  // Shape-only dispatch (identical at every thread count): the
  // row-parallel naive loop until the RHS footprint outgrows the
  // auto-tuned crossover, the packed blocked kernel beyond it.  PR 3's
  // flop-count cutoff sent every skinny Table I product (n = 10) to
  // the blocked path, which loses 1.4-2.3x there because panel
  // packing pads 10 real columns to a full uniform-stride panel.
  if (lhs.rank() == 2 && rhs.rank() == 2) {
    const std::size_t rhs_bytes = rhs.rows() * rhs.cols() * sizeof(T);
    if (rhs_bytes <= effective_matmul_cutoff_bytes(config)) {
      return matmul_naive_parallel(config, lhs, rhs);
    }
  }
  return matmul_blocked(config, lhs, rhs);
}

template <typename T>
Tensor<T> matmul(const Tensor<T>& lhs, const Tensor<T>& rhs) {
  return matmul(global_config(), lhs, rhs);
}

template <typename T>
Tensor<T> hadamard_parallel(const KernelConfig& config, const Tensor<T>& lhs,
                            const Tensor<T>& rhs) {
  TRUSTDDL_REQUIRE(lhs.same_shape(rhs), "hadamard: shape mismatch");
  Tensor<T> out(lhs.shape());
  const T* a = lhs.data();
  const T* b = rhs.data();
  T* c = out.data();
  parallel_for(config, out.size(), config.grain,
               [&](std::size_t lo, std::size_t hi) {
                 mul_row(c + lo, a + lo, b + lo, hi - lo);
               });
  return out;
}

template <typename T>
Tensor<T> hadamard_parallel(const Tensor<T>& lhs, const Tensor<T>& rhs) {
  return hadamard_parallel(global_config(), lhs, rhs);
}

template Tensor<double> matmul_naive(const Tensor<double>&,
                                     const Tensor<double>&);
template Tensor<std::uint64_t> matmul_naive(const Tensor<std::uint64_t>&,
                                            const Tensor<std::uint64_t>&);
template Tensor<double> matmul_naive_parallel(const KernelConfig&,
                                              const Tensor<double>&,
                                              const Tensor<double>&);
template Tensor<std::uint64_t> matmul_naive_parallel(
    const KernelConfig&, const Tensor<std::uint64_t>&,
    const Tensor<std::uint64_t>&);
template Tensor<double> matmul_blocked(const KernelConfig&,
                                       const Tensor<double>&,
                                       const Tensor<double>&);
template Tensor<std::uint64_t> matmul_blocked(const KernelConfig&,
                                              const Tensor<std::uint64_t>&,
                                              const Tensor<std::uint64_t>&);
template Tensor<double> matmul(const KernelConfig&, const Tensor<double>&,
                               const Tensor<double>&);
template Tensor<std::uint64_t> matmul(const KernelConfig&,
                                      const Tensor<std::uint64_t>&,
                                      const Tensor<std::uint64_t>&);
template Tensor<double> matmul(const Tensor<double>&, const Tensor<double>&);
template Tensor<std::uint64_t> matmul(const Tensor<std::uint64_t>&,
                                      const Tensor<std::uint64_t>&);
template Tensor<double> hadamard_parallel(const KernelConfig&,
                                          const Tensor<double>&,
                                          const Tensor<double>&);
template Tensor<std::uint64_t> hadamard_parallel(const KernelConfig&,
                                                 const Tensor<std::uint64_t>&,
                                                 const Tensor<std::uint64_t>&);
template Tensor<double> hadamard_parallel(const Tensor<double>&,
                                          const Tensor<double>&);
template Tensor<std::uint64_t> hadamard_parallel(const Tensor<std::uint64_t>&,
                                                 const Tensor<std::uint64_t>&);

}  // namespace trustddl::kernels
