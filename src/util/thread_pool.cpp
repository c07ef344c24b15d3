#include "util/thread_pool.hpp"

#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"

#include <atomic>
#include <exception>
#include <optional>

namespace inframe::util {

namespace {

// Set while a pool worker (or the caller inside parallel_for) is executing
// chunks. Nested parallel_for calls from kernel code then degrade to the
// serial inline path instead of deadlocking on the pool.
thread_local bool in_parallel_region = false;

} // namespace

struct Thread_pool::Job {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t grain = 1;
    std::int64_t chunk_count = 0;
    const Range_fn* fn = nullptr;
    std::atomic<std::int64_t> next{0};
    std::atomic<std::int64_t> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
};

int Thread_pool::hardware_threads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

Thread_pool::Thread_pool(int threads)
{
    if (threads <= 0) threads = hardware_threads();
    workers_.reserve(static_cast<std::size_t>(threads - 1));
    for (int i = 1; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

Thread_pool::~Thread_pool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
}

void Thread_pool::worker_loop()
{
    std::uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
            if (stop_) return;
            seen = generation_;
            job = job_;
        }
        if (!job) continue;
        in_parallel_region = true;
        run_chunks(*job);
        in_parallel_region = false;
    }
}

void Thread_pool::run_chunks(Job& job)
{
    std::int64_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.chunk_count) return;
    // One span per participation in a job (not per chunk — chunks are too
    // fine to trace without distorting the timings being measured). It
    // closes before this lane reports its last chunk done, so once the
    // caller of parallel_for sees every chunk done no worker records into
    // telemetry for this job: a snapshot or uninstall right after the call
    // cannot race with a late span.
    std::optional<telemetry::Scoped_span> span(std::in_place, "pool.batch");
    while (chunk < job.chunk_count) {
        if (!job.failed.load(std::memory_order_acquire)) {
            const std::int64_t b = job.begin + chunk * job.grain;
            const std::int64_t e = std::min<std::int64_t>(job.end, b + job.grain);
            try {
                (*job.fn)(b, e);
            } catch (...) {
                std::lock_guard<std::mutex> lock(job.error_mutex);
                if (!job.error) job.error = std::current_exception();
                job.failed.store(true, std::memory_order_release);
            }
        }
        const std::int64_t next = job.next.fetch_add(1, std::memory_order_relaxed);
        if (next >= job.chunk_count) span.reset();
        // Every claimed chunk counts as done even when skipped after a
        // failure, so the completion count always reaches chunk_count.
        const std::int64_t finished = job.done.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (finished == job.chunk_count) {
            // Wake the caller blocked in parallel_for. Taking the pool
            // mutex pairs this notify with the caller's predicate check.
            std::lock_guard<std::mutex> lock(mutex_);
            done_.notify_all();
        }
        chunk = next;
    }
}

void Thread_pool::parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                               const Range_fn& fn)
{
    if (end <= begin) return;
    if (grain < 1) grain = 1;
    const std::int64_t chunk_count = (end - begin + grain - 1) / grain;

    // Serial path: one lane, a single chunk, or already inside a parallel
    // region. Chunks still execute in ascending order, which together with
    // the merge-in-chunk-order reduction contract makes the serial and
    // threaded paths bit-identical.
    if (thread_count() == 1 || chunk_count == 1 || in_parallel_region) {
        for (std::int64_t chunk = 0; chunk < chunk_count; ++chunk) {
            const std::int64_t b = begin + chunk * grain;
            const std::int64_t e = std::min<std::int64_t>(end, b + grain);
            fn(b, e);
        }
        return;
    }

    auto job = std::make_shared<Job>();
    job->begin = begin;
    job->end = end;
    job->grain = grain;
    job->chunk_count = chunk_count;
    job->fn = &fn;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = job;
        ++generation_;
    }
    wake_.notify_all();

    in_parallel_region = true;
    run_chunks(*job);
    in_parallel_region = false;

    if (job->done.load(std::memory_order_acquire) != chunk_count) {
        // Workers are still draining their claimed chunks; done_ is
        // notified by the last finisher below via the shared mutex.
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return job->done.load(std::memory_order_acquire) == chunk_count;
        });
    }
    {
        // Drop the pool's reference so the job dies with this call.
        std::lock_guard<std::mutex> lock(mutex_);
        if (job_ == job) job_.reset();
    }
    if (job->error) std::rethrow_exception(job->error);
}

// --- Ambient context ------------------------------------------------------

namespace {

std::atomic<int> g_requested_threads{1};

// Guards pool construction/replacement: the stage-graph executor
// (core::Pipeline) calls ambient parallel_for from several stage threads
// at once, and the first calls may race to build the pool.
std::mutex g_pool_mutex;
std::unique_ptr<Thread_pool> g_pool;

Thread_pool* ambient_pool()
{
    const int requested = g_requested_threads.load(std::memory_order_relaxed);
    if (requested <= 1) return nullptr;
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool || g_pool->thread_count() != requested) {
        g_pool.reset(); // join old workers before spawning the new pool
        g_pool = std::make_unique<Thread_pool>(requested);
    }
    return g_pool.get();
}

} // namespace

int resolve_threads(int requested)
{
    expects(requested >= 0, "thread count must be >= 0 (0 = hardware concurrency)");
    if (requested == 0) return Thread_pool::hardware_threads();
    return requested;
}

void set_parallel_threads(int threads)
{
    g_requested_threads.store(resolve_threads(threads), std::memory_order_relaxed);
}

int parallel_threads()
{
    return g_requested_threads.load(std::memory_order_relaxed);
}

Parallel_scope::Parallel_scope(int threads)
    : previous_(g_requested_threads.load(std::memory_order_relaxed))
{
    set_parallel_threads(threads);
}

Parallel_scope::~Parallel_scope()
{
    g_requested_threads.store(previous_, std::memory_order_relaxed);
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain, const Range_fn& fn)
{
    Thread_pool* pool = ambient_pool();
    if (pool == nullptr) {
        if (end <= begin) return;
        if (grain < 1) grain = 1;
        // Same chunked traversal as the pool's serial path.
        for (std::int64_t b = begin; b < end; b += grain) {
            fn(b, std::min<std::int64_t>(end, b + grain));
        }
        return;
    }
    pool->parallel_for(begin, end, grain, fn);
}

} // namespace inframe::util
