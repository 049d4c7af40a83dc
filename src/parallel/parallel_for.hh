/**
 * @file
 * Deterministic data-parallel loops on top of ThreadPool.
 *
 * Every primitive here guarantees *bitwise-identical results at any
 * worker count*, which is what lets the estimator test suite assert
 * exact equality between serial and parallel EM fits:
 *
 *  - Work is split into chunks whose boundaries depend only on the
 *    problem size and the caller-supplied grain — never on the
 *    worker count or on scheduling order.
 *  - parallelReduce combines per-chunk partials along a fixed binary
 *    tree over the chunk indices (stride doubling), so the
 *    floating-point accumulation order is a function of the chunk
 *    count alone. The zero-worker inline path executes the same
 *    chunking and the same tree.
 *  - Chunks may be *executed* in any order on any thread; only
 *    writes to disjoint slots and the fixed-order combine are used
 *    to publish results.
 *
 * Exception behaviour: the first exception thrown by a chunk body is
 * captured and rethrown in the calling thread after every in-flight
 * chunk has finished; remaining chunks still run (cancellation would
 * make partial results scheduling-dependent).
 *
 * Nesting: when called from inside a pool worker these loops run
 * inline (same chunking), so parallel algorithms compose without
 * deadlock or over-subscription.
 */

#ifndef LEO_PARALLEL_PARALLEL_FOR_HH
#define LEO_PARALLEL_PARALLEL_FOR_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "linalg/error.hh"
#include "parallel/thread_pool.hh"

namespace leo::parallel
{

/** @return Number of chunks a range of n items splits into. */
inline std::size_t
chunkCount(std::size_t n, std::size_t grain)
{
    if (grain == 0)
        grain = 1;
    return (n + grain - 1) / grain;
}

/**
 * Run body(begin, end) over [0, n) split into ceil(n / grain)
 * chunks, fanned across the pool; the calling thread participates.
 *
 * The body runs concurrently on several threads and must only touch
 * disjoint state per chunk (e.g. slot writes indexed by position).
 *
 * @param pool  Pool whose workers help out (0 workers = inline).
 * @param n     Number of items.
 * @param grain Items per chunk (0 is treated as 1). Chunk layout is
 *              independent of the worker count — the determinism
 *              anchor.
 * @param body  Callable (std::size_t begin, std::size_t end).
 */
template <typename Body>
void
parallelForChunked(ThreadPool &pool, std::size_t n, std::size_t grain,
                   Body &&body)
{
    if (n == 0)
        return;
    if (grain == 0)
        grain = 1;
    const std::size_t chunks = (n + grain - 1) / grain;
    auto run_chunk = [&](std::size_t c) {
        const std::size_t begin = c * grain;
        body(begin, std::min(n, begin + grain));
    };

    const std::size_t helpers =
        std::min(pool.workerCount(), chunks - 1);
    if (helpers == 0 || ThreadPool::insideWorker()) {
        for (std::size_t c = 0; c < chunks; ++c)
            run_chunk(c);
        return;
    }

    struct Shared
    {
        std::atomic<std::size_t> next{0};
        std::mutex mutex;
        std::condition_variable cv;
        std::size_t helpers_done = 0;
        std::exception_ptr error;
    } shared;

    auto drain = [&]() {
        for (;;) {
            const std::size_t c =
                shared.next.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunks)
                return;
            try {
                run_chunk(c);
            } catch (...) {
                std::lock_guard<std::mutex> lock(shared.mutex);
                if (!shared.error)
                    shared.error = std::current_exception();
            }
        }
    };

    for (std::size_t h = 0; h < helpers; ++h) {
        pool.post([&shared, &drain]() {
            drain();
            // Notify while holding the mutex: `shared` lives on the
            // caller's stack, and the caller may destroy it as soon
            // as it observes the final helpers_done. Holding the
            // lock across the notify keeps the caller from waking,
            // re-acquiring and returning before the signal call has
            // finished touching the condition variable.
            std::lock_guard<std::mutex> lock(shared.mutex);
            ++shared.helpers_done;
            shared.cv.notify_one();
        });
    }
    drain();
    {
        std::unique_lock<std::mutex> lock(shared.mutex);
        shared.cv.wait(lock, [&]() {
            return shared.helpers_done == helpers;
        });
    }
    if (shared.error)
        std::rethrow_exception(shared.error);
}

/**
 * Run body(i) for every i in [0, n), one item per chunk.
 */
template <typename Body>
void
parallelFor(ThreadPool &pool, std::size_t n, Body &&body)
{
    parallelForChunked(pool, n, 1,
                       [&](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i)
                               body(i);
                       });
}

/**
 * Deterministic parallel reduction over [0, n).
 *
 * map(begin, end) produces one partial T per chunk (accumulating its
 * items in index order); the partials are then folded pairwise along
 * a fixed stride-doubling binary tree: combine(parts[i],
 * parts[i + stride]) for stride = 1, 2, 4, ... The topology depends
 * only on the chunk count, so the result — including floating-point
 * rounding — is identical at every worker count, and the tree levels
 * themselves run in parallel.
 *
 * Library code calls parallelReduceInto; this allocating form stays
 * as the reference its bitwise tests (parallel_test) compare against.
 *
 * @param pool    Pool to fan across (0 workers = inline, same tree).
 * @param n       Number of items; must be positive.
 * @param grain   Items per leaf chunk (0 treated as 1).
 * @param map     Callable (begin, end) -> T.
 * @param combine Callable (T &into, T &&from); must fold `from` into
 *                `into` (e.g. +=).
 * @return The root of the combine tree.
 */
template <typename T, typename Map, typename Combine>
T
parallelReduce(ThreadPool &pool, std::size_t n, std::size_t grain,
               Map &&map, Combine &&combine)
{
    if (grain == 0)
        grain = 1;
    const std::size_t chunks = chunkCount(n, grain);
    std::vector<std::optional<T>> parts(chunks);
    parallelForChunked(
        pool, chunks, 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t c = begin; c < end; ++c)
                parts[c].emplace(
                    map(c * grain, std::min(n, (c + 1) * grain)));
        });
    for (std::size_t stride = 1; stride < chunks; stride *= 2) {
        const std::size_t pairs =
            (chunks + stride - 1) / (2 * stride);
        parallelForChunked(
            pool, pairs, 1, [&](std::size_t begin, std::size_t end) {
                for (std::size_t p = begin; p < end; ++p) {
                    const std::size_t i = p * 2 * stride;
                    combine(*parts[i], std::move(*parts[i + stride]));
                    parts[i + stride].reset();
                }
            });
    }
    return std::move(*parts[0]);
}

/**
 * Buffer-reusing variant of parallelReduce for hot loops.
 *
 * The caller owns one partial per chunk and passes them as pointers
 * (parts.size() must equal chunkCount(n, grain)); mapInto(begin, end,
 * part) overwrites each partial in place, and the same fixed
 * stride-doubling tree as parallelReduce folds them with
 * combine(into, from). The result lands in *parts[0]. Because the
 * chunk layout and combine topology match parallelReduce exactly,
 * the two produce bitwise-identical results — this one just never
 * touches the heap for the partials.
 *
 * @param pool    Pool to fan across (0 workers = inline, same tree).
 * @param n       Number of items; must be positive.
 * @param grain   Items per leaf chunk (0 treated as 1).
 * @param parts   One pre-allocated partial per chunk.
 * @param mapInto Callable (begin, end, T &part); must overwrite part.
 * @param combine Callable (T &into, const T &from).
 */
template <typename T, typename MapInto, typename Combine>
void
parallelReduceInto(ThreadPool &pool, std::size_t n, std::size_t grain,
                   const std::vector<T *> &parts, MapInto &&mapInto,
                   Combine &&combine)
{
    if (grain == 0)
        grain = 1;
    const std::size_t chunks = chunkCount(n, grain);
    require(parts.size() == chunks,
            "parallelReduceInto: parts/chunk count mismatch");
    parallelForChunked(
        pool, chunks, 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t c = begin; c < end; ++c)
                mapInto(c * grain, std::min(n, (c + 1) * grain),
                        *parts[c]);
        });
    for (std::size_t stride = 1; stride < chunks; stride *= 2) {
        const std::size_t pairs =
            (chunks + stride - 1) / (2 * stride);
        parallelForChunked(
            pool, pairs, 1, [&](std::size_t begin, std::size_t end) {
                for (std::size_t p = begin; p < end; ++p) {
                    const std::size_t i = p * 2 * stride;
                    combine(*parts[i], *parts[i + stride]);
                }
            });
    }
}

} // namespace leo::parallel

#endif // LEO_PARALLEL_PARALLEL_FOR_HH
