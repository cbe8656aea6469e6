// Parallel, deterministic batch evaluation of candidate configurations.
//
// A searcher that proposes independent candidates (an exhaustive chunk, or
// every alternative state of one element in a coordinate sweep) can score
// them concurrently when the evaluation is a pure function of the
// configuration — which the factored channel cache makes true. The
// BatchEvaluator runs a fixed pool of worker threads over each batch and
// is bit-reproducible regardless of thread count:
//
//   - results[i] always corresponds to batch[i] (workers write disjoint
//     slots; the caller folds scores in index order),
//   - each candidate's stochastic behavior (measurement noise, flaky
//     switches) draws from a private util::Rng seeded from the evaluator
//     seed and the candidate's GLOBAL evaluation index — not from a shared
//     stream whose interleaving would depend on scheduling.
//
// Workers claim candidates in contiguous SHARDS rather than one at a
// time: a worker takes the pool mutex once per shard, scores the whole
// shard lock-free against its private arena, then folds its accounting
// back under the lock. Shard size scales with the batch (about four
// shards per worker, floor one), so a 3,000-candidate sweep costs ~32
// lock acquisitions instead of 3,000, while small coordinate batches
// degrade gracefully to the old per-candidate claims. Which worker claims
// which shard never affects the bits: candidate seeds hang off the global
// index and every result lands in its own slot.
//
// Each worker owns one preallocated EvalScratch arena handed to every
// score call, so steady-state sweeps allocate nothing per candidate (see
// control/scratch.hpp). Coordinate sweeps have a second entry point,
// evaluate_coordinate(): the batch is one element's alternative states
// over a fixed base configuration, letting the score callback run the
// cache's incremental delta path (base response + one row-add) instead of
// materializing full candidate configurations.
//
// Thread count resolution: an explicit count wins; otherwise the
// PRESS_THREADS environment variable (clamped to [1, 64]); otherwise
// std::thread::hardware_concurrency(). Setting PRESS_PIN pins worker i to
// CPU i mod hardware_concurrency (Linux; a no-op elsewhere) — useful to
// stop the scheduler migrating workers between cores mid-sweep on
// many-core hosts, which costs both cache warmth and run-to-run timing
// stability. Pinning never affects results, only where they are computed.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "control/scratch.hpp"
#include "obs/trace.hpp"
#include "press/config.hpp"
#include "util/rng.hpp"

namespace press::control {

/// Scores one candidate configuration. `rng` is the candidate's private,
/// deterministically seeded stream; `scratch` the calling worker's arena.
/// Implementations must not touch any other mutable state.
using BatchScoreFn = std::function<double(const surface::Config&,
                                          util::Rng&, EvalScratch&)>;

/// One coordinate sweep: score base-with-element=states[i] for every i,
/// holding the rest of `base` fixed. Pointers stay valid for the duration
/// of the evaluate_coordinate() call that carries them.
struct CoordinateBatch {
    const surface::Config* base = nullptr;
    std::size_t element = 0;
    const std::vector<int>* states = nullptr;
};

/// Scores candidate `state_index` of a coordinate sweep. Same rng and
/// scratch contracts as BatchScoreFn.
using CoordinateScoreFn = std::function<double(
    const CoordinateBatch&, std::size_t state_index, util::Rng&,
    EvalScratch&)>;

/// PRESS_PIN environment toggle for worker-thread CPU affinity: enabled
/// unless unset, empty, "0", "off" or "false" (case-insensitive). Linux
/// only; elsewhere the toggle parses but pinning is a no-op.
bool thread_pinning_enabled();

class BatchEvaluator {
public:
    /// `threads == 0` resolves via resolve_threads(). Workers are created
    /// once and reused across batches.
    BatchEvaluator(BatchScoreFn score, std::uint64_t seed,
                   std::size_t threads = 0);
    ~BatchEvaluator();

    BatchEvaluator(const BatchEvaluator&) = delete;
    BatchEvaluator& operator=(const BatchEvaluator&) = delete;

    /// Optional coordinate-sweep score callback; required before the
    /// first evaluate_coordinate() call.
    void set_coordinate_score(CoordinateScoreFn fn);

    /// Scores every candidate; results[i] is batch[i]'s score. Rethrows
    /// the first exception any worker hit (after the batch drains).
    std::vector<double> evaluate(
        const std::vector<surface::Config>& batch);

    /// Scores every state of a coordinate sweep; results[i] scores
    /// base-with-element=states[i]. Candidates consume global evaluation
    /// indices exactly like evaluate() candidates do, so a search that
    /// mixes both entry points sees one continuous, scheduling-
    /// independent rng stream.
    std::vector<double> evaluate_coordinate(const CoordinateBatch& batch);

    std::size_t num_threads() const { return workers_.size(); }

    /// One worker's accumulated accounting. Tasks is how many candidates
    /// the worker scored; shards how many contiguous claims carried them;
    /// busy_s the wall time spent inside the score callback; idle_s the
    /// wall time spent parked on the work condvar (between batches and
    /// while a batch it could not help with drains).
    struct WorkerStats {
        std::uint64_t tasks = 0;
        std::uint64_t shards = 0;
        double busy_s = 0.0;
        double idle_s = 0.0;
    };

    /// Snapshot of every worker's accounting (index = worker id).
    std::vector<WorkerStats> worker_stats() const;

    /// Scratch-arena accounting summed over workers. Only meaningful
    /// between batches (workers mutate their arenas lock-free while
    /// scoring); grow_events flat across a sweep == the zero-allocation
    /// contract holds.
    struct ArenaStats {
        std::uint64_t grow_events = 0;
        std::size_t bytes_reserved = 0;
    };
    ArenaStats arena_stats() const;

    /// Folds the per-worker accounting into the global metrics registry as
    /// control.batch.worker.<i>.{tasks,busy_s,idle_s} gauges plus
    /// control.batch.threads and control.batch.arena.{grow_events,
    /// bytes_reserved} gauges. Cheap but not free (registry lookups);
    /// callers invoke it once per run/search, not per batch. No-op when
    /// telemetry is disabled.
    void publish_worker_stats() const;

    /// Candidates scored so far — the global index assigned to the next
    /// candidate, which anchors its rng stream.
    std::uint64_t evaluated() const { return base_index_; }

    /// Thread-count policy: `requested` if nonzero, else PRESS_THREADS
    /// from the environment (clamped to [1, 64]), else the hardware
    /// concurrency (at least 1).
    static std::size_t resolve_threads(std::size_t requested);

    /// The per-candidate seed for global evaluation index `index` under
    /// evaluator seed `seed` (splitmix64 mix; exposed for tests).
    static std::uint64_t candidate_seed(std::uint64_t seed,
                                        std::uint64_t index);

    /// Declares how much work one task carries, measured in (candidate x
    /// link) tiles: a single-link sweep has weight 1 (the default), a
    /// multi-link eval over N stacked links weight N. Sharding then
    /// granulates in tiles instead of candidates (see the weighted
    /// shard_size_for overload), so a 32-link batch is claimed in small
    /// enough shards to balance. Scheduling only — never affects bits.
    void set_task_weight(std::size_t tiles_per_task);
    std::size_t task_weight() const { return task_weight_; }

    /// Shard-size policy: about kShardsPerWorker shards per worker, floor
    /// one candidate. Exposed for tests; purely a scheduling knob — the
    /// result bits never depend on it.
    static std::size_t shard_size_for(std::size_t tasks,
                                      std::size_t workers);

    /// Weighted policy: the same target shard count, but a shard is also
    /// capped so one claim never exceeds ~kMaxShardTiles (candidate x
    /// link) tiles of work. Heavy multi-link tasks therefore shard finer
    /// than their candidate count alone suggests, keeping the tail of a
    /// batch balanced across workers.
    static std::size_t shard_size_for(std::size_t tasks, std::size_t workers,
                                      std::size_t task_weight);

private:
    void worker_loop(std::size_t index);
    /// Shared drive-a-batch protocol: publishes `num_tasks` tasks sourced
    /// from batch_/coord_, waits for the drain, rethrows worker errors.
    void run_tasks(std::size_t num_tasks, std::vector<double>& results);

    BatchScoreFn score_;
    CoordinateScoreFn coord_score_;
    std::uint64_t seed_;
    std::uint64_t base_index_ = 0;
    std::size_t task_weight_ = 1;  ///< (candidate x link) tiles per task

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;   ///< workers wait for a batch
    std::condition_variable done_cv_;   ///< caller waits for completion
    /// Exactly one of batch_/coord_ is set while a batch is in flight.
    const std::vector<surface::Config>* batch_ = nullptr;
    const CoordinateBatch* coord_ = nullptr;
    std::vector<double>* results_ = nullptr;
    std::size_t num_tasks_ = 0;  ///< task count of the in-flight batch
    /// The caller's "control.batch.evaluate" span for the current batch;
    /// workers adopt it so their spans join the caller's causal tree.
    obs::TraceContext batch_ctx_;
    std::size_t next_ = 0;        ///< next candidate index to claim
    std::size_t shard_size_ = 1;  ///< claim granularity of this batch
    std::size_t remaining_ = 0;   ///< candidates not yet finished
    std::exception_ptr first_error_;
    bool shutdown_ = false;
    /// Guarded by mutex_: workers only touch their slot while holding the
    /// lock (after a wait returns or between tasks), so no extra atomics
    /// are needed for TSan-clean reads through worker_stats().
    std::vector<WorkerStats> stats_;
    /// One arena per worker, stable addresses for the pool's lifetime;
    /// scratch_[i] is touched only by worker i (lock-free while scoring).
    std::vector<std::unique_ptr<EvalScratch>> scratch_;

    std::vector<std::thread> workers_;
};

}  // namespace press::control
