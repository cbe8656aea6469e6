#include "control/batch.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace press::control {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

}  // namespace

std::size_t BatchEvaluator::shard_size_for(std::size_t tasks,
                                           std::size_t workers) {
    // ~4 shards per worker balances lock traffic against tail imbalance:
    // the last shards are small enough that no worker is left holding a
    // long serial tail while the rest of the pool idles.
    constexpr std::size_t kShardsPerWorker = 4;
    if (tasks == 0 || workers == 0) return 1;
    const std::size_t target = workers * kShardsPerWorker;
    return std::max<std::size_t>(1, (tasks + target - 1) / target);
}

std::size_t BatchEvaluator::shard_size_for(std::size_t tasks,
                                           std::size_t workers,
                                           std::size_t task_weight) {
    const std::size_t base = shard_size_for(tasks, workers);
    if (task_weight <= 1) return base;
    // A shard sized for single-link sweeps turns into a long serial tail
    // when every candidate carries N stacked links of work, so cap one
    // claim at ~kMaxShardTiles (candidate x link) tiles. The floor of one
    // candidate stands: a task is never split across workers (its rng
    // stream spans all of its links).
    constexpr std::size_t kMaxShardTiles = 64;
    const std::size_t cap =
        std::max<std::size_t>(1, kMaxShardTiles / task_weight);
    return std::min(base, cap);
}

void BatchEvaluator::set_task_weight(std::size_t tiles_per_task) {
    std::lock_guard<std::mutex> lock(mutex_);
    PRESS_EXPECTS(batch_ == nullptr && coord_ == nullptr,
                  "set_task_weight() must not race an in-flight batch");
    task_weight_ = std::max<std::size_t>(1, tiles_per_task);
    if (obs::enabled()) {
        obs::MetricsRegistry::global()
            .gauge("control.batch.task_weight")
            .set(static_cast<double>(task_weight_));
    }
}

std::size_t BatchEvaluator::resolve_threads(std::size_t requested) {
    if (requested != 0) return requested;
    // obs::env_threads() owns the PRESS_THREADS policy (clamp to [1, 64])
    // so the run manifest and the evaluator can never disagree about the
    // resolved thread count.
    if (const std::size_t env = obs::env_threads(); env != 0) return env;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::uint64_t BatchEvaluator::candidate_seed(std::uint64_t seed,
                                             std::uint64_t index) {
    // splitmix64 over the (seed, index) pair: cheap, well-distributed, and
    // independent of evaluation order or thread assignment.
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

BatchEvaluator::BatchEvaluator(BatchScoreFn score, std::uint64_t seed,
                               std::size_t threads)
    : score_(std::move(score)), seed_(seed) {
    PRESS_EXPECTS(score_ != nullptr, "score callback required");
    const std::size_t n = resolve_threads(threads);
    stats_.resize(n);
    scratch_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        scratch_.push_back(std::make_unique<EvalScratch>());
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this, i]() { worker_loop(i); });
}

BatchEvaluator::~BatchEvaluator() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void BatchEvaluator::set_coordinate_score(CoordinateScoreFn fn) {
    std::lock_guard<std::mutex> lock(mutex_);
    PRESS_EXPECTS(batch_ == nullptr && coord_ == nullptr,
                  "cannot swap callbacks while a batch is in flight");
    coord_score_ = std::move(fn);
}

void BatchEvaluator::worker_loop(std::size_t index) {
    std::unique_lock<std::mutex> lock(mutex_);
    WorkerStats& stats = stats_[index];
    EvalScratch& scratch = *scratch_[index];
    for (;;) {
        const auto wait_start = std::chrono::steady_clock::now();
        work_cv_.wait(lock, [this]() {
            return shutdown_ || next_ < num_tasks_;
        });
        // Accounted under the lock; the condvar wait itself released it.
        stats.idle_s +=
            seconds_between(wait_start, std::chrono::steady_clock::now());
        if (shutdown_) return;
        if (!(next_ < num_tasks_)) continue;
        // One span per worker per batch participation — not one per
        // candidate, which would flood the span ring on large searches.
        // The worker adopts the caller's evaluate-span context, so the
        // span tree crosses the pool threads; per-candidate latency goes
        // to the control.batch.eval_us histogram instead (lock-free).
        obs::ContextGuard adopt(batch_ctx_);
        obs::TraceSpan batch_span("control.batch.worker_batch");
        while (next_ < num_tasks_) {
            // Claim a contiguous shard under the lock, score it without.
            const std::vector<surface::Config>* batch = batch_;
            const CoordinateBatch* coord = coord_;
            std::vector<double>* results = results_;
            const std::size_t begin = next_;
            const std::size_t end =
                std::min(begin + shard_size_, num_tasks_);
            next_ = end;
            const std::uint64_t base = base_index_;
            lock.unlock();
            double busy = 0.0;
            std::exception_ptr error;
            for (std::size_t i = begin; i < end; ++i) {
                const auto task_start = std::chrono::steady_clock::now();
                double value = 0.0;
                try {
                    util::Rng rng(candidate_seed(seed_, base + i));
                    value = batch ? score_((*batch)[i], rng, scratch)
                                  : coord_score_(*coord, i, rng, scratch);
                } catch (...) {
                    if (!error) error = std::current_exception();
                }
                const auto task_end = std::chrono::steady_clock::now();
                busy += seconds_between(task_start, task_end);
                if (obs::enabled()) {
                    static obs::Histogram& eval_us =
                        obs::MetricsRegistry::global().histogram(
                            "control.batch.eval_us",
                            {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                             500.0, 1000.0, 2000.0, 5000.0, 10000.0});
                    eval_us.observe(
                        seconds_between(task_start, task_end) * 1e6);
                }
                // Slot i belongs to this shard alone; the caller only
                // reads results after observing remaining_ == 0 under the
                // mutex, which orders these plain writes.
                (*results)[i] = value;
            }
            lock.lock();
            stats.tasks += end - begin;
            stats.shards += 1;
            stats.busy_s += busy;
            if (error && !first_error_) first_error_ = error;
            remaining_ -= end - begin;
            if (remaining_ == 0) done_cv_.notify_all();
        }
    }
}

std::vector<BatchEvaluator::WorkerStats> BatchEvaluator::worker_stats()
    const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

BatchEvaluator::ArenaStats BatchEvaluator::arena_stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    ArenaStats total;
    for (const auto& s : scratch_) {
        total.grow_events += s->grow_events;
        total.bytes_reserved += s->bytes_reserved;
    }
    return total;
}

void BatchEvaluator::publish_worker_stats() const {
    if (!obs::enabled()) return;
    const std::vector<WorkerStats> stats = worker_stats();
    const ArenaStats arena = arena_stats();
    auto& registry = obs::MetricsRegistry::global();
    registry.gauge("control.batch.threads")
        .set(static_cast<double>(stats.size()));
    registry.gauge("control.batch.arena.grow_events")
        .set(static_cast<double>(arena.grow_events));
    registry.gauge("control.batch.arena.bytes_reserved")
        .set(static_cast<double>(arena.bytes_reserved));
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const std::string prefix =
            "control.batch.worker." + std::to_string(i);
        registry.gauge(prefix + ".tasks")
            .set(static_cast<double>(stats[i].tasks));
        registry.gauge(prefix + ".shards")
            .set(static_cast<double>(stats[i].shards));
        registry.gauge(prefix + ".busy_s").set(stats[i].busy_s);
        registry.gauge(prefix + ".idle_s").set(stats[i].idle_s);
    }
}

void BatchEvaluator::run_tasks(std::size_t num_tasks,
                               std::vector<double>& results) {
    // The batch's causal anchor: workers adopt this span's context, so
    // their worker_batch spans parent into it across the pool threads.
    obs::TraceSpan span("control.batch.evaluate");
    std::unique_lock<std::mutex> lock(mutex_);
    batch_ctx_ = span.context();
    results_ = &results;
    next_ = 0;
    shard_size_ = shard_size_for(num_tasks, workers_.size(), task_weight_);
    num_tasks_ = num_tasks;
    remaining_ = num_tasks;
    first_error_ = nullptr;
    work_cv_.notify_all();
    done_cv_.wait(lock, [this]() { return remaining_ == 0; });
    batch_ = nullptr;
    coord_ = nullptr;
    results_ = nullptr;
    num_tasks_ = 0;
    batch_ctx_ = obs::TraceContext{};
    base_index_ += num_tasks;
    if (obs::enabled()) {
        static obs::Counter& batches =
            obs::MetricsRegistry::global().counter("control.batch.batches");
        static obs::Counter& evaluations =
            obs::MetricsRegistry::global().counter(
                "control.batch.evaluations");
        // Shards are claimed as deterministic contiguous chunks, so the
        // count is exact regardless of which worker took which shard.
        static obs::Counter& shards = obs::MetricsRegistry::global().counter(
            "control.batch.shard.count");
        batches.add();
        evaluations.add(num_tasks);
        shards.add((num_tasks + shard_size_ - 1) / shard_size_);
    }
    if (first_error_) std::rethrow_exception(first_error_);
}

std::vector<double> BatchEvaluator::evaluate(
    const std::vector<surface::Config>& batch) {
    std::vector<double> results(batch.size(), 0.0);
    if (batch.empty()) return results;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        PRESS_EXPECTS(batch_ == nullptr && coord_ == nullptr,
                      "evaluate() is not reentrant on one evaluator");
        batch_ = &batch;
    }
    run_tasks(batch.size(), results);
    return results;
}

std::vector<double> BatchEvaluator::evaluate_coordinate(
    const CoordinateBatch& batch) {
    PRESS_EXPECTS(batch.base != nullptr && batch.states != nullptr,
                  "coordinate batch must carry a base and states");
    std::vector<double> results(batch.states->size(), 0.0);
    if (batch.states->empty()) return results;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        PRESS_EXPECTS(coord_score_ != nullptr,
                      "set_coordinate_score() before evaluate_coordinate()");
        PRESS_EXPECTS(batch_ == nullptr && coord_ == nullptr,
                      "evaluate() is not reentrant on one evaluator");
        coord_ = &batch;
    }
    run_tasks(batch.states->size(), results);
    return results;
}

}  // namespace press::control
