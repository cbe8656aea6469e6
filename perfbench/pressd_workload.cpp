// pressd_open_loop: the real pressd daemon (--threads 1, telemetry on as
// deployed) over its AF_UNIX socket, driven by one client process with
// two connections sending seeded Poisson arrivals.
//
// Phases: a reference phase at kReferenceRps, split evenly over
// kReferenceScenes daemons with different scene seeds (so score_db spans
// several geometries of the seed, as the search workloads' medians do),
// then on the last daemon a ladder of offered rates walked until the tail
// latency crosses kTailLimitMs (or a step sees a reject, an expiry, a
// timeout or a growing backlog). The ladder is fixed and two-level: coarse
// steps 1.5x apart find the first miss, fine steps 1.1x apart then walk
// the interval below it. A missed step is run a second time and counts as
// a miss only when the retry misses too, so one host hiccup cannot end
// the walk early. Latency is measured from a request's scheduled send
// time, so generator lateness and socket buffering count against the
// daemon.
//
// Hygiene: the daemon inherits this process's working directory, which
// run.py makes a fresh temporary directory inside the build tree, and a
// relative socket path, so its socket and any signal-triggered flight
// dump land there. Every daemon is stopped and reaped before the run
// returns; PR_SET_PDEATHSIG kills it if this process dies first.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "control/message.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "traced.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace control = press::control;

namespace {

constexpr const char* kSocket = "pressd.sock";
constexpr std::size_t kDaemonStarts = 16;
constexpr std::size_t kReferenceScenes = 8;
constexpr double kReferenceRps = 100.0;
/// Coarse ladder of offered rates, req/s, and the fine steps walked
/// between the last coarse pass and the first coarse miss.
constexpr double kCoarseLadder[] = {150, 225, 340, 510, 760,
                                    1140, 1710, 2560, 3840};
constexpr double kFineSteps[] = {1.1, 1.21, 1.33};
/// The SLO: a step passes while its tail latency stays within the 20 ms
/// coherence budget every request asks for.
constexpr double kTailLimitMs = 20.0;
constexpr double kMutateShare = 0.10;
/// pressd's default 20 ms budget; the mean-SNR objective over link 0.
constexpr std::uint8_t kObjective =
    static_cast<std::uint8_t>(control::ServiceObjective::kMeanSnr);

double now_s() {
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

/// One pressd process. The destructor stops and reaps it.
class Daemon {
public:
    Daemon(const std::string& path, std::uint64_t seed) {
        if (::access(path.c_str(), X_OK) != 0)
            throw std::runtime_error("pressd binary not found: " + path);
        const std::string seed_arg = std::to_string(seed);
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent) ::_exit(127);
            const int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
            ::execl(path.c_str(), "pressd", "--socket", kSocket, "--seed",
                    seed_arg.c_str(), "--threads", "1", "--quiet",
                    static_cast<char*>(nullptr));
            ::_exit(127);
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// SIGTERM, then SIGKILL after two seconds; always reaps.
    void stop() {
        if (pid_ <= 0) return;
        ::kill(pid_, SIGTERM);
        for (int i = 0; i < 200; ++i) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            ::usleep(10000);
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
    }

    /// utime + stime from /proc/<pid>/stat, seconds.
    double cpu_s() const {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
        std::string line;
        std::getline(in, line);
        const std::size_t close = line.rfind(')');
        if (close == std::string::npos) return 0.0;
        std::istringstream fields(line.substr(close + 2));
        std::string field;
        double utime = 0.0, stime = 0.0;
        // Fields after the command name start at field 3 (state);
        // utime and stime are fields 14 and 15.
        for (int f = 3; f <= 15 && (fields >> field); ++f) {
            if (f == 14) utime = std::strtod(field.c_str(), nullptr);
            if (f == 15) stime = std::strtod(field.c_str(), nullptr);
        }
        return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }

    /// Peak resident set (VmHWM), MiB.
    double peak_rss_mib() const {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line))
            if (line.rfind("VmHWM:", 0) == 0)
                return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        return 0.0;
    }

private:
    pid_t pid_ = -1;
};

/// One client connection (a pressd session).
class Connection {
public:
    /// Connects, retrying while the daemon is still starting, then runs
    /// the Hello / HelloAck handshake.
    explicit Connection(double timeout_s) {
        const double deadline = now_s() + timeout_s;
        for (;;) {
            fd_ = ::socket(AF_UNIX, SOCK_SEQPACKET, 0);
            if (fd_ < 0) throw std::runtime_error("socket failed");
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
            if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0)
                break;
            ::close(fd_);
            fd_ = -1;
            if (now_s() > deadline)
                throw std::runtime_error("pressd did not start listening");
            ::usleep(200);
        }
        const auto hello =
            control::encode(control::Message{control::Hello{}}, 0);
        if (::send(fd_, hello.data(), hello.size(), 0) < 0)
            throw std::runtime_error("Hello send failed");
        std::vector<std::uint8_t> buf(64 * 1024);
        pollfd pfd{fd_, POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(timeout_s * 1000)) <= 0)
            throw std::runtime_error("no HelloAck from pressd");
        const ssize_t n = ::recv(fd_, buf.data(), buf.size(), 0);
        if (n <= 0) throw std::runtime_error("no HelloAck from pressd");
        const control::Decoded d = control::decode(
            std::vector<std::uint8_t>(buf.begin(), buf.begin() + n));
        if (std::get_if<control::HelloAck>(&d.message) == nullptr)
            throw std::runtime_error("pressd answered Hello with no ack");
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    }
    ~Connection() {
        if (fd_ >= 0) ::close(fd_);
    }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    int fd() const { return fd_; }

    struct Outgoing {
        std::uint32_t seq = 0;
        std::vector<std::uint8_t> frame;
    };
    std::deque<Outgoing> queue;  ///< due frames the socket has not taken

private:
    int fd_ = -1;
};

/// Request kinds of the mix.
enum RequestKind { kMutate, kGreedy, kExhaustive, kNumKinds };

/// What one open-loop phase measured.
struct Phase {
    double rate = 0.0;
    std::vector<double> latency_ms;  ///< every answered request
    std::vector<double> latency_by_kind[kNumKinds];
    std::vector<double> per_eval_us, score_db;  ///< optimize replies
    std::vector<double> queue_wait_ms, compute_ms, overhead_ms;
    std::uint64_t attempted = 0, failed = 0, answered = 0;
    double late_ms_max = 0.0;
    std::size_t backlog_end = 0;
    Tail tail;

    /// A backlog is growing when more requests are unanswered at the
    /// end of sending than arrive within one latency limit.
    bool passes() const {
        const double backlog_limit =
            std::max(8.0, rate * kTailLimitMs * 1e-3);
        return failed == 0 &&
               static_cast<double>(backlog_end) <= backlog_limit &&
               tail.value <= kTailLimitMs;
    }
};

struct Sent {
    double scheduled = 0.0;  ///< absolute due time, s
    RequestKind kind = kGreedy;
};

/// Sends Poisson arrivals at `rate` for `duration` seconds across the
/// connections, then drains replies for up to two seconds.
Phase run_phase(std::vector<std::unique_ptr<Connection>>& conns, double rate,
                double duration, press::util::Rng& mix, std::uint32_t& seq) {
    Phase p;
    p.rate = rate;
    std::map<std::uint32_t, Sent> pending;
    std::vector<std::uint8_t> buf(64 * 1024);
    const double start = now_s();
    const double stop_sending = start + duration;
    double next_due = start - std::log(1.0 - mix.uniform(0.0, 1.0)) / rate;
    bool sending_done = false;
    std::size_t rr = 0;

    for (;;) {
        double now = now_s();
        while (!sending_done && next_due <= now) {
            if (next_due >= stop_sending) {
                sending_done = true;
                p.backlog_end = pending.size();
                break;
            }
            const std::uint32_t s = seq++;
            control::Message msg;
            RequestKind kind = kMutate;
            if (mix.uniform(0.0, 1.0) >= kMutateShare) {
                kind = mix.uniform(0.0, 1.0) < 0.5 ? kGreedy : kExhaustive;
                control::OptimizeRequest req;
                req.objective = kObjective;
                req.searcher = static_cast<std::uint8_t>(
                    kind == kGreedy ? control::ServiceSearcher::kGreedy
                                    : control::ServiceSearcher::kExhaustive);
                msg = req;
            } else {
                control::MutateRequest req;
                req.element = static_cast<std::uint16_t>(mix.uniform_int(0, 2));
                req.state = static_cast<std::uint8_t>(mix.uniform_int(0, 3));
                msg = req;
            }
            {
                press::obs::TraceSpan span("perfbench.pressd.encode");
                conns[rr % conns.size()]->queue.push_back(
                    {s, control::encode(msg, s)});
            }
            ++rr;
            pending[s] = Sent{next_due, kind};
            ++p.attempted;
            next_due -= std::log(1.0 - mix.uniform(0.0, 1.0)) / rate;
        }
        if (!sending_done && next_due >= stop_sending && now >= stop_sending) {
            sending_done = true;
            p.backlog_end = pending.size();
        }
        for (auto& c : conns) {
            while (!c->queue.empty()) {
                press::obs::TraceSpan span("perfbench.pressd.send");
                const Connection::Outgoing& out = c->queue.front();
                const ssize_t n = ::send(c->fd(), out.frame.data(),
                                         out.frame.size(), MSG_DONTWAIT);
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                if (n < 0) throw std::runtime_error("send to pressd failed");
                const auto it = pending.find(out.seq);
                if (it != pending.end())
                    p.late_ms_max = std::max(
                        p.late_ms_max, (now_s() - it->second.scheduled) * 1e3);
                c->queue.pop_front();
            }
        }
        if (sending_done && pending.empty()) break;
        if (sending_done && now > stop_sending + 2.0) {
            // Unanswered after the drain window: timeouts.
            p.failed += pending.size();
            break;
        }

        std::vector<pollfd> fds;
        for (auto& c : conns) {
            short events = POLLIN;
            if (!c->queue.empty()) events |= POLLOUT;
            fds.push_back({c->fd(), events, 0});
        }
        // Wake exactly when the next request is due: a millisecond poll
        // timeout would add up to 1 ms of generator lateness.
        const double wait_s = std::clamp(
            sending_done ? 0.01 : next_due - now_s(), 0.0, 0.01);
        timespec timeout{};
        timeout.tv_nsec = static_cast<long>(wait_s * 1e9);
        (void)::ppoll(fds.data(), fds.size(), &timeout, nullptr);
        for (std::size_t ci = 0; ci < conns.size(); ++ci) {
            if (!(fds[ci].revents & (POLLIN | POLLERR | POLLHUP))) continue;
            for (;;) {
                press::obs::TraceSpan span("perfbench.pressd.recv");
                const ssize_t n =
                    ::recv(conns[ci]->fd(), buf.data(), buf.size(),
                           MSG_DONTWAIT);
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                if (n <= 0) throw std::runtime_error("pressd closed a session");
                const double arrived = now_s();
                const control::Decoded d = control::decode(
                    std::vector<std::uint8_t>(buf.begin(), buf.begin() + n));
                const auto it = pending.find(d.seq);
                if (it == pending.end()) continue;
                const Sent sent = it->second;
                pending.erase(it);
                ++p.answered;
                const double latency_ms = (arrived - sent.scheduled) * 1e3;
                if (const auto* r =
                        std::get_if<control::OptimizeReply>(&d.message)) {
                    if (r->status != 0) {
                        ++p.failed;
                        continue;
                    }
                    p.latency_ms.push_back(latency_ms);
                    p.latency_by_kind[sent.kind].push_back(latency_ms);
                    p.per_eval_us.push_back(
                        static_cast<double>(r->compute_us) /
                        std::max<double>(1.0, r->evaluations));
                    p.score_db.push_back(r->best_score_centi / 100.0);
                    const double qw = r->queue_wait_us * 1e-3;
                    const double cp = r->compute_us * 1e-3;
                    p.queue_wait_ms.push_back(qw);
                    p.compute_ms.push_back(cp);
                    p.overhead_ms.push_back(latency_ms - qw - cp);
                } else if (const auto* m =
                               std::get_if<control::MutateReply>(&d.message)) {
                    if (m->status != 0) {
                        ++p.failed;
                        continue;
                    }
                    p.latency_ms.push_back(latency_ms);
                    p.latency_by_kind[kMutate].push_back(latency_ms);
                } else {
                    ++p.failed;  // Reject (queue full, expired, ...)
                }
            }
        }
    }
    p.tail = tail_of(p.latency_ms);
    return p;
}

/// Rate at which the tail crosses the limit, interpolated between the
/// last passing step and the first failing one.
double interpolate_rps(const Phase* pass, const Phase& fail) {
    const double r1 = pass ? pass->rate : 0.0;
    const double t1 = pass ? pass->tail.value : 0.0;
    const double t2 = fail.tail.value;
    if (!(t2 > kTailLimitMs) || !(t2 > t1)) return r1;
    const double f = std::clamp((kTailLimitMs - t1) / (t2 - t1), 0.0, 1.0);
    return r1 + f * (fail.rate - r1);
}

/// A started daemon with the client's connections open.
struct DaemonClient {
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Connection>> conns;
    double setup_s = 0.0;  ///< spawn to the first HelloAck
};

DaemonClient start(const std::string& pressd_path, std::uint64_t seed,
              std::size_t connections) {
    DaemonClient s;
    const auto t0 = Clock::now();
    s.daemon = std::make_unique<Daemon>(pressd_path, seed);
    s.conns.push_back(std::make_unique<Connection>(10.0));
    s.setup_s = seconds_since(t0);
    while (s.conns.size() < connections)
        s.conns.push_back(std::make_unique<Connection>(10.0));
    return s;
}

void stop(DaemonClient& s) {
    s.conns.clear();
    s.daemon->stop();
}

/// Runs one ladder step; a miss is confirmed by a second trial.
Phase ladder_step(DaemonClient& s, double rate, double seconds,
                  press::util::Rng& mix, std::uint32_t& seq,
                  std::vector<Phase>& retried) {
    Phase step = run_phase(s.conns, rate, seconds, mix, seq);
    if (step.passes()) return step;
    retried.push_back(std::move(step));
    return run_phase(s.conns, rate, seconds, mix, seq);
}

}  // namespace

Result run_pressd_workload(const Args& args, const std::string& pressd_path) {
    Result r;
    press::obs::set_enabled(args.trace);
    press::obs::set_span_capacity(1u << 16);
    press::util::Rng mix(derive_seed(args.seed, 2));
    const auto daemon_seed = [&args](std::size_t j) {
        return derive_seed(args.seed, 200 + j) % 1000000;
    };

    // Set-up: time from spawn to the first HelloAck, over every start
    // (these and the reference phase's).
    std::vector<double> setup_s;
    for (std::size_t i = 0; i < kDaemonStarts; ++i) {
        DaemonClient s =
            start(pressd_path, daemon_seed(i % kReferenceScenes), 1);
        setup_s.push_back(s.setup_s);
        stop(s);
    }

    // The traced run spends part of its time in process (the layer
    // probes), so its phases are shorter.
    const double budget = args.trace ? 0.6 * args.seconds : args.seconds;
    const double reference_s = 0.1 * budget / kReferenceScenes;
    const double step_s = 0.06 * budget;
    std::uint32_t seq = 1;

    std::vector<Phase> reference;
    std::vector<double> rss;
    DaemonClient client;
    double daemon_cpu0 = 0.0;
    for (std::size_t j = 0; j < kReferenceScenes; ++j) {
        client = start(pressd_path, daemon_seed(j), 2);
        setup_s.push_back(client.setup_s);
        daemon_cpu0 = client.daemon->cpu_s();
        reference.push_back(
            run_phase(client.conns, kReferenceRps, reference_s, mix, seq));
        rss.push_back(client.daemon->peak_rss_mib());
        if (j + 1 < kReferenceScenes) stop(client);
    }

    // The ladder, on the last reference daemon.
    std::vector<Phase> steps, retried;
    double coarse_pass = 0.0, coarse_miss = 0.0;
    for (const double rate : kCoarseLadder) {
        steps.push_back(ladder_step(client, rate, step_s, mix, seq, retried));
        if (!steps.back().passes()) {
            coarse_miss = rate;
            break;
        }
        coarse_pass = rate;
    }
    if (coarse_miss > 0.0 && coarse_pass > 0.0) {
        const Phase miss = std::move(steps.back());
        steps.pop_back();
        for (const double f : kFineSteps) {
            steps.push_back(ladder_step(client, coarse_pass * f, step_s, mix,
                                        seq, retried));
            if (!steps.back().passes()) break;
        }
        if (steps.back().passes()) steps.push_back(miss);
    }
    double max_rps = steps.back().rate;
    if (!steps.back().passes()) {
        const Phase* pass =
            steps.size() >= 2 ? &steps[steps.size() - 2] : nullptr;
        max_rps = interpolate_rps(pass, steps.back());
    }
    const double daemon_cpu = client.daemon->cpu_s() - daemon_cpu0;
    std::uint64_t answered = reference.back().answered;  // by the last daemon
    for (const Phase& s : steps) answered += s.answered;
    for (const Phase& s : retried) answered += s.answered;
    std::uint64_t client_requests = answered;
    for (std::size_t j = 0; j + 1 < reference.size(); ++j)
        client_requests += reference[j].answered;
    stop(client);

    // Counted: the reference phase and the passing steps. The missing
    // step only locates max_rps_slo.
    Phase pooled;
    for (const Phase& p : reference) {
        r.attempted += p.attempted;
        r.failed += p.failed;
        pooled.late_ms_max = std::max(pooled.late_ms_max, p.late_ms_max);
        for (int k = 0; k < kNumKinds; ++k)
            pooled.latency_by_kind[k].insert(pooled.latency_by_kind[k].end(),
                                             p.latency_by_kind[k].begin(),
                                             p.latency_by_kind[k].end());
        const auto append = [](std::vector<double>& to,
                               const std::vector<double>& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(pooled.latency_ms, p.latency_ms);
        append(pooled.per_eval_us, p.per_eval_us);
        append(pooled.score_db, p.score_db);
        append(pooled.queue_wait_ms, p.queue_wait_ms);
        append(pooled.compute_ms, p.compute_ms);
        append(pooled.overhead_ms, p.overhead_ms);
    }
    if (r.failed > 0)
        r.fail_check(format("%llu requests failed at the reference rate",
                            static_cast<unsigned long long>(r.failed)));
    if (pooled.score_db.empty())
        r.fail_check("no optimize reply at the reference rate");
    const Tail tail = tail_of(pooled.latency_ms);
    double late_ms = pooled.late_ms_max;
    std::vector<double> queue_wait = pooled.queue_wait_ms,
                        compute = pooled.compute_ms,
                        overhead = pooled.overhead_ms;
    const auto describe = [](const Phase& s, const char* verdict) {
        return format(
            "ladder %6.0f req/s: tail %.3f ms (p%.1f of n=%zu), failed %llu, "
            "backlog %zu, late %.2f ms -> %s",
            s.rate, s.tail.value, s.tail.percentile, s.tail.samples,
            static_cast<unsigned long long>(s.failed), s.backlog_end,
            s.late_ms_max, verdict);
    };
    for (const Phase& s : retried)
        r.info.push_back(describe(s, "miss, retried"));
    for (const Phase& s : steps) {
        r.info.push_back(describe(s, s.passes() ? "pass" : "miss"));
        if (!s.passes()) continue;
        r.attempted += s.attempted;
        r.failed += s.failed;
        late_ms = std::max(late_ms, s.late_ms_max);
        queue_wait.insert(queue_wait.end(), s.queue_wait_ms.begin(),
                          s.queue_wait_ms.end());
        compute.insert(compute.end(), s.compute_ms.begin(),
                       s.compute_ms.end());
        overhead.insert(overhead.end(), s.overhead_ms.begin(),
                        s.overhead_ms.end());
    }

    if (!args.trace) {
        r.add("latency_ms_p50", median(pooled.latency_ms), "ms",
              format("n=%zu at %.0f req/s over %zu daemons",
                     pooled.latency_ms.size(), kReferenceRps,
                     kReferenceScenes));
        r.add("latency_ms_tail", tail.value, "ms",
              format("p%.1f of n=%zu", tail.percentile, tail.samples));
        r.add("us_per_eval", median(pooled.per_eval_us), "us",
              "compute_us / evaluations");
        r.add("score_db", median(pooled.score_db), "dB",
              "best_score_centi / 100");
        r.add("setup_s", median(setup_s), "s",
              format("median of %zu daemon starts", setup_s.size()));
        r.add("peak_rss_mib", median(rss), "MiB",
              format("pressd VmHWM, median of %zu daemons", rss.size()));
        r.add("max_rps_slo", max_rps, "req/s",
              format("tail <= %.0f ms", kTailLimitMs));
        r.info.push_back(format(
            "reference latency p50 by kind: mutate %.3f ms (n=%zu), greedy "
            "%.3f ms (n=%zu), exhaustive %.3f ms (n=%zu)",
            median(pooled.latency_by_kind[kMutate]),
            pooled.latency_by_kind[kMutate].size(),
            median(pooled.latency_by_kind[kGreedy]),
            pooled.latency_by_kind[kGreedy].size(),
            median(pooled.latency_by_kind[kExhaustive]),
            pooled.latency_by_kind[kExhaustive].size()));
        r.info.push_back(format("loadgen.late_ms_max=%.3f", late_ms));
        return r;
    }

    const Tail wait_tail = tail_of(queue_wait);
    r.add("control.service.queue_wait_ms_p50", median(queue_wait), "ms",
          "pressd replies");
    r.add("control.service.queue_wait_ms_tail", wait_tail.value, "ms",
          format("p%.1f of n=%zu", wait_tail.percentile, wait_tail.samples));
    r.add("control.service.compute_ms_p50", median(compute), "ms");
    r.add("control.service.overhead_ms_p50", median(overhead), "ms",
          "client latency - queue wait - compute");
    r.add("pressd.cpu_ms_per_request",
          daemon_cpu * 1e3 / static_cast<double>(std::max<std::uint64_t>(
                                 1, answered)),
          "ms", format("%llu requests answered",
                       static_cast<unsigned long long>(answered)));
    r.add("loadgen.late_ms_max", late_ms, "ms");
    // The client's own spans: encode, send and receive per request.
    double client_s = 0.0;
    for (const press::obs::SpanRecord& s : press::obs::flush_spans())
        client_s += static_cast<double>(s.wall_ns) * 1e-9;
    r.info.push_back(format("client spans: %.2f us per request",
                            client_s * 1e6 /
                                static_cast<double>(std::max<std::uint64_t>(
                                    1, client_requests))));
    (void)add_inprocess_layers(args, Kind::kStudy, 0.25 * args.seconds, r);
    return r;
}

}  // namespace perfbench
