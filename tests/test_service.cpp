// Tests for the control-plane service: wire roundtrips of the service
// protocol, admission control (queue bounds, priority eviction, load
// shedding), deadline expiry, slow-reader backpressure, epoch-fenced
// mutations, the watchdog's flight-dump-and-revert path, the chaos link,
// and decorrelated retry backoff — plus the no-silent-drop accounting
// ledger that every scenario must balance.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "control/message.hpp"
#include "control/service.hpp"
#include "control/transport.hpp"
#include "core/scenarios.hpp"
#include "core/serve.hpp"
#include "fault/chaos.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "press/element.hpp"
#include "util/contracts.hpp"

namespace press::control {
namespace {

// ---- wire roundtrips ---------------------------------------------------

template <typename T>
T roundtrip(const T& msg, std::uint32_t seq = 7) {
    const auto frame = encode(Message{msg}, seq);
    const Decoded decoded = decode(frame);
    EXPECT_EQ(decoded.seq, seq);
    const T* out = std::get_if<T>(&decoded.message);
    EXPECT_NE(out, nullptr);
    return *out;
}

TEST(ServiceWire, HelloRoundtrip) {
    Hello msg;
    msg.priority_cap = 99;
    EXPECT_EQ(roundtrip(msg).priority_cap, 99);
}

TEST(ServiceWire, HelloAckRoundtrip) {
    HelloAck msg;
    msg.session_id = 42;
    msg.epoch = 0xABCDEF0123ull;
    const auto out = roundtrip(msg);
    EXPECT_EQ(out.session_id, 42);
    EXPECT_EQ(out.epoch, 0xABCDEF0123ull);
}

TEST(ServiceWire, OptimizeRequestRoundtrip) {
    OptimizeRequest msg;
    msg.array_id = 3;
    msg.objective = 2;
    msg.link_id = 5;
    msg.searcher = 4;
    msg.budget_us = 123456;
    msg.deadline_us = 654321;
    msg.priority = 200;
    const auto out = roundtrip(msg);
    EXPECT_EQ(out.array_id, 3);
    EXPECT_EQ(out.objective, 2);
    EXPECT_EQ(out.link_id, 5);
    EXPECT_EQ(out.searcher, 4);
    EXPECT_EQ(out.budget_us, 123456u);
    EXPECT_EQ(out.deadline_us, 654321u);
    EXPECT_EQ(out.priority, 200);
}

TEST(ServiceWire, OptimizeReplyRoundtrip) {
    OptimizeReply msg;
    msg.status = 1;
    msg.epoch = 9;
    msg.best_score_centi = -1234;
    msg.evaluations = 64;
    msg.queue_wait_us = 1500;
    msg.compute_us = 250;
    const auto out = roundtrip(msg);
    EXPECT_EQ(out.status, 1);
    EXPECT_EQ(out.epoch, 9u);
    EXPECT_EQ(out.best_score_centi, -1234);
    EXPECT_EQ(out.evaluations, 64u);
    EXPECT_EQ(out.queue_wait_us, 1500u);
    EXPECT_EQ(out.compute_us, 250u);
}

TEST(ServiceWire, MutateAndRejectAndStatusRoundtrip) {
    MutateRequest mut;
    mut.array_id = 1;
    mut.element = 2;
    mut.state = 3;
    const auto mout = roundtrip(mut);
    EXPECT_EQ(mout.element, 2);
    EXPECT_EQ(mout.state, 3);

    MutateReply mrep;
    mrep.status = 1;
    mrep.epoch = 17;
    EXPECT_EQ(roundtrip(mrep).epoch, 17u);

    Reject rej;
    rej.reason = static_cast<std::uint8_t>(RejectReason::kExpired);
    rej.queue_depth = 12;
    const auto rout = roundtrip(rej);
    EXPECT_EQ(static_cast<RejectReason>(rout.reason),
              RejectReason::kExpired);
    EXPECT_EQ(rout.queue_depth, 12);

    (void)roundtrip(StatusRequest{});
    StatusReply status;
    status.epoch = 4;
    status.queue_depth = 2;
    status.served = 100;
    status.rejected = 5;
    status.expired = 1;
    const auto sout = roundtrip(status);
    EXPECT_EQ(sout.served, 100u);
    EXPECT_EQ(sout.expired, 1u);
}

TEST(ServiceWire, RejectReasonNames) {
    EXPECT_STREQ(to_string(RejectReason::kQueueFull), "queue-full");
    EXPECT_STREQ(to_string(RejectReason::kBackpressure), "backpressure");
}

TEST(ServiceWire, CorruptFrameIsCountedAndRejected) {
    obs::set_enabled(true);
    auto& counter =
        obs::MetricsRegistry::global().counter("wire.frames_corrupt");
    const std::uint64_t before = counter.value();
    auto frame = encode(Message{Hello{}}, 1);
    frame[frame.size() - 1] ^= 0xFF;  // break the CRC
    EXPECT_THROW((void)decode(frame), ProtocolError);
    EXPECT_EQ(counter.value(), before + 1);
    EXPECT_FALSE(frame_crc_ok(frame));
}

// ---- service core over a stub engine ----------------------------------

struct StubCounters {
    int optimizes = 0;
    int mutates = 0;
    int checkpoints = 0;
    int reverts = 0;
};

ServiceEngine stub_engine(std::shared_ptr<StubCounters> counters,
                          double sim_cost_s = 0.01, bool ok = true) {
    ServiceEngine engine;
    engine.optimize = [counters, sim_cost_s, ok](const OptimizeRequest&,
                                                 double) {
        ++counters->optimizes;
        EngineResult result;
        result.ok = ok;
        result.best_score = 12.5;
        result.evaluations = 8;
        result.sim_elapsed_s = sim_cost_s;
        result.compute_s = 20e-6;
        return result;
    };
    engine.mutate = [counters](const MutateRequest&) {
        ++counters->mutates;
        return true;
    };
    engine.checkpoint = [counters]() { ++counters->checkpoints; };
    engine.revert = [counters]() {
        ++counters->reverts;
        return true;
    };
    return engine;
}

/// Submits frames and decodes replies for one session.
struct TestClient {
    Service& service;
    Service::SessionId id;
    std::uint32_t next_seq = 1;

    explicit TestClient(Service& s) : service(s), id(s.connect()) {}

    std::uint32_t send(const Message& msg) {
        const std::uint32_t seq = next_seq++;
        service.submit(id, encode(msg, seq));
        return seq;
    }
    std::uint32_t send_optimize(std::uint8_t priority,
                                std::uint32_t deadline_us = 0) {
        OptimizeRequest req;
        req.priority = priority;
        req.deadline_us = deadline_us;
        return send(Message{req});
    }
    std::vector<Decoded> read() {
        std::vector<Decoded> out;
        for (const auto& frame : service.take_outgoing(id))
            out.push_back(decode(frame));
        return out;
    }
};

const Reject* find_reject(const std::vector<Decoded>& replies,
                          std::uint32_t seq) {
    for (const auto& d : replies)
        if (d.seq == seq)
            if (const auto* r = std::get_if<Reject>(&d.message)) return r;
    return nullptr;
}

TEST(Service, ServesAndRepliesWithTimingSplit) {
    auto counters = std::make_shared<StubCounters>();
    const ServiceOptions options;
    Service service(stub_engine(counters), options);
    TestClient client(service);

    const std::uint32_t hello_seq = client.send(Message{Hello{}});
    auto replies = client.read();
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].seq, hello_seq);
    EXPECT_NE(std::get_if<HelloAck>(&replies[0].message), nullptr);

    const std::uint32_t seq = client.send_optimize(128);
    EXPECT_TRUE(service.run_cycle());
    replies = client.read();
    ASSERT_EQ(replies.size(), 1u);
    const auto* reply = std::get_if<OptimizeReply>(&replies[0].message);
    ASSERT_NE(reply, nullptr);
    EXPECT_EQ(replies[0].seq, seq);
    EXPECT_EQ(reply->status, 0);
    EXPECT_EQ(reply->best_score_centi, 1250);
    // The timing split: compute time (stub: 20 us) is reported apart
    // from queue wait.
    EXPECT_EQ(reply->compute_us, 20u);
    EXPECT_EQ(counters->optimizes, 1);
    EXPECT_EQ(counters->checkpoints, 1);
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, QueueFullRejectsNewcomersOfEqualPriority) {
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.queue_capacity = 4;
    options.shed_occupancy = 1.0;  // isolate the full-queue path
    Service service(stub_engine(counters), options);
    TestClient client(service);

    std::vector<std::uint32_t> seqs;
    for (int i = 0; i < 7; ++i) seqs.push_back(client.send_optimize(128));
    EXPECT_EQ(service.queue_depth(), 4u);
    EXPECT_EQ(service.stats().admitted, 4u);
    EXPECT_EQ(service.stats().queue_full, 3u);

    const auto replies = client.read();
    for (std::size_t i = 4; i < 7; ++i) {
        const Reject* reject = find_reject(replies, seqs[i]);
        ASSERT_NE(reject, nullptr);
        EXPECT_EQ(static_cast<RejectReason>(reject->reason),
                  RejectReason::kQueueFull);
    }
    EXPECT_TRUE(service.accounting_balanced());
    service.run_until_idle();
    EXPECT_EQ(service.stats().served, 4u);
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, HigherPriorityEvictsLowestWhenFull) {
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.queue_capacity = 3;
    options.shed_occupancy = 1.0;
    Service service(stub_engine(counters), options);
    TestClient client(service);

    const std::uint32_t low = client.send_optimize(10);
    client.send_optimize(100);
    client.send_optimize(100);
    const std::uint32_t high = client.send_optimize(200);

    EXPECT_EQ(service.stats().evicted, 1u);
    EXPECT_EQ(service.stats().admitted, 4u);
    EXPECT_EQ(service.queue_depth(), 3u);
    const auto replies = client.read();
    const Reject* reject = find_reject(replies, low);
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(static_cast<RejectReason>(reject->reason),
              RejectReason::kQueueFull);
    EXPECT_TRUE(service.accounting_balanced());

    // The evictor runs first (highest priority).
    EXPECT_TRUE(service.run_cycle());
    bool saw_high_reply = false;
    for (const auto& d : client.read())
        if (d.seq == high &&
            std::get_if<OptimizeReply>(&d.message) != nullptr)
            saw_high_reply = true;
    EXPECT_TRUE(saw_high_reply);
}

TEST(Service, ShedsLowPriorityAboveOccupancyWatermark) {
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.queue_capacity = 8;
    options.shed_occupancy = 0.5;
    options.shed_priority_floor = 64;
    Service service(stub_engine(counters), options);
    TestClient client(service);

    for (int i = 0; i < 4; ++i) client.send_optimize(128);
    // Occupancy is now 0.5: a request below the floor is shed...
    const std::uint32_t shed_seq = client.send_optimize(10);
    EXPECT_EQ(service.stats().shed, 1u);
    // ...while one above the floor is admitted.
    client.send_optimize(128);
    EXPECT_EQ(service.stats().admitted, 5u);

    const auto replies = client.read();
    const Reject* reject = find_reject(replies, shed_seq);
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(static_cast<RejectReason>(reject->reason),
              RejectReason::kShed);
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, DeadlineExpiresMidQueue) {
    auto counters = std::make_shared<StubCounters>();
    const ServiceOptions options;
    Service service(stub_engine(counters, /*sim_cost_s=*/0.01), options);
    TestClient client(service);

    // Low priority, generous deadline; high priority, tight deadline.
    const std::uint32_t relaxed = client.send_optimize(50, 1000000);
    const std::uint32_t tight = client.send_optimize(200, 5000);

    // 8 ms of sim time pass before the service gets to run: the tight
    // deadline (5 ms) is already unmeetable, the relaxed one is fine.
    service.advance_clock(0.008);
    EXPECT_TRUE(service.run_cycle());

    const auto replies = client.read();
    const Reject* reject = find_reject(replies, tight);
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(static_cast<RejectReason>(reject->reason),
              RejectReason::kExpired);
    bool relaxed_served = false;
    for (const auto& d : replies)
        if (d.seq == relaxed &&
            std::get_if<OptimizeReply>(&d.message) != nullptr)
            relaxed_served = true;
    EXPECT_TRUE(relaxed_served);
    EXPECT_EQ(service.stats().expired, 1u);
    EXPECT_EQ(service.stats().served, 1u);
    EXPECT_EQ(counters->optimizes, 1);  // the expired one never ran
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, SlowReaderGetsBackpressureThenDropped) {
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.queue_capacity = 64;
    options.outbox_capacity = 8;  // watermark = 6
    Service slow_service(stub_engine(counters), options);
    TestClient client(slow_service);

    // The client never reads. Replies pile up in its outbox until the
    // watermark refuses new work, then the hard cap closes the session.
    bool saw_backpressure = false;
    for (int i = 0; i < 32 && slow_service.session_open(client.id); ++i) {
        client.send_optimize(128);
        slow_service.run_until_idle();
        if (slow_service.stats().backpressure > 0) saw_backpressure = true;
    }
    EXPECT_TRUE(saw_backpressure);
    EXPECT_FALSE(slow_service.session_open(client.id));
    EXPECT_EQ(slow_service.stats().sessions_dropped_slow, 1u);
    EXPECT_TRUE(slow_service.accounting_balanced());
}

TEST(Service, DuplicateSequenceIsRejected) {
    auto counters = std::make_shared<StubCounters>();
    const ServiceOptions options;
    Service service(stub_engine(counters), options);
    TestClient client(service);

    OptimizeRequest req;
    req.priority = 128;
    const auto frame = encode(Message{req}, 77);
    service.submit(client.id, frame);
    service.submit(client.id, frame);  // chaos duplicate / retransmission
    EXPECT_EQ(service.stats().admitted, 1u);
    EXPECT_EQ(service.stats().duplicates, 1u);
    const auto replies = client.read();
    const Reject* reject = find_reject(replies, 77);
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(static_cast<RejectReason>(reject->reason),
              RejectReason::kDuplicate);
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, RetransmitAfterTransientRejectIsReevaluated) {
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.queue_capacity = 1;
    options.shed_occupancy = 1.0;
    Service service(stub_engine(counters), options);
    TestClient client(service);

    client.send_optimize(128);
    // Queue full: refused kQueueFull — a transient condition. Were the
    // seq recorded on first sight, a retransmission (say the Reject was
    // chaos-dropped) would be stonewalled with kDuplicate forever.
    OptimizeRequest req;
    req.priority = 128;
    const auto frame = encode(Message{req}, 55);
    service.submit(client.id, frame);
    EXPECT_EQ(service.stats().queue_full, 1u);
    (void)client.read();

    service.run_until_idle();  // drains the queue
    service.submit(client.id, frame);  // retransmission of seq 55
    EXPECT_EQ(service.stats().duplicates, 0u);
    EXPECT_EQ(service.stats().admitted, 2u);
    service.run_until_idle();
    EXPECT_EQ(service.stats().served, 2u);
    // An admitted seq still dedupes.
    service.submit(client.id, frame);
    EXPECT_EQ(service.stats().duplicates, 1u);
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, EvictionSurvivesVictimOutboxOverflow) {
    // The eviction Reject can itself overflow the victim's outbox and
    // close that session, which purges the victim's other queue entries
    // mid-eviction. The ledger must stay balanced (evicted once, the
    // sibling entry dropped_closed once) and nothing may crash.
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.queue_capacity = 2;
    options.outbox_capacity = 2;
    options.shed_occupancy = 1.0;
    Service service(stub_engine(counters), options);
    TestClient victim(service);
    TestClient evictor(service);

    // Two queued requests, then fill the victim's outbox to capacity
    // with duplicate-rejects (duplicates bypass the admission path).
    OptimizeRequest req;
    req.priority = 10;
    const auto frame = encode(Message{req}, 100);
    service.submit(victim.id, frame);
    victim.send_optimize(10);
    EXPECT_EQ(service.queue_depth(), 2u);
    service.submit(victim.id, frame);
    service.submit(victim.id, frame);
    EXPECT_EQ(service.outbox_depth(victim.id), 2u);

    // The eviction: its Reject overflows the outbox -> session closed.
    evictor.send_optimize(200);
    EXPECT_FALSE(service.session_open(victim.id));
    EXPECT_EQ(service.stats().evicted, 1u);
    EXPECT_EQ(service.stats().dropped_closed, 1u);
    EXPECT_EQ(service.queue_depth(), 1u);
    EXPECT_TRUE(service.accounting_balanced());
    service.run_until_idle();
    EXPECT_EQ(service.stats().served, 1u);  // the evictor's request
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, ExpirySurvivesFullOutboxSessionClose) {
    // Same reentrancy hazard on the expiry path: the kExpired Reject
    // closes the session, purging its remaining queue entry while
    // pop_next scans. One expired, one dropped_closed, no double count.
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.outbox_capacity = 2;
    Service service(stub_engine(counters), options);
    TestClient client(service);

    OptimizeRequest req;
    req.priority = 128;
    req.deadline_us = 1000;
    const auto frame = encode(Message{req}, 100);
    service.submit(client.id, frame);
    client.send_optimize(128, 1000);
    service.submit(client.id, frame);
    service.submit(client.id, frame);
    EXPECT_EQ(service.outbox_depth(client.id), 2u);

    service.advance_clock(0.01);  // both deadlines pass
    (void)service.run_cycle();
    EXPECT_FALSE(service.session_open(client.id));
    EXPECT_EQ(service.stats().expired, 1u);
    EXPECT_EQ(service.stats().dropped_closed, 1u);
    EXPECT_EQ(service.queue_depth(), 0u);
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, SessionIdsSkipLiveSessionsOnWrap) {
    auto counters = std::make_shared<StubCounters>();
    const ServiceOptions options;
    Service service(stub_engine(counters), options);
    const auto held = service.connect();
    // Walk next_session_ through the full u16 space and past the wrap:
    // every id handed out must be fresh — never 0, never the held one.
    for (int i = 0; i < 66000; ++i) {
        const auto id = service.connect();
        ASSERT_NE(id, held);
        ASSERT_NE(id, 0);
        service.disconnect(id);
    }
    EXPECT_TRUE(service.session_open(held));
}

TEST(Service, PriorityCapFromHelloClampsRequests) {
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.queue_capacity = 2;
    options.shed_occupancy = 1.0;
    options.shed_priority_floor = 0;  // isolate the eviction path
    Service service(stub_engine(counters), options);
    TestClient capped(service);
    TestClient normal(service);

    Hello hello;
    hello.priority_cap = 5;
    capped.send(Message{hello});
    (void)capped.read();

    normal.send_optimize(50);
    normal.send_optimize(50);
    // Nominal priority 255, but the cap makes it 5 — too weak to evict.
    const std::uint32_t seq = capped.send_optimize(255);
    EXPECT_EQ(service.stats().queue_full, 1u);
    const auto replies = capped.read();
    const Reject* reject = find_reject(replies, seq);
    ASSERT_NE(reject, nullptr);
}

TEST(Service, DisconnectAccountsQueuedRequests) {
    auto counters = std::make_shared<StubCounters>();
    const ServiceOptions options;
    Service service(stub_engine(counters), options);
    TestClient client(service);
    client.send_optimize(128);
    client.send_optimize(128);
    EXPECT_EQ(service.queue_depth(), 2u);
    service.disconnect(client.id);
    EXPECT_EQ(service.queue_depth(), 0u);
    EXPECT_EQ(service.stats().dropped_closed, 2u);
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, WatchdogDumpsRevertsAndKeepsServing) {
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.inject_stall_every = 2;  // every 2nd request stalls
    Service service(stub_engine(counters), options);
    TestClient client(service);

    const std::uint32_t first = client.send_optimize(128);
    const std::uint32_t second = client.send_optimize(128);
    service.run_until_idle();

    EXPECT_EQ(service.stats().watchdog_trips, 1u);
    EXPECT_GE(service.stats().flight_dumps, 1u);
    EXPECT_EQ(counters->reverts, 1);
    EXPECT_EQ(service.stats().served, 2u);  // degraded is still served

    const auto replies = client.read();
    std::uint8_t first_status = 0xFF, second_status = 0xFF;
    for (const auto& d : replies) {
        if (const auto* r = std::get_if<OptimizeReply>(&d.message)) {
            if (d.seq == first) first_status = r->status;
            if (d.seq == second) second_status = r->status;
        }
    }
    EXPECT_EQ(first_status, 0);   // healthy cycle
    EXPECT_EQ(second_status, 1);  // the stalled one, answered degraded
    EXPECT_TRUE(service.accounting_balanced());

    // The service survives its own recovery: a third request is served.
    client.send_optimize(128);
    service.run_until_idle();
    EXPECT_EQ(service.stats().served, 3u);
}

TEST(Service, SimTimeOverrunTripsWatchdog) {
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.watchdog_cycle_s = 0.5;
    // A cycle that eats 2 simulated seconds is stuck by definition.
    Service service(stub_engine(counters, /*sim_cost_s=*/2.0), options);
    TestClient client(service);
    client.send_optimize(128);
    service.run_until_idle();
    EXPECT_EQ(service.stats().watchdog_trips, 1u);
    EXPECT_EQ(counters->reverts, 1);
}

// ---- epochs over the real engine ---------------------------------------

TEST(Service, EpochIsolatesMutationsFromOptimizeCycles) {
    auto scenario = core::make_link_scenario(11, /*line_of_sight=*/false);
    core::ServeConfig serve_config;
    ServiceEngine engine =
        core::make_service_engine(scenario.system, serve_config);
    const auto revision_probe = engine.scene_revision;
    const ServiceOptions options;
    Service service(std::move(engine), options);
    TestClient client(service);

    const std::uint64_t epoch0 = service.epoch();
    const std::uint64_t revision0 = revision_probe();

    OptimizeRequest opt;
    opt.array_id = static_cast<std::uint16_t>(scenario.array_id);
    opt.link_id = static_cast<std::uint16_t>(scenario.link_id);
    opt.budget_us = 2000;
    const std::uint32_t opt_seq = client.send(Message{opt});

    MutateRequest mut;
    mut.array_id = static_cast<std::uint16_t>(scenario.array_id);
    mut.element = 0;
    mut.state = 1;
    const std::uint32_t mut_seq = client.send(Message{mut});

    // One cycle: the optimize executes against the frozen scene (the
    // service asserts scene_revision stability internally), THEN the
    // mutation lands and the epoch advances.
    EXPECT_TRUE(service.run_cycle());

    const auto replies = client.read();
    const OptimizeReply* opt_reply = nullptr;
    const MutateReply* mut_reply = nullptr;
    for (const auto& d : replies) {
        if (d.seq == opt_seq)
            opt_reply = std::get_if<OptimizeReply>(&d.message);
        if (d.seq == mut_seq)
            mut_reply = std::get_if<MutateReply>(&d.message);
    }
    ASSERT_NE(opt_reply, nullptr);
    ASSERT_NE(mut_reply, nullptr);
    // The optimize saw the pre-mutation epoch; the mutation named the
    // epoch it created.
    EXPECT_EQ(opt_reply->epoch, epoch0);
    EXPECT_EQ(mut_reply->status, 0);
    EXPECT_EQ(mut_reply->epoch, epoch0 + 1);
    EXPECT_EQ(service.epoch(), epoch0 + 1);
    // The landed mutation moved the scene revision; the array state
    // reflects it.
    EXPECT_NE(revision_probe(), revision0);
    EXPECT_EQ(
        scenario.system.medium().array(scenario.array_id).current_config()[0],
        1);
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, BadRequestsAreRejectedByValidation) {
    auto scenario = core::make_link_scenario(12, /*line_of_sight=*/false);
    const ServiceOptions options;
    Service service(core::make_service_engine(scenario.system), options);
    TestClient client(service);

    OptimizeRequest bad;
    bad.array_id = 99;  // no such array
    const std::uint32_t seq = client.send(Message{bad});
    EXPECT_EQ(service.stats().bad_requests, 1u);
    const auto replies = client.read();
    const Reject* reject = find_reject(replies, seq);
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(static_cast<RejectReason>(reject->reason),
              RejectReason::kBadRequest);

    MutateRequest bad_mut;
    bad_mut.array_id = static_cast<std::uint16_t>(scenario.array_id);
    bad_mut.element = 999;
    client.send(Message{bad_mut});
    EXPECT_EQ(service.stats().bad_requests, 2u);
}

// ---- introspection plane -----------------------------------------------

TEST(ServiceWire, SubscribeRoundtrip) {
    Subscribe msg;
    msg.prefix = "service.";
    msg.interval_us = 250000;
    msg.flags = kSubscribeExemplars;
    const auto out = roundtrip(msg);
    EXPECT_EQ(out.prefix, "service.");
    EXPECT_EQ(out.interval_us, 250000u);
    EXPECT_EQ(out.flags, kSubscribeExemplars);
}

TEST(ServiceWire, TelemetryFrameRoundtrip) {
    TelemetryFrame msg;
    msg.revision = 0xDEADBEEFCAFEull;
    msg.payload = "{\"schema\": \"press.timeseries/v1\"}";
    const auto out = roundtrip(msg);
    EXPECT_EQ(out.revision, 0xDEADBEEFCAFEull);
    EXPECT_EQ(out.payload, msg.payload);
}

TEST(ServiceWire, FlightTapRoundtripAndReasonNames) {
    FlightTap msg;
    msg.reason = static_cast<std::uint8_t>(FlightTapReason::kSloBurn);
    msg.revision = 77;
    msg.path = "flight_service_slo_burn.json";
    const auto out = roundtrip(msg);
    EXPECT_EQ(out.reason, msg.reason);
    EXPECT_EQ(out.revision, 77u);
    EXPECT_EQ(out.path, msg.path);
    EXPECT_STREQ(to_string(FlightTapReason::kWatchdog), "watchdog");
    EXPECT_STREQ(to_string(FlightTapReason::kSloBurn), "slo-burn");
}

TEST(ServiceWire, StatusReplyCarriesUptimeAndRevision) {
    StatusReply msg;
    msg.queue_depth = 3;
    msg.uptime_s = 12.345;
    msg.revision = 42;
    const auto out = roundtrip(msg);
    EXPECT_EQ(out.queue_depth, 3u);
    // Uptime rides the wire at millisecond resolution.
    EXPECT_NEAR(out.uptime_s, 12.345, 0.001);
    EXPECT_EQ(out.revision, 42u);
}

std::vector<const TelemetryFrame*> telemetry_frames(
    const std::vector<Decoded>& replies) {
    std::vector<const TelemetryFrame*> out;
    for (const auto& d : replies)
        if (const auto* tf = std::get_if<TelemetryFrame>(&d.message))
            out.push_back(tf);
    return out;
}

TEST(Service, SubscriptionStreamsValidFramesAtCadence) {
    obs::set_enabled(true);
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.telemetry.interval_s = 0.5;
    Service service(stub_engine(counters), options);
    TestClient client(service);
    client.send(Message{Hello{}});
    (void)client.read();

    Subscribe sub;
    sub.interval_us = 500000;
    client.send(Message{sub});
    auto replies = client.read();
    // The subscription is acked immediately with the newest frame.
    auto frames = telemetry_frames(replies);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_TRUE(obs::validate_timeseries(obs::Json::parse(frames[0]->payload))
                    .empty());
    EXPECT_EQ(service.stats().subscriptions, 1u);

    for (int i = 0; i < 3; ++i) {
        service.advance_clock(0.5);
        (void)service.run_cycle();
    }
    replies = client.read();
    frames = telemetry_frames(replies);
    ASSERT_EQ(frames.size(), 3u);
    std::uint64_t last_revision = 0;
    for (const auto* tf : frames) {
        EXPECT_GT(tf->revision, last_revision);
        last_revision = tf->revision;
        const obs::Json doc = obs::Json::parse(tf->payload);
        EXPECT_TRUE(obs::validate_timeseries(doc).empty());
        // Service-injected liveness keys ride every pushed frame.
        EXPECT_TRUE(doc.contains("queue_depth"));
        EXPECT_TRUE(doc.contains("sessions"));
    }
    EXPECT_EQ(service.stats().telemetry_frames_sent, 4u);
    EXPECT_EQ(service.telemetry_revision(), last_revision);
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, SubscribeWithTelemetryOffIsRejected) {
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.telemetry.interval_s = 0.0;  // introspection plane disabled
    Service service(stub_engine(counters), options);
    TestClient client(service);
    client.send(Message{Hello{}});
    (void)client.read();

    const std::uint32_t seq = client.send(Message{Subscribe{}});
    const auto replies = client.read();
    const Reject* reject = find_reject(replies, seq);
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(static_cast<RejectReason>(reject->reason),
              RejectReason::kBadRequest);
    EXPECT_EQ(service.stats().subscriptions, 0u);
}

TEST(Service, UnsubscribeSendsFinalFrameAndStopsStream) {
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.telemetry.interval_s = 0.5;
    Service service(stub_engine(counters), options);
    TestClient client(service);
    client.send(Message{Hello{}});
    (void)client.read();
    client.send(Message{Subscribe{}});
    (void)client.read();  // ack frame

    Subscribe cancel;
    cancel.interval_us = 0;
    client.send(Message{cancel});
    const auto last = client.read();
    ASSERT_EQ(telemetry_frames(last).size(), 1u);  // the final frame

    for (int i = 0; i < 3; ++i) {
        service.advance_clock(0.5);
        (void)service.run_cycle();
    }
    EXPECT_TRUE(telemetry_frames(client.read()).empty());
}

TEST(Service, SlowSubscriberDropsOldestTelemetryNotReplies) {
    obs::set_enabled(true);
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.telemetry.interval_s = 0.25;
    options.outbox_capacity = 8;
    Service service(stub_engine(counters), options);

    // The watcher subscribes and then never reads a single frame.
    TestClient watcher(service);
    watcher.send(Message{Hello{}});
    Subscribe sub;
    sub.interval_us = 250000;
    watcher.send(Message{sub});

    // A concurrent client keeps working while the watcher stalls.
    TestClient worker(service);
    worker.send(Message{Hello{}});
    (void)worker.read();

    std::size_t worker_replies = 0;
    for (int i = 0; i < 64; ++i) {
        worker.send_optimize(128, 5'000'000);  // outlives the clock walk
        service.advance_clock(0.25);
        service.run_until_idle();
        for (const auto& d : worker.read())
            if (std::get_if<OptimizeReply>(&d.message) != nullptr)
                ++worker_replies;
    }

    // Telemetry hit the watermark and dropped oldest-first — visibly.
    EXPECT_GT(service.stats().telemetry_frames_dropped, 0u);
    // The stalled subscriber is throttled, not executed: its session
    // stays open and its outbox stays bounded.
    EXPECT_TRUE(service.session_open(watcher.id));
    EXPECT_LE(service.outbox_depth(watcher.id), options.outbox_capacity);
    // Every optimize made its deadline; no reply was displaced.
    EXPECT_EQ(worker_replies, 64u);
    EXPECT_EQ(service.stats().sessions_dropped_slow, 0u);
    EXPECT_TRUE(service.accounting_balanced());

    // Once the watcher finally drains, the newest frames are intact and
    // strictly ordered by revision.
    const auto drained = watcher.read();
    const auto frames = telemetry_frames(drained);
    ASSERT_GT(frames.size(), 0u);
    std::uint64_t last_revision = 0;
    for (const auto* tf : frames) {
        EXPECT_GT(tf->revision, last_revision);
        last_revision = tf->revision;
    }
}

TEST(Service, SloBurnBurstAlarmsAndTapsSubscriber) {
    obs::set_enabled(true);
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.queue_capacity = 16;
    options.telemetry.interval_s = 0.25;
    Service service(stub_engine(counters), options);

    TestClient watcher(service);
    watcher.send(Message{Hello{}});
    watcher.send(Message{Subscribe{}});  // default flags include taps
    (void)watcher.read();

    // Sixteen requests expire in-queue: a 100% miss window, far past
    // the 10x burn alarm with the 1% default miss budget.
    TestClient burst(service);
    burst.send(Message{Hello{}});
    for (int i = 0; i < 16; ++i)
        burst.send_optimize(128, /*deadline_us=*/100);
    service.advance_clock(1.0);
    service.run_until_idle();

    EXPECT_EQ(service.stats().expired, 16u);
    EXPECT_GE(service.stats().slo_alarms, 1u);
    EXPECT_GE(service.stats().flight_taps, 1u);

    const auto replies = watcher.read();
    const FlightTap* tap = nullptr;
    double burn = 0.0;
    for (const auto& d : replies) {
        if (const auto* t = std::get_if<FlightTap>(&d.message)) tap = t;
        if (const auto* tf = std::get_if<TelemetryFrame>(&d.message)) {
            const obs::Json doc = obs::Json::parse(tf->payload);
            EXPECT_TRUE(obs::validate_timeseries(doc).empty());
            if (doc.contains("gauges") &&
                doc.at("gauges").contains("service.slo.burn_rate"))
                burn = std::max(
                    burn,
                    doc.at("gauges").at("service.slo.burn_rate").as_double());
        }
    }
    ASSERT_NE(tap, nullptr);
    EXPECT_EQ(static_cast<FlightTapReason>(tap->reason),
              FlightTapReason::kSloBurn);
    EXPECT_FALSE(tap->path.empty());
    EXPECT_GT(burn, 1.0);
    EXPECT_TRUE(service.accounting_balanced());
}

TEST(Service, StatusReportsUptimeAndAdvancingRevision) {
    obs::set_enabled(true);
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.telemetry.interval_s = 0.5;
    Service service(stub_engine(counters), options);
    TestClient client(service);
    client.send(Message{Hello{}});
    (void)client.read();

    service.advance_clock(2.0);
    (void)service.run_cycle();  // one sampler window closes
    client.send(Message{StatusRequest{}});
    const auto first = client.read();
    ASSERT_EQ(first.size(), 1u);
    const auto* status = std::get_if<StatusReply>(&first[0].message);
    ASSERT_NE(status, nullptr);
    EXPECT_NEAR(status->uptime_s, 2.0, 1e-3);
    EXPECT_GE(status->revision, 1u);

    // The revision is monotonic: more windows, larger revision — the
    // restart-detection contract documented in docs/SERVICE.md.
    service.advance_clock(1.0);
    (void)service.run_cycle();
    client.send(Message{StatusRequest{}});
    const auto second = client.read();
    ASSERT_EQ(second.size(), 1u);
    const auto* later = std::get_if<StatusReply>(&second[0].message);
    ASSERT_NE(later, nullptr);
    EXPECT_GT(later->revision, status->revision);
    EXPECT_GT(later->uptime_s, status->uptime_s);
}

// ---- chaos link --------------------------------------------------------

TEST(ChaosLink, CleanLinkIsFifoAndLossless) {
    fault::ChaosLink link({}, util::Rng(1));
    link.send({1}, 0.0);
    link.send({2}, 0.0);
    const auto out = link.deliver(0.0);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0][0], 1);
    EXPECT_EQ(out[1][0], 2);
    EXPECT_EQ(link.stats().reordered, 0u);
}

TEST(ChaosLink, DropsAtConfiguredRate) {
    fault::ChaosOptions options;
    options.drop_rate = 0.5;
    fault::ChaosLink link(options, util::Rng(2));
    for (int i = 0; i < 400; ++i) link.send({0xAB}, 0.0);
    const auto delivered = link.deliver(0.0);
    EXPECT_GT(link.stats().dropped, 140u);
    EXPECT_LT(link.stats().dropped, 260u);
    EXPECT_EQ(delivered.size() + link.stats().dropped, 400u);
}

TEST(ChaosLink, DelayDefersDelivery) {
    fault::ChaosOptions options;
    options.delay_rate = 1.0;
    options.delay_min_s = 1e-3;
    options.delay_max_s = 2e-3;
    fault::ChaosLink link(options, util::Rng(3));
    link.send({7}, 0.0);
    EXPECT_TRUE(link.deliver(0.0).empty());
    EXPECT_EQ(link.in_flight(), 1u);
    const auto late = link.deliver(0.01);
    ASSERT_EQ(late.size(), 1u);
    EXPECT_EQ(link.stats().delayed, 1u);
}

TEST(ChaosLink, CorruptionFlipsBitsAndIsCounted) {
    fault::ChaosOptions options;
    options.corrupt_rate = 1.0;
    fault::ChaosLink link(options, util::Rng(4));
    const std::vector<std::uint8_t> original(32, 0x00);
    link.send(original, 0.0);
    const auto out = link.deliver(0.0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0], original);
    EXPECT_EQ(link.stats().corrupted, 1u);
}

TEST(ChaosLink, ReorderHoldsFramesBack) {
    fault::ChaosOptions options;
    options.reorder_rate = 0.5;
    fault::ChaosLink link(options, util::Rng(5));
    // Frames 0.1 ms apart: a held-back frame (5-10 ms) is overtaken by
    // dozens of successors.
    for (int i = 0; i < 100; ++i)
        link.send({static_cast<std::uint8_t>(i)}, i * 1e-4);
    (void)link.deliver(1000.0);
    EXPECT_GT(link.stats().reordered, 0u);
}

TEST(ChaosLink, SeverLosesInFlightUntilReconnect) {
    fault::ChaosOptions options;
    options.disconnect_rate = 1.0;  // severs on the first send
    fault::ChaosLink link(options, util::Rng(6));
    link.send({1}, 0.0);
    EXPECT_TRUE(link.severed());
    link.send({2}, 0.0);  // lost: the wire is down
    EXPECT_TRUE(link.deliver(10.0).empty());
    EXPECT_EQ(link.stats().severed_loss, 2u);
    link.reconnect();
    EXPECT_FALSE(link.severed());
}

TEST(ChaosLink, AccountingCoversEveryFrame) {
    fault::ChaosLink link(fault::ChaosOptions::uniform(0.2), util::Rng(7));
    for (int i = 0; i < 500; ++i)
        link.send({static_cast<std::uint8_t>(i)}, i * 1e-3);
    const auto delivered = link.deliver(1e9);
    const auto& s = link.stats();
    // Every offered frame is delivered, dropped, or severed — and
    // duplicates add to deliveries. Nothing vanishes unaccounted.
    EXPECT_EQ(delivered.size(), s.delivered);
    EXPECT_EQ(s.sent + s.duplicated,
              s.delivered + s.dropped + s.severed_loss + link.in_flight());
}

// ---- chaos soak against the service ------------------------------------

TEST(Service, ChaosSoakBalancesTheLedger) {
    auto counters = std::make_shared<StubCounters>();
    ServiceOptions options;
    options.queue_capacity = 8;
    Service service(stub_engine(counters, /*sim_cost_s=*/0.002), options);
    fault::ChaosLink to_service(fault::ChaosOptions::uniform(0.15),
                                util::Rng(8));

    const auto session = service.connect();
    double now = 0.0;
    std::uint32_t seq = 1;
    for (int i = 0; i < 300; ++i) {
        now += 1e-3;
        service.advance_clock(1e-3);
        OptimizeRequest req;
        req.priority = static_cast<std::uint8_t>(i % 256);
        req.deadline_us = 20000;
        to_service.send(encode(Message{req}, seq++, {}), now);
        if (to_service.severed()) to_service.reconnect();
        for (const auto& frame : to_service.deliver(now))
            service.submit(session, frame);
        service.run_cycle();
        (void)service.take_outgoing(session);
    }
    service.run_until_idle();
    EXPECT_GT(service.stats().admitted, 0u);
    EXPECT_TRUE(service.accounting_balanced());
}

// ---- decorrelated retry backoff ----------------------------------------

surface::Array make_test_array() {
    surface::Array array;
    for (int i = 0; i < 3; ++i) {
        array.add_element(surface::Element::sp4t_prototype(
            {1.0 + i, 0, 1}, em::Antenna::omni(12.0), 2.462e9));
    }
    return array;
}

TEST(Backoff, DecorrelatedJitterStaysWithinBounds) {
    surface::Array array = make_test_array();
    ArrayAgent agent(array, 0);
    // A downlink that drops everything: every attempt retries, so the
    // session walks the full backoff ladder and then gives up.
    ReliableSession session(agent, LossyChannel(0.0, 0.99, util::Rng(9)),
                            LossyChannel(0.0, 0.0, util::Rng(10)),
                            /*max_retries=*/12);
    BackoffPolicy policy;
    policy.base_s = 1e-3;
    policy.max_s = 50e-3;
    policy.jitter = BackoffPolicy::Jitter::kDecorrelated;
    session.set_backoff(policy, util::Rng(11));

    (void)session.apply(0, {0, 0, 0});
    const auto& stats = session.stats();
    ASSERT_GE(stats.attempts, 10u);
    // 12 retries, each waiting within [base, max]: the total is bounded
    // by those envelopes.
    EXPECT_GE(stats.backoff_s, 12 * policy.base_s);
    EXPECT_LE(stats.backoff_s, 12 * policy.max_s);
    // Decorrelated waits deviate from the nominal exponential ladder;
    // the deviation is what retry_jitter_s tracks.
    EXPECT_GT(stats.retry_jitter_s, 0.0);
}

TEST(Backoff, DecorrelatedStreamsDiverge) {
    // Two sessions with identical policies but different rng streams
    // must not retry in lockstep — the point of decorrelation.
    surface::Array array_a = make_test_array();
    surface::Array array_b = make_test_array();
    ArrayAgent agent_a(array_a, 0);
    ArrayAgent agent_b(array_b, 0);
    ReliableSession sa(agent_a, LossyChannel(0.0, 0.99, util::Rng(12)),
                       LossyChannel(0.0, 0.0, util::Rng(13)), 10);
    ReliableSession sb(agent_b, LossyChannel(0.0, 0.99, util::Rng(12)),
                       LossyChannel(0.0, 0.0, util::Rng(13)), 10);
    BackoffPolicy policy;
    policy.base_s = 1e-3;
    policy.max_s = 100e-3;
    policy.jitter = BackoffPolicy::Jitter::kDecorrelated;
    sa.set_backoff(policy, util::Rng(100));
    sb.set_backoff(policy, util::Rng(200));
    (void)sa.apply(0, {0, 0, 0});
    (void)sb.apply(0, {0, 0, 0});
    EXPECT_NE(sa.stats().backoff_s, sb.stats().backoff_s);
}

TEST(Backoff, FullJitterIsCappedAtMax) {
    BackoffPolicy policy;
    policy.base_s = 1e-3;
    policy.factor = 2.0;
    policy.max_s = 8e-3;
    // The nominal ladder caps at max_s.
    EXPECT_DOUBLE_EQ(policy.nominal_wait_s(1), 1e-3);
    EXPECT_DOUBLE_EQ(policy.nominal_wait_s(4), 8e-3);
    EXPECT_DOUBLE_EQ(policy.nominal_wait_s(10), 8e-3);
}

}  // namespace
}  // namespace press::control
