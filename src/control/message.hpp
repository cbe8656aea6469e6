// Control-plane message definitions.
//
// Frame layout (little-endian):
//   magic       u16   0x5052 ("PR")
//   version     u8    1 or 2
//   type        u8    MessageType
//   seq         u32   sender sequence number
//   trace_id    u64   version 2 only: obs trace the frame belongs to
//   parent_span u64   version 2 only: causal parent span on the sender
//   len         u16   payload byte count
//   payload     len bytes
//   crc         u16   CRC-16/CCITT over everything before it
//
// Version 2 frames carry the sender's obs::TraceContext so the receiving
// endpoint can adopt it — the 16 extra header bytes are what lets a span
// tree follow a configuration across the simulated wire (and they cost
// real airtime: transfer pricing sees the larger frame). The encoder
// emits version 1 whenever there is no valid context (telemetry off, or
// no open span), so untraced traffic is byte-identical to before;
// decode() accepts both versions.
//
// Four messages cover the actuation loop: the controller pushes element
// states with SetConfig (acked), asks an endpoint to measure with
// MeasureRequest, and receives per-subcarrier SNR in centi-dB fixed point
// with MeasureReport.
//
// Types 5-13 are the control-plane *service* protocol (control/service.hpp):
// a client opens a session with Hello, submits deadline-tagged
// OptimizeRequests and epoch-fenced MutateRequests, and receives either a
// terminal reply or an explicit Reject — the service never drops an
// admitted request silently. All service frames reuse the same framing,
// CRC and optional trace header as the actuation messages.
// Types 14-16 are the live introspection plane (v2-style growth: a new
// type value on the same framing, so old clients never see — and never
// need to decode — the new frames): Subscribe opens a telemetry stream
// on the session, TelemetryFrame pushes one `press.timeseries/v1`
// window document, FlightTap notifies subscribers that the service just
// dumped its flight recorder (watchdog trip or SLO burn alarm).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "control/wire.hpp"
#include "obs/trace.hpp"
#include "press/config.hpp"

namespace press::control {

enum class MessageType : std::uint8_t {
    kSetConfig = 1,
    kSetConfigAck = 2,
    kMeasureRequest = 3,
    kMeasureReport = 4,
    // Service protocol (control/service.hpp).
    kHello = 5,
    kHelloAck = 6,
    kOptimizeRequest = 7,
    kOptimizeReply = 8,
    kMutateRequest = 9,
    kMutateReply = 10,
    kReject = 11,
    kStatusRequest = 12,
    kStatusReply = 13,
    // Introspection plane (streaming telemetry; see control/service.hpp).
    kSubscribe = 14,
    kTelemetryFrame = 15,
    kFlightTap = 16,
};

/// Why the service refused a request (Reject::reason).
enum class RejectReason : std::uint8_t {
    kQueueFull = 1,     ///< bounded request queue saturated
    kExpired = 2,       ///< deadline passed while the request sat queued
    kShed = 3,          ///< load shedding (low priority under overload)
    kBadRequest = 4,    ///< unknown array/link/searcher/objective
    kDuplicate = 5,     ///< sequence number already seen this session
    kBackpressure = 6,  ///< session outbox full (slow reader)
};

const char* to_string(RejectReason reason);

/// Controller -> array: apply this configuration.
struct SetConfig {
    std::uint16_t array_id = 0;
    surface::Config config;
};

/// Array -> controller: configuration applied (status 0) or rejected.
struct SetConfigAck {
    std::uint16_t array_id = 0;
    std::uint8_t status = 0;
};

/// Controller -> receiver endpoint: sound link `link_id` with `repeats`
/// training repetitions.
struct MeasureRequest {
    std::uint16_t link_id = 0;
    std::uint16_t repeats = 10;
};

/// Receiver endpoint -> controller: measured per-subcarrier SNR.
struct MeasureReport {
    std::uint16_t link_id = 0;
    /// SNR per used subcarrier in centi-dB (0.01 dB resolution, +-327 dB
    /// range), the quantization a 2-byte wire format imposes.
    std::vector<std::int16_t> snr_centi_db;

    void set_snr_db(const std::vector<double>& snr_db);
    std::vector<double> snr_db() const;
};

/// Client -> service: open (or re-tune) a session. `priority_cap` bounds
/// every later request's priority — an operator knob to tame a client.
struct Hello {
    std::uint8_t priority_cap = 255;
};

/// Service -> client: session accepted.
struct HelloAck {
    std::uint16_t session_id = 0;
    std::uint64_t epoch = 0;
};

/// Client -> service: run one optimize cycle. The deadline bounds queue
/// wait on the service's SimClock (an expired request is rejected, never
/// run late); the budget is the simulated coherence-time the search may
/// spend once started.
struct OptimizeRequest {
    std::uint16_t array_id = 0;
    std::uint8_t objective = 1;  ///< ServiceObjective
    std::uint16_t link_id = 0;
    std::uint8_t searcher = 1;  ///< ServiceSearcher
    std::uint32_t budget_us = 20000;
    std::uint32_t deadline_us = 0;  ///< relative to arrival; 0 = default
    std::uint8_t priority = 128;    ///< larger = more important
};

/// Objective selector carried by OptimizeRequest::objective. Values 1-2
/// are single-link objectives over the request's link_id. Values >= 3
/// are composite multi-link PRESETS over every registered link
/// (docs/OBJECTIVES.md has the exact term semantics); for
/// kNullVictim the request's link_id names the victim link to null and
/// the scene must have at least two links.
enum class ServiceObjective : std::uint8_t {
    kMinSnr = 1,
    kMeanSnr = 2,
    kMaxMinFair = 3,  ///< max-min fairness over per-link mean SNRs
    kSumMean = 4,     ///< sum of per-link mean SNRs
    kQosFloor = 5,    ///< sum of mean SNRs with a 10 dB hinge floor
    kNullVictim = 6,  ///< serve all links, null link_id
};

/// Searcher selector carried by OptimizeRequest::searcher.
enum class ServiceSearcher : std::uint8_t {
    kGreedy = 1,
    kExhaustive = 2,
    kRandom = 3,
    kAnnealing = 4,
    kGenetic = 5,
};

/// Service -> client: the terminal reply to an executed OptimizeRequest.
struct OptimizeReply {
    std::uint8_t status = 0;  ///< 0 ok, 1 search failed/degraded
    std::uint64_t epoch = 0;  ///< scene epoch the cycle ran against
    std::int32_t best_score_centi = 0;  ///< objective score, 0.01 units
    std::uint32_t evaluations = 0;
    std::uint32_t queue_wait_us = 0;  ///< wall time queued
    std::uint32_t compute_us = 0;     ///< wall time searching
};

/// Client -> service: set one element's state. Fenced by epochs: applied
/// at the next epoch boundary, never while an optimize cycle is running.
struct MutateRequest {
    std::uint16_t array_id = 0;
    std::uint16_t element = 0;
    std::uint8_t state = 0;
};

/// Service -> client: the mutation landed (status 0) in `epoch`.
struct MutateReply {
    std::uint8_t status = 0;
    std::uint64_t epoch = 0;
};

/// Service -> client: explicit refusal (see RejectReason). Every admitted
/// or refused request produces exactly one terminal frame; Reject is the
/// refusal half of that contract.
struct Reject {
    std::uint8_t reason = 0;
    std::uint16_t queue_depth = 0;
};

/// Client -> service: sample the service counters.
struct StatusRequest {};

/// Service -> client: live service counters. `uptime_s` (millisecond
/// wire resolution) and `revision` — the monotonic metrics-snapshot
/// revision of the service's Timeseries sampler — let a poller detect a
/// daemon restart: either one moving backwards between polls means a
/// different process is answering.
struct StatusReply {
    std::uint64_t epoch = 0;
    std::uint16_t queue_depth = 0;
    std::uint64_t served = 0;
    std::uint64_t rejected = 0;
    std::uint64_t expired = 0;
    double uptime_s = 0.0;       ///< service clock since construction
    std::uint64_t revision = 0;  ///< telemetry snapshot revision
};

/// Subscribe::flags bits.
inline constexpr std::uint8_t kSubscribeExemplars = 0x01;
inline constexpr std::uint8_t kSubscribeFlightTap = 0x02;

/// Client -> service: stream telemetry frames on this session. The
/// service answers immediately with the newest TelemetryFrame (the
/// subscription ack) and then pushes one frame roughly every
/// `interval_us` of service-clock time, filtered to metric names
/// starting with `prefix`. `interval_us == 0` cancels the stream (also
/// acked with a final frame). Telemetry pushes ride the normal session
/// outbox but are drop-oldest under backpressure — they can displace
/// each other, never a reply.
struct Subscribe {
    std::string prefix;                   ///< metric name filter ("" = all)
    std::uint32_t interval_us = 500000;   ///< push cadence; 0 = unsubscribe
    std::uint8_t flags =
        kSubscribeExemplars | kSubscribeFlightTap;
};

/// Service -> client: one sampled telemetry window. `payload` is a
/// `press.timeseries/v1` JSON document (obs/timeseries.hpp); `revision`
/// duplicates the document's revision so a client can drop stale or
/// repeated windows without parsing.
struct TelemetryFrame {
    std::uint64_t revision = 0;
    std::string payload;
};

/// Why the service dumped its flight recorder (FlightTap::reason).
enum class FlightTapReason : std::uint8_t {
    kWatchdog = 1,  ///< stuck/failed optimize cycle
    kSloBurn = 2,   ///< deadline-miss burn rate crossed the alarm
};

const char* to_string(FlightTapReason reason);

/// Service -> client (subscribers with kSubscribeFlightTap): the flight
/// recorder was just dumped; `path` is where the press.flight/v1
/// document landed (empty if the write failed).
struct FlightTap {
    std::uint8_t reason = 0;     ///< FlightTapReason
    std::uint64_t revision = 0;  ///< telemetry revision at the dump
    std::string path;
};

using Message =
    std::variant<SetConfig, SetConfigAck, MeasureRequest, MeasureReport,
                 Hello, HelloAck, OptimizeRequest, OptimizeReply,
                 MutateRequest, MutateReply, Reject, StatusRequest,
                 StatusReply, Subscribe, TelemetryFrame, FlightTap>;

/// Serializes a message with header, sequence number and CRC as a
/// version 1 frame (no trace header).
std::vector<std::uint8_t> encode(const Message& msg, std::uint32_t seq);

/// Serializes with a causal context: a version 2 frame carrying `trace`
/// when it is valid, else a version 1 frame identical to the overload
/// above. Senders pass obs::current_context() to let the receiving
/// endpoint adopt their open span.
std::vector<std::uint8_t> encode(const Message& msg, std::uint32_t seq,
                                 const obs::TraceContext& trace);

/// Decoded message plus its header sequence number and — for version 2
/// frames — the sender's causal context (invalid for version 1).
struct Decoded {
    Message message;
    std::uint32_t seq = 0;
    obs::TraceContext trace;
};

/// Parses a buffer; throws ProtocolError on any malformation.
Decoded decode(const std::vector<std::uint8_t>& buffer);

/// Wire size of a message once encoded (header + payload + CRC).
std::size_t encoded_size(const Message& msg);

}  // namespace press::control
