/**
 * @file
 * The datagram plane for the distributed control protocol (paper
 * §4.5): an abstract Transport interface plus the deterministic
 * in-process SimTransport backend.
 *
 * Transport models an unreliable, unordered datagram service between
 * small integer endpoints (rack workers are 0..N-1, the room worker is
 * N). The protocol driver (core/distributed, src/rt) only ever uses
 * four capabilities — send a frame, drain a destination, read the
 * clock, advance the clock — so backends are interchangeable:
 *
 *  - SimTransport (this file): frames live in in-process queues, the
 *    clock is virtual and advanced by the caller, and drop/dup/latency
 *    faults come from one deterministic Rng. Simulations over it are
 *    bit-reproducible.
 *  - UdpTransport (net/udp_transport.hh): frames travel through real
 *    non-blocking UDP sockets, the clock is the monotonic wall clock,
 *    and advancing it sleeps. Faults come from the actual network.
 *
 * Time is a millisecond clock owned by the transport and advanced by
 * the protocol driver (the control plane steps it through its retry
 * and deadline schedule each control period). poll() hands a
 * destination every frame available to it, in delivery order; with
 * zero latency and jitter the SimTransport is lossless, instantaneous,
 * and per-link FIFO — the configuration under which the distributed
 * plane is bit-identical to the monolithic ControlTree.
 */

#ifndef CAPMAESTRO_NET_TRANSPORT_HH
#define CAPMAESTRO_NET_TRANSPORT_HH

#include <cstdint>
#include <map>
#include <vector>

#include "telemetry/registry.hh"
#include "util/random.hh"

namespace capmaestro::net {

/** Fault and latency model for every link of a SimTransport. */
struct TransportConfig
{
    /** Probability a frame is silently lost. */
    double dropRate = 0.0;
    /** Probability a frame is delivered twice. */
    double dupRate = 0.0;
    /** Mean one-way latency in milliseconds. */
    double latencyMeanMs = 0.0;
    /** Uniform +/- jitter around the mean, in milliseconds. */
    double latencyJitterMs = 0.0;
    /** Probability a frame is held back (reordered past its peers). */
    double reorderRate = 0.0;
    /** Extra delay applied to held-back frames, in milliseconds. */
    double reorderExtraMs = 10.0;
    /** Seed for the transport's deterministic fault stream. */
    std::uint64_t seed = 0x5eedf00dULL;
};

/** Cumulative transport accounting (same fields on every backend). */
struct TransportStats
{
    std::size_t framesSent = 0;
    std::size_t framesDropped = 0;
    std::size_t framesDuplicated = 0;
    std::size_t framesDelivered = 0;
    std::size_t bytesSent = 0;
    /** Payload bytes actually handed to poll() callers. */
    std::size_t bytesDelivered = 0;
};

/**
 * Abstract unreliable datagram plane. Implementations must tolerate
 * arbitrary interleavings of send/poll/advance and never throw on
 * hostile traffic; loss, duplication, and reordering are allowed at
 * any rate (the §4.5 protocol on top is built for it).
 */
class Transport
{
  public:
    /** Worker address (rack index, or rack count for the room). */
    using Endpoint = std::uint32_t;

    virtual ~Transport() = default;

    /**
     * Submit a frame on link @p from -> @p to. Surviving copies become
     * visible to poll(to) once delivered (immediately, or when the
     * clock reaches their delivery time, backend-dependent).
     */
    virtual void send(Endpoint from, Endpoint to,
                      std::vector<std::uint8_t> frame) = 0;

    /** Drain every frame currently available to destination @p to. */
    virtual std::vector<std::vector<std::uint8_t>> poll(Endpoint to) = 0;

    /** One frame delivered by drain(): destination plus payload. */
    struct Delivery
    {
        Endpoint to = 0;
        std::vector<std::uint8_t> frame;
    };

    /**
     * Drain every frame currently available to any of @p locals
     * (ascending) in one pass — the event-loop primitive a host
     * process with many endpoints uses instead of polling each one.
     * The default walks poll() per endpoint; backends override it to
     * pay per ready queue instead (UdpTransport uses one epoll sweep
     * on Linux, SimTransport walks its non-empty queues), so the cost
     * per period scales with ready endpoints, not hosted ones.
     */
    virtual std::vector<Delivery>
    drain(const std::vector<Endpoint> &locals);

    /** Advance the clock to @p ms (no-op when already past). */
    virtual void advanceTo(double ms) = 0;

    /** Advance the clock by @p ms. */
    virtual void advanceBy(double ms) = 0;

    /** Current clock in milliseconds. */
    virtual double nowMs() const = 0;

    /**
     * Frames queued but not yet delivered, where the backend can know
     * (SimTransport); backends whose queues live in the kernel report 0.
     */
    virtual std::size_t inFlight() const = 0;

    /** Cumulative statistics. */
    virtual const TransportStats &stats() const = 0;

    /**
     * Attach a metrics registry (nullptr detaches). Instrumentation is
     * pure observation of values the transport already computes — it
     * draws no randomness and cannot perturb delivery.
     */
    virtual void setTelemetry(telemetry::Registry *registry) = 0;
};

/** Deterministic unreliable message plane (the simulator backend). */
class SimTransport : public Transport
{
  public:
    explicit SimTransport(TransportConfig config = {});

    /**
     * Submit a frame on link @p from -> @p to. The frame is dropped,
     * delayed, and/or duplicated according to the config; surviving
     * copies become visible to poll(to) once the clock reaches their
     * delivery time.
     */
    void send(Endpoint from, Endpoint to,
              std::vector<std::uint8_t> frame) override;

    /**
     * Drain every frame addressed to @p to whose delivery time is
     * <= now, in delivery-time order (FIFO per link at equal times).
     */
    std::vector<std::vector<std::uint8_t>> poll(Endpoint to) override;

    /**
     * Every frame due at any endpoint of @p locals (ascending): the
     * same frames, in the same order (ascending endpoint, then
     * delivery order), as poll() on each in turn, found by walking
     * only the queues that hold a due frame.
     */
    std::vector<Delivery>
    drain(const std::vector<Endpoint> &locals) override;

    void advanceTo(double ms) override;

    void advanceBy(double ms) override;

    /** Current clock in milliseconds (virtual time). */
    double nowMs() const override { return nowMs_; }

    /** Frames currently queued (any destination, any delivery time). */
    std::size_t inFlight() const override;

    const TransportStats &stats() const override { return stats_; }

    /** The transport configuration. */
    const TransportConfig &config() const { return config_; }

    void setTelemetry(telemetry::Registry *registry) override;

  private:
    /** Delivery-ordered queue per destination: (time, tiebreak). */
    using Queue =
        std::multimap<std::pair<double, std::uint64_t>,
                      std::vector<std::uint8_t>>;

    void enqueue(Endpoint to, double deliver_at,
                 std::vector<std::uint8_t> frame);
    double sampleLatency();
    /** Hand @p sink every frame of @p q due by now (poll()'s body). */
    template <typename Sink> void take(Queue &q, Sink &&sink);

    TransportConfig config_;
    util::Rng rng_;
    std::map<Endpoint, Queue> queues_;
    TransportStats stats_;
    double nowMs_ = 0.0;
    std::uint64_t order_ = 0;

    /** Handles resolved once in setTelemetry(); null-safe no-ops. */
    telemetry::Registry *registry_ = nullptr;
    telemetry::Counter mSent_;
    telemetry::Counter mDropped_;
    telemetry::Counter mDuplicated_;
    telemetry::Counter mDelivered_;
    telemetry::Counter mBytes_;
    telemetry::Counter mBytesDelivered_;
    telemetry::Gauge mQueueDepth_;
    telemetry::HistogramMetric mLatencyMs_;
};

} // namespace capmaestro::net

#endif // CAPMAESTRO_NET_TRANSPORT_HH
