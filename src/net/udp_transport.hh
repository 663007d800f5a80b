/**
 * @file
 * Real-socket Transport backend: frames travel through non-blocking
 * UDP sockets and time is the monotonic wall clock.
 *
 * The endpoint abstraction is unchanged from SimTransport — small
 * integers, rack workers 0..N-1 and the room worker N — but each
 * endpoint now maps to a UDP address through a peer table supplied in
 * the config. Endpoints listed in UdpConfig::local get a socket bound
 * in this process (a single-process loopback run binds all of them; a
 * capmaestro_worker daemon binds exactly one). poll() drains the bound
 * socket completely, so a burst of retransmissions never wedges in the
 * kernel buffer, and refuses datagrams over wire::kMaxFrameBytes — a
 * hostile or corrupt oversized datagram is counted and dropped before
 * any decoding happens downstream.
 *
 * The clock is CLOCK_MONOTONIC relative to the transport's creation,
 * reported in milliseconds like the sim clock; advanceTo()/advanceBy()
 * sleep the calling thread, which is what turns the protocol driver's
 * deadline schedule into real pacing. Unlike SimTransport there is no
 * fault injection — loss, duplication, and reordering come from the
 * actual network (essentially none on loopback), and the §4.5 protocol
 * tolerates whatever occurs.
 */

#ifndef CAPMAESTRO_NET_UDP_TRANSPORT_HH
#define CAPMAESTRO_NET_UDP_TRANSPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/transport.hh"

namespace capmaestro::net {

/** One row of the endpoint -> UDP address peer table. */
struct UdpPeer
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
};

/** Socket layout for a UdpTransport. */
struct UdpConfig
{
    /**
     * Address of every endpoint in the deployment, local or not.
     * Port 0 on a *local* endpoint binds an ephemeral port (useful for
     * tests; read it back with boundPort() and advertise via setPeer()
     * on the other side).
     */
    std::map<Transport::Endpoint, UdpPeer> peers;

    /** Endpoints whose sockets this process binds and drains. */
    std::vector<Transport::Endpoint> local;

    /**
     * SO_RCVBUF/SO_SNDBUF request per socket, bytes (0 = kernel
     * default). Deep-tree hosts widen this so a wide fan-in socket
     * survives a whole period burst while its process is descheduled;
     * the kernel clamps the request to net.core.{r,w}mem_max.
     */
    int bufferBytes = 0;

    /**
     * All-endpoints-in-this-process layout for endpoints 0..n-1 on
     * 127.0.0.1 with ephemeral ports: the single-process loopback mode
     * of capmaestro_run --transport=udp.
     */
    static UdpConfig loopback(std::uint32_t endpoints);
};

/** Transport over non-blocking UDP sockets and the monotonic clock. */
class UdpTransport : public Transport
{
  public:
    /**
     * Opens and binds one non-blocking socket per endpoint listed in
     * @p config.local. fatal()s on socket/bind failure or on a local
     * endpoint missing from the peer table.
     */
    explicit UdpTransport(UdpConfig config);

    ~UdpTransport() override;

    UdpTransport(const UdpTransport &) = delete;
    UdpTransport &operator=(const UdpTransport &) = delete;

    /**
     * Transmit @p frame to the peer-table address of @p to. Frames over
     * wire::kMaxFrameBytes are counted as dropped, not sent. A full
     * socket buffer (EAGAIN) or any other transient send failure also
     * counts the frame dropped — UDP semantics, the protocol retries.
     */
    void send(Endpoint from, Endpoint to,
              std::vector<std::uint8_t> frame) override;

    /**
     * Drain every datagram currently readable on @p to's socket (which
     * must be local). Oversized datagrams are dropped and counted.
     */
    std::vector<std::vector<std::uint8_t>> poll(Endpoint to) override;

    /**
     * Event-loop drain: one epoll sweep over the local sockets (Linux;
     * the generic per-endpoint walk elsewhere), so a host process with
     * thousands of endpoints pays per *ready* socket, not per socket.
     * Endpoints in @p locals must all be local to this transport. The
     * lookup of @p locals is built on the first call and rebuilt only
     * when @p locals changes; a ready socket outside it keeps its
     * frames for a later drain.
     */
    std::vector<Delivery>
    drain(const std::vector<Endpoint> &locals) override;

    /** Sleep until the monotonic clock reaches @p ms (no-op if past). */
    void advanceTo(double ms) override;

    /** Sleep for @p ms. */
    void advanceBy(double ms) override;

    /** Monotonic milliseconds since this transport was constructed. */
    double nowMs() const override;

    /** Kernel-resident queues are invisible; always 0. */
    std::size_t inFlight() const override { return 0; }

    const TransportStats &stats() const override { return stats_; }

    void setTelemetry(telemetry::Registry *registry) override;

    /** Port actually bound for local endpoint @p ep (resolves port 0). */
    std::uint16_t boundPort(Endpoint ep) const;

    /**
     * Update the peer-table address of @p ep — how tests advertise
     * ephemeral ports between transports after construction.
     */
    void setPeer(Endpoint ep, const UdpPeer &peer);

  private:
    int fdFor(Endpoint ep) const;
    /** Drain one readable socket completely into @p out (the poll()
     *  body). */
    void drainFd(Endpoint to, int fd, std::vector<Delivery> &out);

    UdpConfig config_;
    /** Local endpoint -> bound socket fd. */
    std::map<Endpoint, int> sockets_;
    /** Readiness instance over the local sockets (-1 off Linux). */
    int epollFd_ = -1;
    /** The locals of the last drain() and, by endpoint, whether each
     *  endpoint is one of them. */
    std::vector<Endpoint> drainLocals_;
    std::vector<char> drainWanted_;
    TransportStats stats_;
    /** CLOCK_MONOTONIC at construction; nowMs() is measured from it. */
    double originMs_ = 0.0;

    telemetry::Registry *registry_ = nullptr;
    telemetry::Counter mSent_;
    telemetry::Counter mDropped_;
    telemetry::Counter mDelivered_;
    telemetry::Counter mBytes_;
    telemetry::Counter mBytesDelivered_;
};

} // namespace capmaestro::net

#endif // CAPMAESTRO_NET_UDP_TRANSPORT_HH
