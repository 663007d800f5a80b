#include "net/udp_transport.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "net/wire.hh"
#include "util/logging.hh"

namespace capmaestro::net {

namespace {

double
monotonicMs()
{
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double, std::milli>(now).count();
}

sockaddr_in
toSockaddr(const UdpPeer &peer)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(peer.port);
    if (inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
        util::fatal("udp: '%s' is not a valid IPv4 address",
                    peer.host.c_str());
    }
    return addr;
}

} // namespace

UdpConfig
UdpConfig::loopback(std::uint32_t endpoints)
{
    UdpConfig config;
    for (std::uint32_t ep = 0; ep < endpoints; ++ep) {
        config.peers[ep] = UdpPeer{"127.0.0.1", 0};
        config.local.push_back(ep);
    }
    return config;
}

UdpTransport::UdpTransport(UdpConfig config)
    : config_(std::move(config)), originMs_(monotonicMs())
{
    for (const Endpoint ep : config_.local) {
        const auto peer = config_.peers.find(ep);
        if (peer == config_.peers.end())
            util::fatal("udp: local endpoint %u missing from peer table", ep);

        const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
        if (fd < 0) {
            util::fatal("udp: socket() failed for endpoint %u: %s", ep,
                        std::strerror(errno));
        }
        const int flags = ::fcntl(fd, F_GETFL, 0);
        if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
            util::fatal("udp: cannot make endpoint %u non-blocking: %s", ep,
                        std::strerror(errno));
        }
        if (config_.bufferBytes > 0) {
            // Best effort; the kernel clamps to net.core.{r,w}mem_max
            // and the protocol treats any overflow as datagram loss.
            (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF,
                               &config_.bufferBytes,
                               sizeof(config_.bufferBytes));
            (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF,
                               &config_.bufferBytes,
                               sizeof(config_.bufferBytes));
        }

        sockaddr_in addr = toSockaddr(peer->second);
        if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) < 0) {
            util::fatal("udp: bind %s:%u failed for endpoint %u: %s",
                        peer->second.host.c_str(), peer->second.port, ep,
                        std::strerror(errno));
        }

        // Resolve an ephemeral bind so boundPort() and same-process
        // peers see the real port.
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) <
            0) {
            util::fatal("udp: getsockname failed for endpoint %u: %s", ep,
                        std::strerror(errno));
        }
        config_.peers[ep].port = ntohs(bound.sin_port);

        sockets_[ep] = fd;
    }

#ifdef __linux__
    // Readiness instance for drain(): registered once, so the per-call
    // cost is one epoll_wait plus work on ready sockets only.
    epollFd_ = ::epoll_create1(0);
    if (epollFd_ >= 0) {
        for (const auto &[ep, fd] : sockets_) {
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.u32 = ep;
            if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
                ::close(epollFd_);
                epollFd_ = -1;
                break;
            }
        }
    }
#endif
}

UdpTransport::~UdpTransport()
{
    for (const auto &[ep, fd] : sockets_)
        ::close(fd);
    if (epollFd_ >= 0)
        ::close(epollFd_);
}

void
UdpTransport::setTelemetry(telemetry::Registry *registry)
{
    registry_ = registry;
    if (registry_ == nullptr) {
        mSent_ = {};
        mDropped_ = {};
        mDelivered_ = {};
        mBytes_ = {};
        mBytesDelivered_ = {};
        return;
    }
    mSent_ = registry_->counter("capmaestro_transport_frames_sent_total",
                                {}, "Frames submitted to the transport");
    mDropped_ =
        registry_->counter("capmaestro_transport_frames_dropped_total", {},
                           "Frames refused locally (oversize, send errors)");
    mDelivered_ =
        registry_->counter("capmaestro_transport_frames_delivered_total",
                           {}, "Frames handed to poll()");
    mBytes_ = registry_->counter("capmaestro_transport_bytes_total", {},
                                 "Payload bytes submitted");
    mBytesDelivered_ =
        registry_->counter("capmaestro_transport_bytes_delivered_total",
                           {}, "Payload bytes handed to poll()");
}

int
UdpTransport::fdFor(Endpoint ep) const
{
    const auto it = sockets_.find(ep);
    if (it == sockets_.end())
        util::panic("udp: endpoint %u has no local socket", ep);
    return it->second;
}

std::uint16_t
UdpTransport::boundPort(Endpoint ep) const
{
    fdFor(ep); // asserts locality
    return config_.peers.at(ep).port;
}

void
UdpTransport::setPeer(Endpoint ep, const UdpPeer &peer)
{
    config_.peers[ep] = peer;
}

void
UdpTransport::send(Endpoint from, Endpoint to,
                   std::vector<std::uint8_t> frame)
{
    ++stats_.framesSent;
    stats_.bytesSent += frame.size();
    mSent_.inc();
    mBytes_.inc(static_cast<double>(frame.size()));

    const auto peer = config_.peers.find(to);
    if (frame.size() > kMaxFrameBytes || peer == config_.peers.end() ||
        peer->second.port == 0) {
        ++stats_.framesDropped;
        mDropped_.inc();
        return;
    }

    // Any bound local socket can carry outbound traffic; sending from
    // the frame's own endpoint keeps source addresses honest when
    // multiple endpoints live in this process.
    const int fd = sockets_.count(from) != 0 ? sockets_.at(from)
                                             : sockets_.begin()->second;
    const sockaddr_in addr = toSockaddr(peer->second);
    const ssize_t sent =
        ::sendto(fd, frame.data(), frame.size(), 0,
                 reinterpret_cast<const sockaddr *>(&addr), sizeof(addr));
    if (sent < 0 || static_cast<std::size_t>(sent) != frame.size()) {
        // EAGAIN / ENOBUFS / ECONNREFUSED and friends: plain datagram
        // loss as far as the protocol is concerned.
        ++stats_.framesDropped;
        mDropped_.inc();
    }
}

std::vector<std::vector<std::uint8_t>>
UdpTransport::poll(Endpoint to)
{
    std::vector<Delivery> got;
    drainFd(to, fdFor(to), got);
    std::vector<std::vector<std::uint8_t>> out;
    out.reserve(got.size());
    for (Delivery &d : got)
        out.push_back(std::move(d.frame));
    return out;
}

std::vector<Transport::Delivery>
UdpTransport::drain(const std::vector<Endpoint> &locals)
{
#ifdef __linux__
    if (epollFd_ >= 0) {
        if (locals != drainLocals_) {
            drainLocals_ = locals;
            const Endpoint top =
                locals.empty()
                    ? 0
                    : *std::max_element(locals.begin(), locals.end());
            drainWanted_.assign(static_cast<std::size_t>(top) + 1, 0);
            for (const Endpoint ep : locals)
                drainWanted_[ep] = 1;
        }
        std::vector<Delivery> out;
        epoll_event events[64];
        // Level-triggered and each ready socket is drained completely,
        // so one sweep over at most 64 ready fds at a time suffices.
        for (;;) {
            const int n = ::epoll_wait(epollFd_, events, 64, 0);
            if (n <= 0)
                break;
            std::size_t drained = 0;
            for (int i = 0; i < n; ++i) {
                const Endpoint ep = events[i].data.u32;
                if (ep >= drainWanted_.size() || !drainWanted_[ep])
                    continue;
                ++drained;
                drainFd(ep, fdFor(ep), out);
            }
            // A full batch may hide more ready sockets; sweep again —
            // but only if progress was made (sockets outside @p locals
            // stay ready and must not spin the loop).
            if (n < 64 || drained == 0)
                break;
        }
        return out;
    }
#endif
    return Transport::drain(locals);
}

void
UdpTransport::drainFd(Endpoint to, int fd, std::vector<Delivery> &out)
{
    // One spare byte past the cap distinguishes an exactly-cap-sized
    // datagram from a truncated oversized one.
    std::uint8_t buf[kMaxFrameBytes + 1];
    std::size_t frames = 0;
    std::size_t bytes = 0;
    for (;;) {
        const ssize_t n = ::recvfrom(fd, buf, sizeof(buf), 0, nullptr,
                                     nullptr);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                break;
            util::warn("udp: recvfrom failed on endpoint %u: %s", to,
                       std::strerror(errno));
            break;
        }
        if (static_cast<std::size_t>(n) > kMaxFrameBytes) {
            ++stats_.framesDropped;
            mDropped_.inc();
            continue;
        }
        bytes += static_cast<std::size_t>(n);
        out.push_back({to, std::vector<std::uint8_t>(buf, buf + n)});
        ++frames;
        ++stats_.framesDelivered;
    }
    stats_.bytesDelivered += bytes;
    if (registry_ != nullptr && frames != 0) {
        mDelivered_.inc(static_cast<double>(frames));
        mBytesDelivered_.inc(static_cast<double>(bytes));
    }
}

double
UdpTransport::nowMs() const
{
    return monotonicMs() - originMs_;
}

void
UdpTransport::advanceTo(double ms)
{
    const double delta = ms - nowMs();
    if (delta > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double,
                                                          std::milli>(delta));
}

void
UdpTransport::advanceBy(double ms)
{
    if (ms > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double,
                                                          std::milli>(ms));
}

} // namespace capmaestro::net
