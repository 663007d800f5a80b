/**
 * @file
 * Timing decorator over a net::Transport. Every call is forwarded to
 * the wrapped transport; the three calls a WorkerHost period spends its
 * non-protocol time in — send, drain, and the clock advances it sleeps
 * in — additionally accumulate wall time and a call count. While
 * capture is on, a copy of every sent frame is kept for the codec
 * replay. Frames, statistics and the clock all come from the wrapped
 * transport, so the host runs exactly as it would without the wrapper.
 */

#ifndef PERFBENCH_TIMED_TRANSPORT_HH
#define PERFBENCH_TIMED_TRANSPORT_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/transport.hh"

namespace perfbench {

class TimedTransport final : public capmaestro::net::Transport
{
  public:
    /** Cumulative wall time (ns) and calls per timed operation. */
    struct Counters
    {
        std::uint64_t sendNs = 0;
        std::uint64_t sendCalls = 0;
        std::uint64_t drainNs = 0;
        std::uint64_t drainCalls = 0;
        /** Drains that returned no frame. */
        std::uint64_t drainEmpty = 0;
        /** Time asleep in advanceBy()/advanceTo(). */
        std::uint64_t waitNs = 0;
        std::uint64_t waitCalls = 0;
    };

    explicit TimedTransport(std::unique_ptr<capmaestro::net::Transport> inner)
        : inner_(std::move(inner))
    {
    }

    void send(Endpoint from, Endpoint to,
              std::vector<std::uint8_t> frame) override
    {
        if (capture_)
            captured_.push_back(frame);
        const std::uint64_t t0 = nowNs();
        inner_->send(from, to, std::move(frame));
        c_.sendNs += nowNs() - t0;
        ++c_.sendCalls;
    }

    std::vector<std::vector<std::uint8_t>> poll(Endpoint to) override
    {
        return inner_->poll(to);
    }

    std::vector<Delivery>
    drain(const std::vector<Endpoint> &locals) override
    {
        const std::uint64_t t0 = nowNs();
        auto out = inner_->drain(locals);
        c_.drainNs += nowNs() - t0;
        ++c_.drainCalls;
        if (out.empty())
            ++c_.drainEmpty;
        return out;
    }

    void advanceTo(double ms) override
    {
        const std::uint64_t t0 = nowNs();
        inner_->advanceTo(ms);
        c_.waitNs += nowNs() - t0;
        ++c_.waitCalls;
    }

    void advanceBy(double ms) override
    {
        const std::uint64_t t0 = nowNs();
        inner_->advanceBy(ms);
        c_.waitNs += nowNs() - t0;
        ++c_.waitCalls;
    }

    double nowMs() const override { return inner_->nowMs(); }

    std::size_t inFlight() const override { return inner_->inFlight(); }

    const capmaestro::net::TransportStats &stats() const override
    {
        return inner_->stats();
    }

    void setTelemetry(capmaestro::telemetry::Registry *registry) override
    {
        inner_->setTelemetry(registry);
    }

    const Counters &counters() const { return c_; }

    /** Keep a copy of every frame sent from now until turned off. */
    void setCapture(bool on) { capture_ = on; }

    const std::vector<std::vector<std::uint8_t>> &captured() const
    {
        return captured_;
    }

  private:
    static std::uint64_t nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    std::unique_ptr<capmaestro::net::Transport> inner_;
    Counters c_;
    bool capture_ = false;
    std::vector<std::vector<std::uint8_t>> captured_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_TRANSPORT_HH
