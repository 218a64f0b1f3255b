/**
 * @file
 * The benchmark's own observation tools: host-time spans recorded
 * around calls into the simulator's layers, and a DeliveryProbe that
 * pairs each reliable send with its delivery to give per-message
 * simulated latency.  Neither touches simulator state; a traced run
 * must reproduce the untraced run's outputs exactly.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/types.hh"
#include "transport/probe.hh"

namespace perfbench {

/** One host-time interval, kept in memory until the run ends. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0; ///< steady_clock, relative to the tracer
    std::int64_t endNs = 0;
    int parent = -1;          ///< index of the enclosing span, or -1
    std::uint64_t request = 0; ///< spans of one request share this id
};

/**
 * Times nested phases on the host clock.  Every Scope measures its
 * duration; only an enabled tracer keeps the span.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : _enabled(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    void setEnabled(bool on) { _enabled = on; }
    bool enabled() const { return _enabled; }

    /** A phase in progress; closes at end() or destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name, std::uint64_t request)
            : _t(t), _start(nowNs(t))
        {
            if (_t._enabled) {
                _index = static_cast<int>(_t._spans.size());
                int parent = _t._open.empty() ? -1 : _t._open.back();
                _t._spans.push_back(
                    Span{std::move(name), _start, _start, parent, request});
                _t._open.push_back(_index);
            }
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope() { end(); }

        /** Close the span; returns its duration in seconds. */
        double
        end()
        {
            if (!_done) {
                _done = true;
                _end = nowNs(_t);
                if (_index >= 0) {
                    _t._spans[static_cast<std::size_t>(_index)].endNs = _end;
                    _t._open.pop_back();
                }
            }
            return static_cast<double>(_end - _start) * 1e-9;
        }

      private:
        Tracer &_t;
        std::int64_t _start;
        std::int64_t _end = 0;
        int _index = -1;
        bool _done = false;
    };

    const std::vector<Span> &spans() const { return _spans; }

  private:
    static std::int64_t
    nowNs(const Tracer &t)
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - t._origin)
            .count();
    }

    bool _enabled;
    std::chrono::steady_clock::time_point _origin =
        std::chrono::steady_clock::now();
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/**
 * Per-message simulated latency: reliable send to first delivery,
 * keyed by (src, msgId, dst) so each member of a reliable multicast
 * pairs with its own delivery.  A duplicate delivery is counted, not
 * re-timed.  @p clock gives the simulated now (a test can fake it).
 * Single-threaded: attach it to a single-queue system only.
 */
class LatencyProbe final : public nectar::transport::DeliveryProbe
{
  public:
    using Address = nectar::transport::CabAddress;
    using Clock = std::function<nectar::sim::Tick()>;

    explicit LatencyProbe(Clock clock) : _clock(std::move(clock)) {}

    void
    onReliableSend(Address src, Address dst, std::uint16_t,
                   std::uint32_t msgId, std::size_t) override
    {
        _sent.emplace(Key{src, msgId, dst}, _clock());
    }

    void
    onReliableOutcome(Address, Address, std::uint16_t, std::uint32_t,
                      bool) override
    {}

    void
    onDatagramSend(Address, Address, std::uint16_t,
                   std::uint32_t) override
    {}

    void
    onDeliver(Address src, Address dst, std::uint16_t,
              std::uint32_t msgId, bool reliable, std::size_t) override
    {
        if (!reliable)
            return;
        auto it = _sent.find(Key{src, msgId, dst});
        if (it == _sent.end()) {
            ++_unmatched;
            return;
        }
        if (it->second.delivered) {
            ++_duplicates;
            return;
        }
        it->second.delivered = true;
        _latencies.push_back(_clock() - it->second.sentAt);
    }

    void onCrash(Address) override {}
    void onRestart(Address) override {}

    /** Simulated send-to-deliver times (ticks), in delivery order. */
    const std::vector<nectar::sim::Tick> &latencies() const
    {
        return _latencies;
    }
    /** Deliveries with no recorded send: a pairing error. */
    std::uint64_t unmatched() const { return _unmatched; }
    /** Repeat deliveries of an already paired message. */
    std::uint64_t duplicates() const { return _duplicates; }

  private:
    using Key = std::tuple<Address, std::uint32_t, Address>;
    struct Sent
    {
        explicit Sent(nectar::sim::Tick t) : sentAt(t) {}
        nectar::sim::Tick sentAt;
        bool delivered = false;
    };

    Clock _clock;
    std::map<Key, Sent> _sent;
    std::vector<nectar::sim::Tick> _latencies;
    std::uint64_t _unmatched = 0;
    std::uint64_t _duplicates = 0;
};

} // namespace perfbench
