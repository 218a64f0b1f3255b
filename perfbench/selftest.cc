/**
 * @file
 * Self-tests for the benchmark's own C++ observation tools (trace.hh):
 * the DeliveryProbe's send/deliver pairing and the tracer's span
 * nesting.  Exit status 0 when every check holds.
 *
 *   ctest --test-dir .bench_build/perfbench
 */

#include <cstdio>
#include <string>

#include "trace.hh"

namespace {

int failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
        ++failures;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using perfbench::LatencyProbe;
using perfbench::Tracer;

/** A simulated clock the test sets by hand. */
struct ManualClock
{
    nectar::sim::Tick now = 0;
    LatencyProbe::Clock
    clock()
    {
        return [this] { return now; };
    }
};

void
probePairsSendWithDelivery()
{
    ManualClock c;
    LatencyProbe p(c.clock());
    c.now = 100;
    p.onReliableSend(1, 2, 0, 7, 64);
    c.now = 350;
    p.onDeliver(1, 2, 0, 7, true, 64);
    EXPECT(p.latencies().size() == 1);
    EXPECT(p.latencies().at(0) == 250);
    EXPECT(p.unmatched() == 0 && p.duplicates() == 0);
}

void
probeKeysMulticastMembersByDestination()
{
    // One reliable multicast: the same (src, msgId) to two members,
    // each paired with its own delivery.
    ManualClock c;
    LatencyProbe p(c.clock());
    c.now = 10;
    p.onReliableSend(1, 2, 0, 9, 8);
    p.onReliableSend(1, 3, 0, 9, 8);
    c.now = 40;
    p.onDeliver(1, 3, 0, 9, true, 8);
    c.now = 70;
    p.onDeliver(1, 2, 0, 9, true, 8);
    EXPECT(p.latencies().size() == 2);
    EXPECT(p.latencies().at(0) == 30);
    EXPECT(p.latencies().at(1) == 60);
}

void
probeCountsDuplicatesAndUnmatched()
{
    ManualClock c;
    LatencyProbe p(c.clock());
    p.onReliableSend(1, 2, 0, 1, 8);
    p.onReliableSend(1, 2, 0, 2, 8);
    c.now = 5;
    p.onDeliver(1, 2, 0, 1, true, 8);
    c.now = 9;
    p.onDeliver(1, 2, 0, 1, true, 8); // duplicate: not re-timed
    p.onDeliver(4, 2, 0, 1, true, 8); // no matching send
    p.onDeliver(1, 2, 0, 3, false, 8); // datagram: ignored
    EXPECT(p.latencies().size() == 1);
    EXPECT(p.latencies().at(0) == 5);
    EXPECT(p.duplicates() == 1);
    EXPECT(p.unmatched() == 1);
}

void
tracerNestsSpansAndRecordsOnlyWhenEnabled()
{
    Tracer t(false);
    {
        Tracer::Scope s(t, "off", 0);
        EXPECT(s.end() >= 0);
    }
    EXPECT(t.spans().empty());

    t.setEnabled(true);
    {
        Tracer::Scope outer(t, "outer", 3);
        {
            Tracer::Scope a(t, "a", 3);
        }
        Tracer::Scope b(t, "b", 4);
        b.end();
        Tracer::Scope c(t, "c", 4); // closed by its destructor
    }
    const auto &s = t.spans();
    EXPECT(s.size() == 4);
    if (s.size() == 4) {
        EXPECT(s[0].name == "outer" && s[0].parent == -1);
        EXPECT(s[1].name == "a" && s[1].parent == 0);
        EXPECT(s[2].name == "b" && s[2].parent == 0 && s[2].request == 4);
        EXPECT(s[3].name == "c" && s[3].parent == 0);
        EXPECT(s[1].startNs >= s[0].startNs && s[3].endNs <= s[0].endNs);
        EXPECT(s[2].startNs >= s[1].endNs);
    }
}

} // namespace

int
main()
{
    probePairsSendWithDelivery();
    probeKeysMulticastMembersByDestination();
    probeCountsDuplicatesAndUnmatched();
    tracerNestsSpansAndRecordsOnlyWhenEnabled();
    if (failures == 0)
        std::printf("selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
