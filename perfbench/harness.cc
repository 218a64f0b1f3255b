/**
 * @file
 * nectar_bench: runs one benchmark workload against the simulator's
 * public API and prints every repetition's raw measurements as one
 * JSON document on standard output.  perfbench/run.py turns that
 * document into the benchmark's metrics and checks its outputs.
 *
 *   nectar_bench --workload NAME --seed N --seconds S --trace 0|1
 *
 * One repetition builds the workload's inputs from the seed, sets up
 * a fresh system, runs it to drain and reads the report; repetitions
 * continue until S seconds have passed.  The first is a warm-up.
 * Each repetition also times its run phase in fixed pieces (slices),
 * the same pieces in every repetition, so that run.py can take each
 * piece's fastest time across repetitions.
 * With --trace 1 repetitions alternate between untraced and traced
 * (spans kept, DeliveryProbe attached), so the two can be compared.
 *
 * Workloads (README.md says why each exists):
 *   allreduce_fabric16  32-member 2048 B allreduce on fabric16,
 *                       sequential engine; after the timed loop the same
 *                       inputs also run on ParallelEngine with 4 threads
 *                       (once, or three times with --trace 1), whose
 *                       outputs must equal the sequential engine's
 *   serving_single_hub  a three-rung S1-style Poisson ladder on an
 *                       8-CAB HUB
 *   chaos_mesh          generated fault plans through runCase on the
 *                       default 2x2x2 mesh
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collectives/group.hh"
#include "fault/fuzz.hh"
#include "fault/generate.hh"
#include "nectarine/nectarine.hh"
#include "nectarine/system.hh"
#include "serving/serving.hh"
#include "serving/sweep.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "topo/topofile.hh"
#include "trace.hh"
#include "workload/allreduce.hh"

namespace {

using namespace nectar;
using perfbench::LatencyProbe;
using perfbench::Tracer;
using Scope = perfbench::Tracer::Scope;
using Values = std::map<std::string, double>;

// ----- Workload inputs (fixed; only the seed varies) -------------------

constexpr int allreduceMembers = 32;
constexpr std::uint32_t allreduceBytes = 2048;
constexpr int allreduceRounds = 4;
constexpr int parallelThreads = 4;
/** Equal simulated-time pieces the sequential allreduce run is timed
 *  in (each a few milliseconds of host time). */
constexpr int allreduceSlices = 32;

// Three rungs from S1's start at 1.5x steps (50k, 75k, 112.5k rps): the
// last is past the single HUB's ~80k rps capacity, so the knee is
// inside the ladder.  S1's own 1.8x steps overload its third rung 2x,
// where about one ladder in two hundred exhausts an RPC's retries; at
// 1.5x none of a thousand did.
constexpr double servingStartRps = 50'000;
constexpr double servingGrowth = 1.5;
constexpr int servingSteps = 3;
/** Independent replications per rung, merged: enough RPCs at the
 *  latency rung (~1.9k) for a p99 with ten samples beyond it, and a
 *  per-seed workload size that varies less. */
constexpr int servingReplicas = 4;
constexpr int servingCabs = 8;
/** Equal simulated-time pieces of the arrival window each replication's
 *  run is timed in; the last piece also drains the queue.  Arrivals
 *  keep the queue busy until the window closes, so every cut point is
 *  reached with events still pending. */
constexpr int servingSlices = 8;
/** The rung whose latency is reported: well below the knee. */
constexpr int servingLatencyRung = 0;

// Enough plans that the mix of long and short cases, which varies by
// seed, averages out within one repetition.
constexpr int chaosCasesPerRep = 300;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** One repetition: host timings, deterministic outputs and counts. */
struct Rep
{
    bool traced = false;
    Values host;     ///< host seconds per phase
    Values outputs;  ///< deterministic model outputs
    Values counters; ///< deterministic per-layer counts
    Values probe;    ///< DeliveryProbe bookkeeping (traced only)
    std::map<std::string, std::string> fingerprints;
    std::vector<double> caseSeconds; ///< chaos cases / serving rungs
    /** Host seconds of each fixed piece of the run phase; the pieces
     *  are the same in every repetition of one invocation. */
    std::vector<double> sliceSeconds;
    sim::Tick simEnd = 0; ///< simulated time the run drained at
    std::vector<sim::Tick> msgLatency;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** FNV-1a over text: folds a report's rendering into one value. */
std::uint64_t
fnv(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ULL;

/** Host seconds since @p t0. */
double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ----- Counter collection (after the run; never inside timing) --------

void
addQueue(Values &c, sim::EventQueue &q)
{
    c["sim.events"] += static_cast<double>(q.executedCount());
    c["sim.pool_size"] += static_cast<double>(q.poolSize());
    c["sim.cascades"] += static_cast<double>(q.cascadeCount());
    c["sim.lazy_rearms"] += static_cast<double>(q.lazyRearmCount());
}

void
addFiber(Values &c, const phys::FiberLink *f)
{
    if (!f)
        return;
    c["phys.bytes_sent"] += static_cast<double>(f->bytesSent());
    c["phys.items_dropped"] += static_cast<double>(f->itemsDropped());
}

/** Sum every component's public counters over @p sys. */
void
collectSystem(nectarine::NectarSystem &sys, sim::Tick simNow, Values &c)
{
    topo::Topology &t = sys.topo();
    for (int h = 0; h < t.numHubs(); ++h) {
        const hub::HubStats &s = t.hubAt(h).stats();
        c["hub.packets_forwarded"] +=
            static_cast<double>(s.packetsForwarded.value());
        c["hub.data_bytes"] += static_cast<double>(s.dataBytes.value());
        c["hub.opens_ok"] += static_cast<double>(s.opensOk.value());
        c["hub.opens_failed"] += static_cast<double>(s.opensFailed.value());
        c["hub.queue_overflows"] +=
            static_cast<double>(s.queueOverflows.value());
        c["hub.cmd_abandons"] += static_cast<double>(s.cmdAbandons.value());
        c["hub.stuck_drops"] += static_cast<double>(s.stuckDrops.value());
    }
    for (const auto &l : t.hubLinks()) {
        addFiber(c, l.ab);
        addFiber(c, l.ba);
    }
    double busy = 0;
    for (std::size_t i = 0; i < sys.siteCount(); ++i) {
        nectarine::CabSite &site = sys.site(i);
        const auto &fp = t.endpointFibers(site.at.hubIndex, site.at.port);
        addFiber(c, fp.forward);
        addFiber(c, fp.reverse);

        cab::CabStats &cs = site.board->stats();
        c["cab.tx_packets"] += static_cast<double>(cs.txPackets.value());
        c["cab.rx_packets"] += static_cast<double>(cs.rxPackets.value());
        c["cab.rx_dropped"] += static_cast<double>(cs.rxDropped.value());
        busy += static_cast<double>(site.board->cpu().busyTicks());
        c["cabos.thread_switches"] +=
            static_cast<double>(site.kernel->threadSwitches());
        c["cabos.threads_spawned"] +=
            static_cast<double>(site.kernel->threadsSpawned());

        datalink::DatalinkStats &ds = site.datalink->stats();
        c["datalink.packets_sent"] +=
            static_cast<double>(ds.packetsSent.value());
        c["datalink.route_timeouts"] +=
            static_cast<double>(ds.routeTimeouts.value());
        c["datalink.recoveries"] += static_cast<double>(ds.recoveries.value());
        c["datalink.send_failures"] +=
            static_cast<double>(ds.sendFailures.value());

        transport::TransportStats &ts = site.transport->stats();
        c["transport.packets_sent"] +=
            static_cast<double>(ts.packetsSent.value());
        c["transport.retransmissions"] +=
            static_cast<double>(ts.retransmissions.value());
        c["transport.rto_backoffs"] +=
            static_cast<double>(ts.rtoBackoffs.value());
        c["transport.request_retries"] +=
            static_cast<double>(ts.requestRetries.value());
        c["collectives.mcast_hw_packets"] +=
            static_cast<double>(ts.mcastHwPackets.value());
        c["collectives.mcast_unicast_packets"] +=
            static_cast<double>(ts.mcastUnicastPackets.value());
        c["collectives.mcast_fallbacks"] +=
            static_cast<double>(ts.mcastFallbacks.value());
    }
    c["nectarine.sites"] += static_cast<double>(sys.siteCount());
    c["cab.cpu_busy_ticks"] += busy;
    c["cab.cpu_capacity_ticks"] +=
        static_cast<double>(simNow) * static_cast<double>(sys.siteCount());
}

// ----- allreduce_fabric16 -----------------------------------------------

std::string
fabricPath()
{
    return std::string(NECTAR_FABRIC_DIR) + "/fabric16.topo";
}

/** Two members per HUB, drawn from the seed: the load stays spread
 *  over every trunk while the exact CABs vary. */
std::vector<std::size_t>
allreduceSites(const topo::TopologyDescription &desc, std::uint64_t seed)
{
    std::vector<std::vector<std::size_t>> byHub(
        static_cast<std::size_t>(desc.numHubs()));
    for (std::size_t i = 0; i < desc.cabs.size(); ++i)
        byHub[static_cast<std::size_t>(desc.cabs[i].hub)].push_back(i);
    sim::Random rng(seed, 0xa11ed0ce);
    std::vector<std::size_t> sites;
    const int perHub = allreduceMembers / desc.numHubs();
    for (auto &cabs : byHub) {
        for (int k = 0; k < perHub; ++k) {
            const auto first = static_cast<std::size_t>(k);
            const std::size_t j = first + rng.below(static_cast<std::uint32_t>(
                                              cabs.size() - first));
            std::swap(cabs[first], cabs[j]);
            sites.push_back(cabs[first]);
        }
    }
    std::sort(sites.begin(), sites.end());
    return sites;
}

/**
 * One allreduce repetition.  With @p drainTick (the simulated time the
 * queue drains at, known from an earlier repetition) the sequential
 * run is timed in allreduceSlices equal simulated-time pieces; without
 * it, or on the parallel engine, as one piece.
 */
Rep
runAllreduce(const Options &opt, int threads, Tracer &tr,
             std::uint64_t rep, sim::Tick drainTick)
{
    Rep r;
    r.traced = tr.enabled();
    Scope total(tr, "rep", rep);

    Scope parse(tr, "setup.parse", rep);
    const topo::TopologyDescription desc = topo::loadTopologyFile(fabricPath());
    r.host["parse_s"] = parse.end();

    Scope build(tr, "setup.build", rep);
    sim::EventQueue eq;
    std::unique_ptr<sim::SequentialShardSet> seq;
    std::unique_ptr<sim::ParallelEngine> par;
    sim::ShardSet *shards = nullptr;
    if (threads > 1) {
        par = std::make_unique<sim::ParallelEngine>(desc.numHubs(), threads);
        shards = par.get();
    } else {
        seq = std::make_unique<sim::SequentialShardSet>(eq, desc.numHubs());
        shards = seq.get();
    }
    auto sys = nectarine::NectarSystem::fromDescription(*shards, desc);
    r.host["build_s"] = build.end();

    // Traced sequential runs only: the probe reads the one queue's clock.
    std::unique_ptr<LatencyProbe> probe;
    if (r.traced && !par) {
        probe = std::make_unique<LatencyProbe>([&eq] { return eq.now(); });
        sys->attachDeliveryProbe(probe.get());
    }

    Scope setupWl(tr, "setup.workload", rep);
    nectarine::Nectarine api(*sys);
    collective::GroupDirectory groups;
    workload::AllreduceConfig cfg;
    cfg.members = allreduceMembers;
    cfg.bytes = allreduceBytes;
    cfg.rounds = allreduceRounds;
    cfg.seed = static_cast<std::uint32_t>(opt.seed);
    workload::AllreduceWorkload w(api, groups, allreduceSites(desc, opt.seed),
                                  cfg);
    r.host["workload_s"] = setupWl.end();

    Scope run(tr, "run", rep);
    sim::Tick simNow = 0;
    if (par) {
        par->run();
    } else {
        // runUntil fires the same events in the same order as run();
        // the last piece drains the queue, so now() ends at the drain.
        for (int k = 1; drainTick > 0 && k < allreduceSlices; ++k) {
            const auto t0 = std::chrono::steady_clock::now();
            eq.runUntil(drainTick * static_cast<sim::Tick>(k) /
                        allreduceSlices);
            r.sliceSeconds.push_back(since(t0));
        }
        const auto t0 = std::chrono::steady_clock::now();
        eq.run();
        r.sliceSeconds.push_back(since(t0));
    }
    r.host["run_s"] = run.end();
    if (par)
        r.sliceSeconds.push_back(r.host["run_s"]);

    Scope verify(tr, "verify", rep);
    Scope rep_(tr, "workload.report", rep);
    const workload::AllreduceReport ar = w.report();
    r.host["report_s"] = rep_.end();
    r.host["verify_s"] = verify.end();

    Values &c = r.counters;
    if (par) {
        for (int k = 0; k < par->clusters(); ++k) {
            sim::EventQueue &q = par->queueFor(k);
            addQueue(c, q);
            simNow = std::max(simNow, q.now());
        }
        c["sim.epochs"] = static_cast<double>(par->epochs());
    } else {
        addQueue(c, eq);
        simNow = eq.now();
        c["sim.epochs"] = 0;
    }
    collectSystem(*sys, simNow, c);

    r.host["setup_s"] =
        r.host["parse_s"] + r.host["build_s"] + r.host["workload_s"];
    r.simEnd = simNow;
    r.host["sim_s"] = static_cast<double>(simNow) * 1e-9;
    r.host["cases"] = 1;
    r.host["case_wall_s"] =
        r.host["setup_s"] + r.host["run_s"] + r.host["verify_s"];

    r.outputs["sim_allreduce_round_us"] =
        static_cast<double>(ar.lastFinish) * 1e-3 / allreduceRounds;
    r.outputs["ok_members"] = ar.okMembers;
    r.outputs["error_members"] = ar.errorMembers;
    r.outputs["wrong_members"] = ar.wrongMembers;
    r.outputs["final_epoch"] = ar.finalEpoch;
    r.fingerprints["workload_fp"] = hex(ar.fingerprint);
    r.fingerprints["cluster_fp"] = hex(shards->trace().combined());
    r.attempted = allreduceMembers;
    r.failed = static_cast<std::uint64_t>(allreduceMembers - ar.okMembers);

    if (probe) {
        r.msgLatency = probe->latencies();
        r.probe["unmatched"] = static_cast<double>(probe->unmatched());
        r.probe["duplicates"] = static_cast<double>(probe->duplicates());
        sys->attachDeliveryProbe(nullptr);
    }
    return r;
}

// ----- serving_single_hub ---------------------------------------------

Rep
runServing(const Options &opt, Tracer &tr, std::uint64_t rep)
{
    Rep r;
    r.traced = tr.enabled();
    Scope total(tr, "rep", rep);

    serving::ServingConfig sc;
    sc.arrival = serving::Arrival::poisson;
    sc.flows = 1'000'000;
    sc.duration = 10 * sim::ticks::ms;
    sc.serverCompute = 20 * sim::ticks::us;

    std::vector<serving::SweepStep> steps;
    double offered = servingStartRps;
    std::uint64_t reportFp = fnvOffset;
    double simNs = 0;
    Values &c = r.counters;
    for (int i = 0; i < servingSteps; ++i, offered *= servingGrowth) {
        Scope rung(tr, "rung", rep);
        serving::ServingReport merged;
        sim::Histogram latency;
        for (int k = 0; k < servingReplicas; ++k) {
            Scope build(tr, "setup.build", rep);
            sim::EventQueue eq;
            auto sys = nectarine::NectarSystem::singleHub(eq, servingCabs);
            r.host["build_s"] += build.end();

            // No DeliveryProbe here: it does not see RPC traffic, whose
            // simulated latency the ServingReport already gives.
            Scope setupWl(tr, "setup.workload", rep);
            sc.offeredRps = offered;
            sc.seed = opt.seed * servingReplicas + static_cast<std::uint64_t>(k);
            serving::ServingWorkload w(*sys, sc);
            r.host["workload_s"] += setupWl.end();

            Scope run(tr, "run", rep);
            for (int k = 1; k < servingSlices; ++k) {
                const auto t0 = std::chrono::steady_clock::now();
                eq.runUntil(sc.duration * static_cast<sim::Tick>(k) /
                            servingSlices);
                r.sliceSeconds.push_back(since(t0));
            }
            const auto t0 = std::chrono::steady_clock::now();
            eq.run();
            r.sliceSeconds.push_back(since(t0));
            r.host["run_s"] += run.end();

            Scope verify(tr, "verify", rep);
            Scope rep_(tr, "workload.report", rep);
            const serving::ServingReport sr = w.report();
            latency.merge(w.latency());
            r.host["report_s"] += rep_.end();
            r.host["verify_s"] += verify.end();

            for (double v : {static_cast<double>(sr.arrivals),
                             static_cast<double>(sr.issued),
                             static_cast<double>(sr.completed),
                             static_cast<double>(sr.failed),
                             static_cast<double>(sr.shed), sr.p50Ns,
                             sr.p99Ns, sr.p999Ns, sr.meanNs, sr.achievedRps,
                             sr.goodputMBs,
                             static_cast<double>(sr.peakFlowTable),
                             static_cast<double>(sr.lastDoneAt)})
                reportFp = fnv(reportFp, num(v) + ";");
            merged.completed += sr.completed;
            merged.achievedRps += sr.achievedRps / servingReplicas;

            addQueue(c, eq);
            collectSystem(*sys, eq.now(), c);
            c["serving.issued"] += static_cast<double>(sr.issued);
            c["serving.completed"] += static_cast<double>(sr.completed);
            c["serving.shed"] += static_cast<double>(sr.shed);
            c["serving.failed"] += static_cast<double>(sr.failed);
            c["serving.peak_flow_table"] =
                std::max(c["serving.peak_flow_table"],
                         static_cast<double>(sr.peakFlowTable));
            simNs += static_cast<double>(eq.now());
            r.attempted += sr.arrivals;
            r.failed += sr.failed + sr.shed;
        }
        r.caseSeconds.push_back(rung.end());
        merged.p50Ns = latency.percentile(50.0);
        merged.p99Ns = latency.percentile(99.0);
        steps.push_back(serving::SweepStep{offered, merged});
    }
    const int knee = serving::detectKnee(steps, 3.0, 0.9);
    c["sim.epochs"] = 0;

    r.host["parse_s"] = 0;
    r.host["setup_s"] = r.host["build_s"] + r.host["workload_s"];
    r.host["sim_s"] = simNs * 1e-9;
    // A serving case is one completed RPC: the ladder's arrival count
    // varies by seed, the work per RPC does not.
    r.host["cases"] = c["serving.completed"];
    r.host["case_wall_s"] =
        r.host["setup_s"] + r.host["run_s"] + r.host["verify_s"];

    const serving::ServingReport &low =
        steps[static_cast<std::size_t>(servingLatencyRung)].report;
    r.outputs["sim_rpc_p50_us"] = low.p50Ns * 1e-3;
    r.outputs["sim_rpc_p99_us"] = low.p99Ns * 1e-3;
    r.outputs["rpc_samples_at_latency_rung"] =
        static_cast<double>(low.completed);
    r.outputs["knee_index"] = knee;
    r.outputs["sim_knee_rps"] =
        knee >= 0 ? steps[static_cast<std::size_t>(knee)].offeredRps : 0;
    r.fingerprints["serving_report_fp"] = hex(reportFp);
    return r;
}

// ----- chaos_mesh -------------------------------------------------------

Rep
runChaos(const Options &opt, Tracer &tr, std::uint64_t rep)
{
    Rep r;
    r.traced = tr.enabled();
    Scope total(tr, "rep", rep);
    const fault::FuzzConfig fcfg; // the default 2x2x2 mesh harness

    Scope parse(tr, "setup.parse", rep);
    const topo::TopologyDescription desc = fault::harnessDescription(fcfg);
    r.host["parse_s"] = parse.end();

    // runCase builds its system internally; build the same fabric once
    // here so the build's host cost is measured on its own.
    Scope build(tr, "setup.build", rep);
    {
        sim::EventQueue eq;
        auto sys = nectarine::NectarSystem::fromDescription(eq, desc);
        r.host["build_s"] = build.end();
        r.counters["nectarine.sites"] = static_cast<double>(sys->siteCount());
    }

    Scope gen(tr, "setup.workload", rep);
    const fault::PlanGenerator generator(fault::SystemShape::ofDescription(desc));
    std::vector<std::uint64_t> seeds;
    std::vector<fault::FaultPlan> plans;
    for (int i = 0; i < chaosCasesPerRep; ++i) {
        seeds.push_back(opt.seed * 1000 + static_cast<std::uint64_t>(i));
        plans.push_back(generator.generate(seeds.back()));
    }
    r.host["workload_s"] = gen.end();
    r.host["plan_gen_s"] = r.host["workload_s"];

    Scope run(tr, "run", rep);
    std::uint64_t fp = fnvOffset;
    double quiesced = 0;
    Values &c = r.counters;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        Scope one(tr, "case", seeds[i]);
        const fault::FuzzResult res = fault::runCase(plans[i], fcfg);
        r.caseSeconds.push_back(one.end());
        r.sliceSeconds.push_back(r.caseSeconds.back());

        quiesced += static_cast<double>(res.quiescedAt);
        fp = fnv(fp, std::to_string(seeds[i]) + (res.passed ? "+" : "-") +
                         std::to_string(res.quiescedAt) + res.oracleSummary +
                         res.report.format());
        const fault::CampaignReport &cr = res.report;
        c["fault.oracle_violations"] +=
            static_cast<double>(res.violations.size());
        c["fault.reliable_sends"] += static_cast<double>(res.reliableSends);
        c["fault.collective_failures"] +=
            static_cast<double>(res.collectiveFailures);
        c["fault.recoveries"] += static_cast<double>(cr.recoveries);
        c["transport.retransmissions"] +=
            static_cast<double>(cr.retransmissions);
        c["transport.rto_backoffs"] += static_cast<double>(cr.rtoBackoffs);
        c["transport.send_failures"] += static_cast<double>(cr.sendFailures);
        c["transport.messages_sent"] += static_cast<double>(cr.messagesSent);
        c["phys.items_dropped"] +=
            static_cast<double>(cr.burstDrops + cr.downDrops);
        c["hub.stuck_drops"] += static_cast<double>(cr.stuckDrops);
        c["datalink.ready_timeouts"] += static_cast<double>(cr.readyTimeouts);
        r.attempted += 1;
        r.failed += res.passed ? 0 : 1;
    }
    r.host["run_s"] = run.end();
    c["sim.epochs"] = 0;

    r.host["verify_s"] = 0;
    r.host["setup_s"] =
        r.host["parse_s"] + r.host["build_s"] + r.host["workload_s"];
    r.host["sim_s"] = quiesced * 1e-9;
    r.host["cases"] = static_cast<double>(plans.size());
    r.host["case_wall_s"] = r.host["plan_gen_s"] + r.host["run_s"];

    r.outputs["fault.quiesce_sim_ms_total"] = quiesced * 1e-6;
    r.outputs["cases_failed"] = static_cast<double>(r.failed);
    r.fingerprints["chaos_fp"] = hex(fp);
    return r;
}

// ----- Main loop --------------------------------------------------------

Rep
runOnce(const Options &opt, Tracer &tr, std::uint64_t rep,
        sim::Tick drainTick)
{
    if (opt.workload == "allreduce_fabric16")
        return runAllreduce(opt, 1, tr, rep, drainTick);
    if (opt.workload == "serving_single_hub")
        return runServing(opt, tr, rep);
    return runChaos(opt, tr, rep);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

void
writeValues(std::FILE *out, const Values &v)
{
    std::fputc('{', out);
    const char *sep = "";
    for (const auto &[k, x] : v) {
        std::fprintf(out, "%s\"%s\": %s", sep, k.c_str(), num(x).c_str());
        sep = ", ";
    }
    std::fputc('}', out);
}

void
writeRep(std::FILE *out, const Rep &r, bool warmup)
{
    std::fprintf(out, "{\"warmup\": %s, \"traced\": %s, \"attempted\": %"
                      PRIu64 ", \"failed\": %" PRIu64 ",\n   \"host\": ",
                 warmup ? "true" : "false", r.traced ? "true" : "false",
                 r.attempted, r.failed);
    writeValues(out, r.host);
    std::fprintf(out, ",\n   \"outputs\": ");
    writeValues(out, r.outputs);
    std::fprintf(out, ",\n   \"fingerprints\": {");
    const char *sep = "";
    for (const auto &[k, v] : r.fingerprints) {
        std::fprintf(out, "%s\"%s\": \"%s\"", sep, k.c_str(), v.c_str());
        sep = ", ";
    }
    std::fprintf(out, "},\n   \"counters\": ");
    writeValues(out, r.counters);
    std::fprintf(out, ",\n   \"probe\": ");
    writeValues(out, r.probe);
    std::fprintf(out, ",\n   \"case_s\": [");
    sep = "";
    for (double s : r.caseSeconds) {
        std::fprintf(out, "%s%s", sep, num(s).c_str());
        sep = ", ";
    }
    std::fprintf(out, "],\n   \"slice_s\": [");
    sep = "";
    for (double s : r.sliceSeconds) {
        std::fprintf(out, "%s%s", sep, num(s).c_str());
        sep = ", ";
    }
    std::fprintf(out, "],\n   \"msg_latency_ns\": [");
    sep = "";
    for (sim::Tick t : r.msgLatency) {
        std::fprintf(out, "%s%" PRIu64, sep, static_cast<std::uint64_t>(t));
        sep = ", ";
    }
    std::fprintf(out, "]}");
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload allreduce_fabric16|"
                 "serving_single_hub|chaos_mesh\n"
                 "          --seed N --seconds S --trace 0|1\n",
                 argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0')
                usage(argv[0]);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || !(opt.seconds > 0))
                usage(argv[0]);
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage(argv[0]);
            opt.trace = v[0] == '1';
        } else {
            usage(argv[0]);
        }
    }
    if (opt.workload != "allreduce_fabric16" &&
        opt.workload != "serving_single_hub" && opt.workload != "chaos_mesh")
        usage(argv[0]);
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // At least two timed repetitions of each kind run, however slow.
    const int minTimed = opt.trace ? 4 : 3;

    Tracer tr(false);
    std::vector<Rep> reps;
    const auto t0 = std::chrono::steady_clock::now();
    const auto elapsed = [&] { return since(t0); };
    // An untimed allreduce run finds where the queue drains, so that
    // every repetition is cut into the same slices.  (Slicing moves the
    // engine's internal sim.cascades count, so the warm-up is cut too.)
    sim::Tick drainTick = 0;
    if (opt.workload == "allreduce_fabric16") {
        Tracer off(false);
        drainTick = runAllreduce(opt, 1, off, 0, 0).simEnd;
    }
    for (std::uint64_t i = 0;; ++i) {
        // Repetition 0 is the warm-up; with tracing on, odd ones trace.
        tr.setEnabled(opt.trace && i % 2 == 1);
        reps.push_back(runOnce(opt, tr, i, drainTick));
        const int timed = static_cast<int>(reps.size()) - 1;
        if (timed >= minTimed && elapsed() >= opt.seconds)
            break;
    }
    const double measured = elapsed();
    const double peakRss = peakRssMb();

    // The parallel engine on the same inputs: untimed by the loop above
    // (its speed swings with the host's thread wake-up latency far more
    // than the sequential engine's), its outputs checked against it.
    std::vector<Rep> parallel;
    if (opt.workload == "allreduce_fabric16") {
        Tracer off(false);
        for (int i = 0; i < (opt.trace ? 3 : 1); ++i)
            parallel.push_back(
                runAllreduce(opt, parallelThreads, off, reps.size() + i, 0));
    }

    std::FILE *out = stdout;
    std::fprintf(out,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"trace\": %d, \"measured_s\": %s, \"peak_rss_mb\": %s,\n"
                 " \"host\": {\"cores\": %u, \"compiler\": \"%s\", "
                 "\"build_type\": \"%s\"},\n \"reps\": [\n  ",
                 opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0,
                 num(measured).c_str(), num(peakRss).c_str(),
                 std::thread::hardware_concurrency(), compilerName().c_str(),
                 PERFBENCH_BUILD_TYPE);
    for (std::size_t i = 0; i < reps.size(); ++i) {
        if (i)
            std::fprintf(out, ",\n  ");
        writeRep(out, reps[i], i == 0);
    }
    std::fprintf(out, "],\n \"parallel\": [");
    for (std::size_t i = 0; i < parallel.size(); ++i) {
        if (i)
            std::fprintf(out, ",\n  ");
        writeRep(out, parallel[i], false);
    }
    std::fprintf(out, "],\n \"spans\": [");
    const char *sep = "";
    for (const perfbench::Span &s : tr.spans()) {
        std::fprintf(out,
                     "%s\n  {\"name\": \"%s\", \"start_ns\": %" PRId64
                     ", \"end_ns\": %" PRId64 ", \"parent\": %d, "
                     "\"request\": %" PRIu64 "}",
                     sep, s.name.c_str(), s.startNs, s.endNs, s.parent,
                     s.request);
        sep = ",";
    }
    std::fprintf(out, "]}\n");
    return 0;
}
