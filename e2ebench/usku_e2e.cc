/**
 * @file
 * End-to-end μSKU benchmark driver: runs one named workload through
 * the library's public entry points and prints its metrics.
 *
 * Usage:
 *   usku_e2e --workload=tune-web|fleet-race [--seed=1] [--seconds=20]
 *            [--trace=0|1] [--work-dir=DIR]
 *
 * Workloads (every pass starts cold: a fresh ProductionEnvironment,
 * so its ground-truth simulation cache is empty):
 *   tune-web    Usku::run for web on skylake18 with tune_web's
 *               defaults (independent sweep, fixed search, benign,
 *               700k/900k windows) on an nproc-worker pool.
 *   fleet-race  FleetOrchestrator::tuneAll over ads1:skylake18 and
 *               web:broadwell16, racing search, moderate faults, a
 *               fresh persistent-cache directory per pass; then
 *               FleetOrchestrator::rolloutAll of both winners over
 *               256-server slices in 64 racks x 4 regions,
 *               blast-radius-aware, which ends each rollout with
 *               FleetHealthView::report.
 *
 * --seed sets the environment seed and the fault seed.  --trace=0
 * repeats cold passes for --seconds and reports the end-to-end
 * metrics; --trace=1 alternates untraced and traced passes, folds the
 * tracer's spans into self time per layer, runs the layer probes, and
 * reports the per-layer metrics.
 *
 * Every pass hashes its deterministic output (each target's report
 * JSON, plus each rollout's outcome and health JSON).  All passes of
 * one invocation — cold, traced, and the re-run on the primed
 * environment — must produce one digest, and every tuned target must
 * validate stable; otherwise the result says "correct": false and the
 * exit status is 1.  The last stdout line is the result JSON.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/orchestrator.hh"
#include "core/usku.hh"
#include "obs/trace.hh"
#include "probes.hh"
#include "services/services.hh"
#include "sim/fleet.hh"
#include "span_fold.hh"
#include "telemetry/health_view.hh"
#include "telemetry/series_names.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace softsku;
namespace fs = std::filesystem;

namespace e2e {

namespace {

/**
 * setup_s is the median of the set-ups of a run: one per cold pass,
 * plus standalone ones repeated for kSetupBudgetSec (at least one)
 * before the passes and again after them.  Set-ups of tens of
 * microseconds need long samples, taken at two moments of the run,
 * for a median that repeats run to run on a shared host.
 */
constexpr double kSetupBudgetSec = 0.5;
/** Lines of web's data stream fed through each cache probe. */
constexpr std::size_t kCacheProbeAccesses = 1u << 21;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process user+sys CPU seconds, all threads. */
double
processCpuSec()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Workers an nproc-sized pool gets: the CPUs this process may use. */
unsigned
nprocWorkers()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return ThreadPool::hardwareThreads();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

/** FNV-1a 64 of @p text, as 16 hex digits. */
std::string
digestOf(const std::string &text)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(hash));
    return out;
}

/** What one pass produced, read after the timed pipeline call. */
struct PassOutput
{
    std::string digest;
    /** Simulated A/B measurement hours, summed over targets. */
    double abHours = 0.0;
    /** Simulated hours from the start of the rollout to its verdict. */
    double rolloutHours = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Non-empty when an output check other than the digest failed. */
    std::string invalid;

    std::uint64_t configs = 0;
    std::uint64_t comparisons = 0;
    std::uint64_t samples = 0;
    std::uint64_t retries = 0;
    std::uint64_t eliminated = 0;
    std::uint64_t validateSamples = 0;
    std::uint64_t poolStolen = 0;
    std::uint64_t resumes = 0;
    std::uint64_t excluded = 0;
    std::uint64_t odsSeries = 0;
    std::uint64_t odsPoints = 0;
};

/** Metrics in print order: name → (value, unit). */
class Metrics
{
  public:
    void set(const std::string &name, double value, const char *unit)
    {
        for (auto &row : rows_) {
            if (row.name == name) {
                row.value = value;
                row.unit = unit;
                return;
            }
        }
        rows_.push_back({name, value, unit});
    }

    std::string json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", rows_[i].name.c_str(),
                          rows_[i].value, rows_[i].unit.c_str());
            out += buf;
        }
        return out + "}";
    }

    void print() const
    {
        for (const auto &row : rows_)
            std::printf("  %-30s %16.6g %s\n", row.name.c_str(), row.value,
                        row.unit.c_str());
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

/** Add @p reports' counts to @p out; returns their JSON, to digest. */
std::string
summarizeReports(const std::vector<UskuReport> &reports, PassOutput &out)
{
    std::string text;
    for (const UskuReport &report : reports) {
        text += report.toJson().dump(2);
        out.abHours += report.measurementHours;
        out.attempted += report.abComparisons;
        out.failed += report.faults.abandoned;
        out.configs += report.configsEvaluated;
        out.comparisons += report.abComparisons;
        out.retries += report.faults.retries;
        out.validateSamples += report.validation.samples;
        for (const MetricRow &row : report.metrics.rows) {
            if (row.name == "ab.samples_accepted")
                out.samples += static_cast<std::uint64_t>(row.value);
        }
        for (const KnobSweep &sweep : report.map.sweeps) {
            for (const KnobOutcome &outcome : sweep.outcomes)
                out.eliminated += outcome.eliminated;
        }
        if (!report.validation.stable && out.invalid.empty())
            out.invalid = report.spec.microservice + ":" +
                          report.spec.platform +
                          " soft SKU did not validate stable";
    }
    return text;
}

/**
 * One workload.  The driver times setUp() and run(); everything else
 * is bookkeeping outside the measured intervals.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Release the previous pass's state (untimed). */
    virtual void tearDown() = 0;
    /** Build cold state for one pass (timed as setup_s). */
    virtual void setUp() = 0;
    /** The pipeline: calls into the library's public entry points. */
    virtual void run() = 0;
    /** Re-arm for a re-run of run() on the primed environment. */
    virtual void primeRerun() {}
    /** Digest and counts of the last run(). */
    virtual PassOutput output() = 0;
    /** Layer probes that need this workload's inputs or files. */
    virtual void probe(Metrics &out) = 0;
};

class TuneWeb : public Workload
{
  public:
    explicit TuneWeb(std::uint64_t seed)
    {
        windows_.warmupInstructions = 700'000;
        windows_.measureInstructions = 900'000;
        spec_.microservice = "web";
        spec_.platform = "skylake18";
        spec_.seed = seed;
        spec_.normalize();
    }

    void tearDown() override
    {
        pool_.reset();
        env_.reset();
    }

    void setUp() override
    {
        env_ = std::make_unique<ProductionEnvironment>(
            serviceByName("web"), platformByName("skylake18"), spec_.seed,
            windows_);
        pool_ = std::make_unique<ThreadPool>(nprocWorkers());
    }

    void run() override
    {
        ScopedSpan span("bench", "bench.usku_run");
        UskuOptions options;
        options.pool = pool_.get();
        Usku usku(*env_, options);
        std::uint64_t stolen = pool_->stats().stolen;
        report_ = usku.run(spec_);
        stolen_ = pool_->stats().stolen - stolen;
    }

    PassOutput output() override
    {
        PassOutput out;
        out.digest = digestOf(summarizeReports({report_}, out));
        out.poolStolen = stolen_;
        return out;
    }

    void probe(Metrics &out) override
    {
        out.set("sim.minsn_per_s",
                simMinsnPerSec({{"web", "skylake18"}}, windows_), "Minsn/s");
    }

  private:
    SimOptions windows_;
    InputSpec spec_;
    std::unique_ptr<ProductionEnvironment> env_;
    std::unique_ptr<ThreadPool> pool_;
    UskuReport report_;
    std::uint64_t stolen_ = 0;
};

class FleetRace : public Workload
{
  public:
    FleetRace(std::uint64_t seed, fs::path workDir)
        : seed_(seed), workDir_(std::move(workDir))
    {
        windows_.warmupInstructions = 600'000;
        windows_.measureInstructions = 800'000;
        faults_ = FaultPlan::fromSpec("moderate");
        // Every winner deploys across its own 64x4-domain slice.  Small
        // slices keep the rollouts a few percent of the pass: under
        // this plan's surge windows some seeds roll back and resume,
        // doubling rollout time, which would otherwise swamp the run
        // to run comparison of everything else.
        plan_.servers = kRolloutServers;
        plan_.topology = FleetTopology{64, 4};
        plan_.policy = RolloutPolicy::blastRadiusAware();
    }

    void tearDown() override
    {
        orchestrator_.reset();
        ods_.reset();
        if (!cacheDir_.empty())
            fs::remove_all(cacheDir_);
        cacheDir_.clear();
    }

    void setUp() override
    {
        targets_ = TuneTarget::parseList("ads1:skylake18,web:broadwell16",
                                         windows_);
        for (TuneTarget &target : targets_)
            target.spec.seed = seed_;
        cacheDir_ = workDir_ / ("ab-cache-" + std::to_string(++passes_));
        fs::create_directories(cacheDir_);

        FleetOrchestratorOptions options;
        options.jobs = nprocWorkers();
        options.faults = faults_;
        options.faultSeed = seed_;
        options.search = "race";
        options.cacheDir = cacheDir_.string();
        orchestrator_ = std::make_unique<FleetOrchestrator>(options);
        ods_ = std::make_unique<OdsStore>();
    }

    void primeRerun() override { ods_ = std::make_unique<OdsStore>(); }

    void run() override
    {
        {
            ScopedSpan span("bench", "bench.tune_all");
            tuned_ = orchestrator_->tuneAll(targets_);
        }
        ScopedSpan span("bench", "bench.rollout_all");
        rollouts_ = orchestrator_->rolloutAll(targets_, tuned_, plan_, *ods_);
    }

    PassOutput output() override
    {
        PassOutput out;
        std::string text = summarizeReports(tuned_.reports, out);
        for (const FleetRolloutOutcome &outcome : rollouts_) {
            const RolloutResult &r = outcome.rollout;
            text += outcome.toJson().dump(2);
            out.rolloutHours = r.finishedAtSec / 3600.0;  // clock carries
            // A server the verdict neither converted nor pulled from
            // rotation is one the rollout failed to deliver.
            out.attempted += kRolloutServers;
            out.failed += static_cast<std::uint64_t>(std::max(
                0, kRolloutServers - r.serversConverted - r.serversExcluded));
            out.resumes += static_cast<std::uint64_t>(r.resumes);
            out.excluded += static_cast<std::uint64_t>(r.serversExcluded);
        }
        out.digest = digestOf(text);
        OdsStoreStats stats = ods_->stats();
        out.odsSeries = stats.series;
        out.odsPoints = stats.rawPoints;
        return out;
    }

    void probe(Metrics &out) override
    {
        out.set("sim.minsn_per_s",
                simMinsnPerSec({{"ads1", "skylake18"},
                                {"web", "broadwell16"}},
                               windows_),
                "Minsn/s");

        std::vector<InputSpec> specs;
        for (const TuneTarget &target : targets_) {
            InputSpec spec = target.spec;
            ToolOptions overrides;
            overrides.search = "race";
            spec.applySearchOverrides(overrides);
            specs.push_back(spec);
        }
        // Medians of a few rounds on the last pass's files and store.
        std::vector<double> loads, stores, reports, aggregates;
        for (int i = 0; i < 5; ++i) {
            fs::path storeDir = workDir_ / "ab-cache-probe";
            AbCacheProbe p = abCacheProbe(cacheDir_.string(),
                                          storeDir.string(), specs,
                                          windows_, faults_, seed_);
            fs::remove_all(storeDir);
            loads.push_back(p.loadSec);
            stores.push_back(p.storeSec);

            for (const FleetRolloutOutcome &outcome : rollouts_) {
                const double from = outcome.startedAtSec;
                const double to = outcome.rollout.finishedAtSec;
                const std::string service = outcome.target.substr(
                    0, outcome.target.find(':'));
                auto t0 = Clock::now();
                FleetHealthReport health =
                    FleetHealthView(*ods_).report(service, from, to);
                reports.push_back(secondsSince(t0));
                if (health.toJson().dump(2) != outcome.health.dump(2))
                    fatal("health probe: %s report differs on re-read",
                          outcome.target.c_str());
                t0 = Clock::now();
                OdsAggregate agg = ods_->aggregate(
                    fleetSeriesName(service, "mips"), from, to);
                aggregates.push_back(secondsSince(t0));
                if (agg.count == 0)
                    fatal("ods probe: %s holds no fleet samples",
                          outcome.target.c_str());
            }
        }
        out.set("ab_cache.load_s", median(loads), "s");
        out.set("ab_cache.store_s", median(stores), "s");
        out.set("health.report_s", median(reports), "s");
        out.set("ods.aggregate_s", median(aggregates), "s");
    }

  private:
    static constexpr int kRolloutServers = 256;

    std::uint64_t seed_;
    fs::path workDir_;
    SimOptions windows_;
    FaultPlan faults_;
    FleetRolloutPlan plan_;
    std::vector<TuneTarget> targets_;
    fs::path cacheDir_;
    int passes_ = 0;
    std::unique_ptr<FleetOrchestrator> orchestrator_;
    std::unique_ptr<OdsStore> ods_;
    FleetTuneResult tuned_;
    std::vector<FleetRolloutOutcome> rollouts_;
};

/** Wall and CPU seconds of one timed call. */
struct Timing
{
    double wallSec = 0.0;
    double cpuSec = 0.0;
};

Timing
timed(const std::function<void()> &fn)
{
    double cpu0 = processCpuSec();
    auto t0 = Clock::now();
    fn();
    Timing t;
    t.wallSec = secondsSince(t0);
    t.cpuSec = processCpuSec() - cpu0;
    return t;
}

/** Digest bookkeeping across every pass of one invocation. */
class OutputCheck
{
  public:
    void add(const char *pass, const PassOutput &out)
    {
        std::printf("  %-14s digest %s\n", pass, out.digest.c_str());
        if (first_.empty())
            first_ = out.digest;
        else if (out.digest != first_)
            fail(std::string(pass) + " digest " + out.digest +
                 " differs from " + first_);
        if (!out.invalid.empty())
            fail(out.invalid);
        attempted_ += out.attempted;
        failed_ += out.failed;
    }

    void fail(const std::string &why)
    {
        std::printf("OUTPUT CHECK FAILED: %s\n", why.c_str());
        correct_ = false;
    }

    bool correct() const { return correct_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::string first_;
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** --trace=0: cold passes for @p seconds; end-to-end metrics. */
void
measureEndToEnd(Workload &w, double seconds, OutputCheck &check,
                Metrics &out)
{
    std::vector<double> setups, walls, cpus;
    auto timeSetUp = [&] {
        w.tearDown();
        auto t0 = Clock::now();
        w.setUp();
        setups.push_back(secondsSince(t0));
    };
    auto sampleSetUps = [&] {
        auto start = Clock::now();
        do
            timeSetUp();
        while (secondsSince(start) < kSetupBudgetSec);
    };
    sampleSetUps();

    // Stop before a pass that would overrun the budget; at least one.
    PassOutput last;
    auto start = Clock::now();
    double lastPassSec = 0.0;
    do {
        auto passStart = Clock::now();
        timeSetUp();
        Timing t = timed([&] { w.run(); });
        walls.push_back(t.wallSec);
        cpus.push_back(t.cpuSec);
        last = w.output();
        check.add("cold", last);
        lastPassSec = secondsSince(passStart);
    } while (secondsSince(start) + lastPassSec <= seconds);

    w.primeRerun();
    w.run();
    PassOutput primed = w.output();
    primed.attempted = primed.failed = 0;  // counted with the cold passes
    check.add("primed", primed);
    sampleSetUps();

    std::printf("  %zu set-ups; cold pass wall s:", setups.size());
    for (double wall : walls)
        std::printf(" %.4f", wall);
    std::printf("\n");
    out.set("setup_s", median(setups), "s");
    out.set("wall_s", median(walls), "s");
    out.set("cpu_s", median(cpus), "s");
    out.set("peak_rss_mb", peakRssMb(), "MB");
    std::printf("  simulated hours: A/B %.4f, rollout %.4f\n", last.abHours,
                last.rolloutHours);
}

/** --trace=1: untraced/traced pass pairs, primed re-run, probes. */
void
measureLayers(Workload &w, double seconds, std::uint64_t seed,
              OutputCheck &check, Metrics &out)
{
    std::vector<double> untracedWalls, tracedWalls, occupancy;
    SpanFold fold;
    PassOutput last;
    int pairs = 0;
    auto start = Clock::now();
    double lastPairSec = 0.0;
    do {
        auto pairStart = Clock::now();
        w.tearDown();
        w.setUp();
        Timing t = timed([&] { w.run(); });
        untracedWalls.push_back(t.wallSec);
        occupancy.push_back(t.cpuSec / (t.wallSec * nprocWorkers()));
        check.add("untraced", w.output());

        w.tearDown();
        w.setUp();
        Tracer &tracer = Tracer::global();
        tracer.clear();
        tracer.enable();
        t = timed([&] { w.run(); });
        tracer.disable();
        tracedWalls.push_back(t.wallSec);
        fold.add(foldSpans(tracer.sortedSpans()));
        tracer.clear();
        last = w.output();
        check.add("traced", last);
        ++pairs;
        lastPairSec = secondsSince(pairStart);
    } while (secondsSince(start) + lastPairSec <= seconds);
    fold.scale(pairs);

    w.primeRerun();
    Timing primed = timed([&] { w.run(); });
    PassOutput rerun = w.output();
    rerun.attempted = rerun.failed = 0;
    check.add("primed", rerun);

    // Every per-layer row is set here, in table order, so each workload
    // prints the same set: a layer the workload bypasses reads 0, and
    // the workload's probe() below overwrites the rows it measures.
    const double wall = median(untracedWalls);
    out.set("sim.configs", static_cast<double>(last.configs), "count");
    out.set("sim.minsn_per_s", 0.0, "Minsn/s");
    out.set("sim.busy_s", wall - primed.wallSec, "s");
    // Cross-check of sim.busy_s: lazy ground-truth simulation runs
    // inside sweep.compare (net of its ab.measure child), batched
    // simulation inside sim.core.
    out.set("sim.span_self_s",
            fold.self("sim.core") + fold.self("sweep.compare"), "s");

    CacheProbe cache = cacheProbe(seed, kCacheProbeAccesses);
    out.set("cache.llc_sky_ns_per_access", cache.llcSkyNs, "ns");
    out.set("cache.llc_bdw_ns_per_access", cache.llcBdwNs, "ns");
    out.set("cache.l1d_ns_per_access", cache.l1dNs, "ns");
    out.set("cache.llc_hit_ratio", cache.llcHitRatio, "ratio");

    out.set("pool.occupancy", median(occupancy), "ratio");
    out.set("pool.tasks",
            static_cast<double>(fold.spans("sweep.compare") +
                                fold.spans("sweep.pull") +
                                fold.spans("validate.chunk")),
            "count");
    out.set("pool.stolen", static_cast<double>(last.poolStolen), "count");

    out.set("pipeline.primed_s", primed.wallSec, "s");
    out.set("ab.comparisons", static_cast<double>(last.comparisons),
            "count");
    out.set("ab.hours", last.abHours, "sim_h");
    out.set("ab.samples", static_cast<double>(last.samples), "count");
    // Racing pulls draw their samples inside sweep.pull itself.
    out.set("ab.busy_s", fold.self("ab.measure") + fold.self("sweep.pull"),
            "s");
    out.set("ab.retries", static_cast<double>(last.retries), "count");
    out.set("bai.eliminated", static_cast<double>(last.eliminated),
            "count");
    out.set("validate.samples", static_cast<double>(last.validateSamples),
            "count");
    out.set("validate.busy_s", fold.self("validate.chunk"), "s");
    out.set("ab_cache.store_s", 0.0, "s");
    out.set("ab_cache.load_s", 0.0, "s");

    out.set("rollout.hours", last.rolloutHours, "sim_h");
    out.set("rollout.busy_s", fold.total("fleet.rollout"), "s");
    out.set("rollout.soak_s", fold.self("rollout.baseline_soak"), "s");
    out.set("rollout.canary_s",
            fold.self("rollout.canary") +
                fold.self("rollout.canary_judgment"),
            "s");
    out.set("rollout.wave_s", fold.self("rollout.wave"), "s");
    out.set("rollout.health_check_s", fold.self("rollout.health_check"),
            "s");
    out.set("rollout.waves", static_cast<double>(fold.spans("rollout.wave")),
            "count");
    out.set("rollout.resumes", static_cast<double>(last.resumes), "count");
    out.set("rollout.excluded", static_cast<double>(last.excluded),
            "count");

    out.set("ods.series", static_cast<double>(last.odsSeries), "count");
    out.set("ods.points", static_cast<double>(last.odsPoints), "count");
    out.set("ods.aggregate_s", 0.0, "s");
    out.set("health.report_s", 0.0, "s");

    const double traced = median(tracedWalls);
    out.set("trace.overhead_pct", (traced - wall) / wall * 100.0, "%");
    out.set("trace.unattributed_s", fold.layer("unattributed"), "s");
    out.set("layer.sim_s", fold.layer("sim"), "s");
    out.set("layer.core_s", fold.layer("core"), "s");
    out.set("layer.fleet_s", fold.layer("sim/fleet"), "s");

    w.probe(out);

    std::printf("  %d untraced/traced pair(s); traced pass self time by "
                "layer (thread-seconds):\n", pairs);
    for (const std::string &layer : allLayers())
        std::printf("    %-14s %10.4f s\n", layer.c_str(), fold.layer(layer));
    std::printf("  traced pass self time by span:\n");
    for (const auto &[name, sec] : fold.selfSec)
        std::printf("    %-26s %10.4f s  (%llu spans)\n", name.c_str(), sec,
                    static_cast<unsigned long long>(fold.spans(name)));
}

} // namespace

} // namespace e2e

int
main(int argc, char **argv)
{
    using namespace e2e;
    CliArgs args(argc, argv);
    setLogLevel(LogLevel::Warn);

    const std::string name = args.get("workload");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const double seconds = args.getDouble("seconds", 20.0);
    const bool trace = args.getInt("trace", 0) != 0;
    const fs::path workDir = args.get("work-dir", ".bench_build/work");
    if (seed == 0 || !(seconds > 0.0))
        fatal("--seed must be positive and --seconds above zero");

    std::unique_ptr<Workload> workload;
    if (name == "tune-web")
        workload = std::make_unique<TuneWeb>(seed);
    else if (name == "fleet-race")
        workload = std::make_unique<FleetRace>(seed, workDir / "fleet-race");
    else
        fatal("unknown --workload '%s' (tune-web, fleet-race)",
              name.c_str());

    std::printf("workload %s, seed %llu, %u CPU(s), trace %d\n",
                name.c_str(), static_cast<unsigned long long>(seed),
                nprocWorkers(), trace ? 1 : 0);
    OutputCheck check;
    Metrics metrics;
    if (trace)
        measureLayers(*workload, seconds, seed, check, metrics);
    else
        measureEndToEnd(*workload, seconds, check, metrics);
    workload->tearDown();
    metrics.print();

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                check.correct() ? "true" : "false",
                static_cast<unsigned long long>(check.attempted()),
                static_cast<unsigned long long>(check.failed()),
                metrics.json().c_str());
    return check.correct() ? 0 : 1;
}
