#include "probes.hh"

#include <chrono>
#include <unordered_map>

#include "cache/cache.hh"
#include "core/ab_cache.hh"
#include "core/knobs.hh"
#include "services/services.hh"
#include "sim/production_env.hh"
#include "util/logging.hh"
#include "workload/address_space.hh"
#include "workload/datagen.hh"

using namespace softsku;

namespace e2e {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Nanoseconds per access of @p lines through a fresh cache; the
 *  cache's stats are left in @p stats. */
double
timeCache(const CacheGeometry &geometry, ReplPolicy policy,
          const std::vector<std::uint64_t> &lines, CacheStats &stats)
{
    SetAssocCache cache("probe", geometry, policy);
    std::uint64_t hits = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t line : lines)
        hits += cache.access(line, AccessType::Data);
    double sec = secondsSince(t0);
    stats = cache.stats();
    if (hits + stats.totalMisses() != lines.size())
        fatal("cache probe: %llu hits + %llu misses != %zu accesses",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(stats.totalMisses()),
              lines.size());
    return sec * 1e9 / static_cast<double>(lines.size());
}

} // namespace

double
simMinsnPerSec(const std::vector<ProbeTarget> &targets,
               const SimOptions &windows)
{
    double instructions = 0.0;
    double seconds = 0.0;
    for (const ProbeTarget &target : targets) {
        const WorkloadProfile &profile = serviceByName(target.service);
        const PlatformSpec &platform = platformByName(target.platform);
        KnobConfig production = productionConfig(platform, profile);
        auto t0 = std::chrono::steady_clock::now();
        CounterSet counters =
            simulateService(profile, platform, production, windows);
        seconds += secondsSince(t0);
        if (!(counters.platformMips > 0.0))
            fatal("sim probe: %s on %s simulated no throughput",
                  target.service.c_str(), target.platform.c_str());
        instructions += static_cast<double>(windows.warmupInstructions +
                                            windows.measureInstructions);
    }
    return instructions / 1e6 / seconds;
}

CacheProbe
cacheProbe(std::uint64_t seed, std::size_t accesses)
{
    const WorkloadProfile &web = serviceByName("web");
    AddressSpace space = layoutAddressSpace(web);
    DataGenerator datagen(web, space, seed);
    std::vector<std::uint64_t> lines(accesses);
    for (std::uint64_t &line : lines)
        line = datagen.next().addr / 64;

    // The simulator's Machine gives the LLC SRRIP and the private
    // levels LRU; the probes keep those policies.
    CacheProbe probe;
    CacheStats stats;
    probe.l1dNs = timeCache(skylake18().l1d, ReplPolicy::Lru, lines, stats);
    probe.llcBdwNs =
        timeCache(broadwell16().llc, ReplPolicy::Srrip, lines, stats);
    probe.llcSkyNs =
        timeCache(skylake18().llc, ReplPolicy::Srrip, lines, stats);
    probe.llcHitRatio =
        1.0 - static_cast<double>(stats.totalMisses()) /
                  static_cast<double>(stats.totalAccesses());
    return probe;
}

AbCacheProbe
abCacheProbe(const std::string &dir, const std::string &storeDir,
             const std::vector<InputSpec> &specs, const SimOptions &windows,
             const FaultPlan &faults, std::uint64_t faultSeed)
{
    AbCacheProbe probe;
    for (InputSpec spec : specs) {
        spec.normalize();
        ProductionEnvironment env(serviceByName(spec.microservice),
                                  platformByName(spec.platform), spec.seed,
                                  windows);
        RobustnessPolicy robust;
        if (faults.any()) {
            env.setFaults(faults, faultSeed);
            robust = RobustnessPolicy::hostile();
        }
        const std::string context = abCacheContext(env, spec, robust);

        std::unordered_map<std::string, ABTestResult> memo;
        ValidationCache validation;
        auto t0 = std::chrono::steady_clock::now();
        std::size_t loaded = loadAbCache(dir, context, memo, &validation);
        probe.loadSec += secondsSince(t0);
        if (loaded == 0)
            fatal("ab_cache probe: no entries for %s:%s in %s",
                  spec.microservice.c_str(), spec.platform.c_str(),
                  dir.c_str());
        probe.entries += loaded;

        t0 = std::chrono::steady_clock::now();
        bool stored = storeAbCache(storeDir, context, memo, &validation);
        probe.storeSec += secondsSince(t0);
        if (!stored)
            fatal("ab_cache probe: could not store into %s",
                  storeDir.c_str());
    }
    return probe;
}

} // namespace e2e
