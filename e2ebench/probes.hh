/**
 * @file
 * Layer probes: direct calls into one layer's public functions, timed
 * from the benchmark, so a per-layer number does not depend on a
 * pipeline that mixes layers.
 */

#ifndef SOFTSKU_E2EBENCH_PROBES_HH
#define SOFTSKU_E2EBENCH_PROBES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/input_spec.hh"
#include "sim/faults.hh"
#include "sim/service_sim.hh"

namespace e2e {

/** One service×platform a probe runs on. */
struct ProbeTarget
{
    std::string service;
    std::string platform;
};

/**
 * Simulated million instructions per host second of one direct
 * simulateService() call per target on its production configuration,
 * single thread, at @p windows.
 */
double simMinsnPerSec(const std::vector<ProbeTarget> &targets,
                      const softsku::SimOptions &windows);

/** SetAssocCache::access cost on web's data stream. */
struct CacheProbe
{
    double llcSkyNs = 0.0;  //!< skylake18 LLC, 36,000 sets
    double llcBdwNs = 0.0;  //!< broadwell16 LLC, 32,768 sets
    double l1dNs = 0.0;     //!< skylake18 L1D
    double llcHitRatio = 0.0;  //!< skylake18 LLC demand hit ratio
};

/**
 * Feed @p accesses lines of web's DataGenerator stream (seeded by
 * @p seed) through a fresh cache of each geometry, with the
 * replacement policy the simulator gives that level.
 */
CacheProbe cacheProbe(std::uint64_t seed, std::size_t accesses);

/** loadAbCache / storeAbCache on one orchestration's cache files. */
struct AbCacheProbe
{
    double loadSec = 0.0;   //!< summed over targets
    double storeSec = 0.0;  //!< summed over targets
    std::size_t entries = 0;  //!< comparison entries loaded
};

/**
 * Load each target's cache file from @p dir, as the μSKU run that
 * wrote it sees the context, then store it into @p storeDir.  fatal()
 * when a file holds no entry for its context.
 */
AbCacheProbe abCacheProbe(const std::string &dir,
                          const std::string &storeDir,
                          const std::vector<softsku::InputSpec> &specs,
                          const softsku::SimOptions &windows,
                          const softsku::FaultPlan &faults,
                          std::uint64_t faultSeed);

} // namespace e2e

#endif // SOFTSKU_E2EBENCH_PROBES_HH
