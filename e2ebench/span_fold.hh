/**
 * @file
 * Folds the span tracer's records into self time per span name and
 * per src/ module ("layer"), for the benchmark's traced run.
 *
 * Spans nest by wall-clock containment on their own thread: a span's
 * self time is its duration minus the durations of the spans directly
 * inside it on the same thread.  Worker-thread spans (sweep tasks,
 * validation chunks) are therefore counted on their workers, so the
 * per-layer sums are thread-seconds, not wall seconds.
 */

#ifndef SOFTSKU_E2EBENCH_SPAN_FOLD_HH
#define SOFTSKU_E2EBENCH_SPAN_FOLD_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace e2e {

/** Per-name and per-layer sums over the spans of one or more passes. */
struct SpanFold
{
    std::map<std::string, double> selfSec;      //!< by span name
    std::map<std::string, double> totalSec;     //!< by span name
    std::map<std::string, std::uint64_t> count; //!< by span name
    std::map<std::string, double> layerSelfSec; //!< by layer

    /** Self seconds of @p name (0 when no such span ran). */
    double self(const std::string &name) const;
    /** Inclusive seconds of @p name (0 when no such span ran). */
    double total(const std::string &name) const;
    /** Spans recorded under @p name. */
    std::uint64_t spans(const std::string &name) const;
    /** Self seconds of @p layer (0 when the layer recorded nothing). */
    double layer(const std::string &layer) const;

    /** Accumulate @p other into this fold. */
    void add(const SpanFold &other);
    /** Divide every time by @p n (per-pass means); counts too. */
    void scale(double n);
};

/**
 * The src/ module a span name belongs to: "sim", "core", "sim/fleet",
 * or "unattributed" for the benchmark's own wrapper spans (time inside
 * a public call that no program span covers).
 */
std::string layerOf(const std::string &spanName);

/** The layers layerOf() can return, in table order. */
const std::vector<std::string> &allLayers();

/** Fold complete-span records (instants and counters are skipped). */
SpanFold foldSpans(const std::vector<softsku::SpanRecord> &spans);

} // namespace e2e

#endif // SOFTSKU_E2EBENCH_SPAN_FOLD_HH
