#include "span_fold.hh"

#include <algorithm>

namespace e2e {

namespace {

double
lookup(const std::map<std::string, double> &map, const std::string &key)
{
    auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
}

bool
startsWith(const std::string &text, const char *prefix)
{
    return text.rfind(prefix, 0) == 0;
}

} // namespace

double
SpanFold::self(const std::string &name) const
{
    return lookup(selfSec, name);
}

double
SpanFold::total(const std::string &name) const
{
    return lookup(totalSec, name);
}

std::uint64_t
SpanFold::spans(const std::string &name) const
{
    auto it = count.find(name);
    return it == count.end() ? 0 : it->second;
}

double
SpanFold::layer(const std::string &name) const
{
    return lookup(layerSelfSec, name);
}

void
SpanFold::add(const SpanFold &other)
{
    for (const auto &[name, sec] : other.selfSec)
        selfSec[name] += sec;
    for (const auto &[name, sec] : other.totalSec)
        totalSec[name] += sec;
    for (const auto &[name, n] : other.count)
        count[name] += n;
    for (const auto &[name, sec] : other.layerSelfSec)
        layerSelfSec[name] += sec;
}

void
SpanFold::scale(double n)
{
    for (auto &entry : selfSec)
        entry.second /= n;
    for (auto &entry : totalSec)
        entry.second /= n;
    for (auto &entry : count)
        entry.second = static_cast<std::uint64_t>(
            static_cast<double>(entry.second) / n + 0.5);
    for (auto &entry : layerSelfSec)
        entry.second /= n;
}

std::string
layerOf(const std::string &name)
{
    if (startsWith(name, "sim."))
        return "sim";
    if (startsWith(name, "usku.") || startsWith(name, "sweep.") ||
        startsWith(name, "ab.") || startsWith(name, "validate."))
        return "core";
    if (startsWith(name, "fleet.") || startsWith(name, "rollout."))
        return "sim/fleet";
    return "unattributed";
}

const std::vector<std::string> &
allLayers()
{
    static const std::vector<std::string> layers = {
        "sim", "core", "sim/fleet", "unattributed"};
    return layers;
}

SpanFold
foldSpans(const std::vector<softsku::SpanRecord> &spans)
{
    using softsku::SpanRecord;
    std::map<int, std::vector<const SpanRecord *>> byThread;
    for (const SpanRecord &record : spans) {
        if (record.kind == SpanRecord::Kind::Span)
            byThread[record.tid].push_back(&record);
    }

    SpanFold fold;
    for (auto &[tid, records] : byThread) {
        // Parents sort before the children they contain: earlier start
        // first, and the longer span first on a tie.
        std::sort(records.begin(), records.end(),
                  [](const SpanRecord *a, const SpanRecord *b) {
                      if (a->wallStartUs != b->wallStartUs)
                          return a->wallStartUs < b->wallStartUs;
                      return a->wallDurUs > b->wallDurUs;
                  });
        std::vector<double> childUs(records.size(), 0.0);
        std::vector<std::size_t> open;
        for (std::size_t i = 0; i < records.size(); ++i) {
            const SpanRecord &span = *records[i];
            while (!open.empty()) {
                const SpanRecord &top = *records[open.back()];
                if (span.wallStartUs < top.wallStartUs + top.wallDurUs)
                    break;
                open.pop_back();
            }
            if (!open.empty())
                childUs[open.back()] += span.wallDurUs;
            open.push_back(i);
        }
        for (std::size_t i = 0; i < records.size(); ++i) {
            const SpanRecord &span = *records[i];
            double selfSec =
                std::max(0.0, span.wallDurUs - childUs[i]) * 1e-6;
            fold.selfSec[span.name] += selfSec;
            fold.totalSec[span.name] += span.wallDurUs * 1e-6;
            fold.count[span.name] += 1;
            fold.layerSelfSec[layerOf(span.name)] += selfSec;
        }
    }
    return fold;
}

} // namespace e2e
