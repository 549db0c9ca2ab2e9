#include "common/stats.hh"

#include <algorithm>
#include <cmath>

namespace logtm {

double
Sampler::stddev() const
{
    return std::sqrt(variance());
}

double
Histogram::percentile(double p) const
{
    const uint64_t n = scalar_.count();
    if (n == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Rank of the requested sample (1-based, nearest-rank method).
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(p / 100.0 *
                                           static_cast<double>(n))));
    // The extreme ranks are the tracked scalar extremes; report them
    // exactly rather than a bucket-interpolated approximation.
    if (rank >= n)
        return scalar_.max();
    if (rank == 1)
        return scalar_.min();
    uint64_t seen = 0;
    for (unsigned i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        if (seen + buckets_[i] < rank) {
            seen += buckets_[i];
            continue;
        }
        // The ranked sample lies in bucket i, covering [lo, hi].
        const double lo = i == 0 ? 0.0
                                 : static_cast<double>(1ull << i);
        const double hi = i == 0
            ? 1.0
            : static_cast<double>((1ull << (i + 1)) - 1);
        const double frac = buckets_[i] == 1
            ? 0.0
            : static_cast<double>(rank - seen - 1) /
                static_cast<double>(buckets_[i] - 1);
        const double v = lo + frac * (hi - lo);
        // The exact extremes are known; never report beyond them.
        return std::clamp(v, scalar_.min(), scalar_.max());
    }
    return scalar_.max();
}

Counter &
StatsRegistry::counter(const std::string &name)
{
    return counters_[name];
}

Sampler &
StatsRegistry::sampler(const std::string &name)
{
    return samplers_[name];
}

Histogram &
StatsRegistry::histogram(const std::string &name)
{
    return histograms_[name];
}

uint64_t
StatsRegistry::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

uint64_t
StatsRegistry::sumCounters(const std::string &prefix) const
{
    uint64_t total = 0;
    for (auto it = counters_.lower_bound(prefix); it != counters_.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        total += it->second.value();
    }
    return total;
}

void
StatsRegistry::resetAll()
{
    for (auto &kv : counters_)
        kv.second.reset();
    for (auto &kv : samplers_)
        kv.second.reset();
    for (auto &kv : histograms_)
        kv.second.reset();
}

void
StatsRegistry::dump(std::ostream &os) const
{
    for (const auto &kv : counters_)
        os << kv.first << " " << kv.second.value() << "\n";
    for (const auto &kv : samplers_) {
        os << kv.first << " count=" << kv.second.count()
           << " mean=" << kv.second.mean() << " min=" << kv.second.min()
           << " max=" << kv.second.max() << "\n";
    }
}

} // namespace logtm
