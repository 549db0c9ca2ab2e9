/**
 * @file
 * Lightweight statistics framework: named counters, scalar samples and
 * histograms collected into a registry that experiments can dump or
 * query by name.
 */

#ifndef LOGTM_COMMON_STATS_HH
#define LOGTM_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace logtm {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void add(uint64_t n) { value_ += n; }
    void reset() { value_ = 0; }
    uint64_t value() const { return value_; }

  private:
    uint64_t value_ = 0;
};

/**
 * Streaming sample statistics: count, sum, min, max, mean and
 * variance (Welford's online algorithm, numerically stable).
 * Used for read/write-set sizes, transaction durations, etc.
 */
class Sampler
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
        const double delta = v - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (v - mean_);
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0;
        min_ = 0;
        max_ = 0;
        mean_ = 0;
        m2_ = 0;
    }

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance of the samples seen so far. */
    double
    variance() const
    {
        return count_ ? m2_ / static_cast<double>(count_) : 0.0;
    }

    /** Population standard deviation. */
    double stddev() const;

  private:
    uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
    double mean_ = 0;
    double m2_ = 0;   ///< Welford running sum of squared deviations
};

/** Power-of-two-bucketed histogram for latency / size distributions. */
class Histogram
{
  public:
    Histogram() : buckets_(64, 0) {}

    void
    sample(uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        scalar_.sample(static_cast<double>(v));
    }

    /** Number of samples with value in [2^i, 2^(i+1)) (bucket 0: {0,1}). */
    uint64_t bucket(unsigned i) const { return buckets_.at(i); }
    unsigned numBuckets() const
    { return static_cast<unsigned>(buckets_.size()); }
    const Sampler &scalar() const { return scalar_; }

    /**
     * Approximate p-th percentile (p in [0, 100]) reconstructed from
     * the power-of-two buckets by linear interpolation inside the
     * bucket holding the p-th sample; exact min/max bound the result.
     */
    double percentile(double p) const;

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        scalar_.reset();
    }

  private:
    static unsigned
    bucketOf(uint64_t v)
    {
        unsigned b = 0;
        while (v > 1) {
            v >>= 1;
            ++b;
        }
        return b;
    }

    std::vector<uint64_t> buckets_;
    Sampler scalar_;
};

/**
 * A registry of named statistics. Components create stats through the
 * registry; experiments read them back by dotted name
 * (e.g. "tm.commits", "l1.0.misses").
 */
class StatsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Sampler &sampler(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Value of a counter, 0 if absent. */
    uint64_t counterValue(const std::string &name) const;

    /** Sum over all counters whose name begins with @p prefix. */
    uint64_t sumCounters(const std::string &prefix) const;

    /** Reset every registered statistic to zero. */
    void resetAll();

    /** Dump all stats, sorted by name, one per line. */
    void dump(std::ostream &os) const;

    const std::map<std::string, Counter> &counters() const
    { return counters_; }
    const std::map<std::string, Sampler> &samplers() const
    { return samplers_; }
    const std::map<std::string, Histogram> &histograms() const
    { return histograms_; }

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Sampler> samplers_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace logtm

#endif // LOGTM_COMMON_STATS_HH
