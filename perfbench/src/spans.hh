/**
 * @file
 * In-memory span recorder for the traced benchmark run. A span is a
 * named host-time interval around one of the benchmark's own calls
 * into a simulator layer, with the span that was open when it began as
 * its parent. Spans stay in memory and are written once, when the
 * benchmark ends, as a Chrome trace-event file (Perfetto-loadable).
 * Nothing inside the simulator is instrumented.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (the mean of the middle two for an even count). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class SpanRecorder
{
  public:
    struct Span
    {
        const char *name;
        int64_t startNs;
        int64_t endNs;
        int64_t parent;   ///< index into spans(), -1 for a root span
    };

    /** Disabled recorders make every Scope a no-op (untraced runs). */
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        int64_t index_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    int64_t nowNs() const;

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
