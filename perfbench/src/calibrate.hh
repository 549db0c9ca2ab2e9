/**
 * @file
 * Host-speed reference for the benchmark. On a shared host the speed
 * of one core drifts by tens of percent over minutes (other guests
 * share its caches, memory bandwidth and hyperthread), which swamps
 * the simulator's own cost. The reference is a fixed piece of work
 * shaped like the simulator's inner loop and independent of src/: it
 * is timed next to every simulation run, so each host time can be
 * scaled to a nominal host speed measured in the same window.
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

#include <cstdint>
#include <memory>

namespace perfbench {

class HostReference
{
  public:
    /**
     * Host seconds the reference takes at nominal speed: about its
     * time on the 4-core Xeon host the benchmark was written on, so
     * scaled times stay close to wall-clock times there.
     */
    static constexpr double kNominalSeconds = 0.060;

    HostReference();
    ~HostReference();

    /** Run the fixed reference work once; the host seconds it took. */
    double timeOnce();

    /** @p hostSeconds measured next to a reference that took
     *  @p refSeconds, expressed at nominal host speed. */
    static double
    scaled(double hostSeconds, double refSeconds)
    {
        return refSeconds > 0 ? hostSeconds * kNominalSeconds / refSeconds
                              : hostSeconds;
    }

  private:
    struct State;
    std::unique_ptr<State> st_;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
