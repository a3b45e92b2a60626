#pragma once

// Shared plumbing of the perfbench driver: clocks, the seeded input
// generator, quantiles, and the record every workload fills in.

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
nsToMs(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** Nanosecond stamp taken during static initialization, before main. */
std::int64_t processStartNs();

/** splitmix64: the only source of randomness in generated inputs. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /** Small integers as doubles, so sums of products stay exact. */
    double smallValue() { return static_cast<double>(below(17)) - 8.0; }

  private:
    std::uint64_t state_;
};

/**
 * The quantile of op times that op_p5_ms reports. Interference on the
 * shared host comes in phases of seconds that slow an op up to about
 * 1.8x; a low quantile keeps the program's own cost and little of
 * that. The median is reported per layer, unbounded.
 */
constexpr double kLowQuantile = 0.05;

/** Linear-interpolated quantile, q in [0, 1]; NaN when empty. */
double quantile(std::vector<double> values, double q);

/**
 * The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has
 * at least ten of @p n samples beyond it (0 when n < 20).
 */
double tailPercentile(std::size_t n);

/** Filesystem type name of @p path ("ext4", "tmpfs", ...). */
std::string fsTypeName(const std::string& path);

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Command-line configuration handed to every workload. */
struct Config
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for journals, spools and sockets (exists,
     *  removed by the caller afterwards). */
    std::string workDir;
    /** Where the spans file goes in traced mode. */
    std::string outDir;
    /** The syscommd binary (serve workload). */
    std::string syscommd;
};

/** What a workload run produced. */
struct RunOutput
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /** End-to-end metrics (untraced ops). */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics (traced ops); unset names print as 0. */
    std::map<std::string, double> perLayer;
    /** Extra string fields stamped onto the output record. */
    std::vector<std::pair<std::string, std::string>> notes;
    /** A failed check of the run as a whole (not of one op); makes
     *  the result incorrect. */
    std::string globalFailure;
    /** The first failed checks, for stderr. */
    std::vector<std::string> failures;

    void fail(std::string what)
    {
        if (failures.size() < 20)
            failures.push_back(std::move(what));
    }
};

RunOutput runVerify(const Config& config);
RunOutput runSweep(const Config& config);
RunOutput runServe(const Config& config);

/**
 * Peak resident set of this process, MB: VmHWM of /proc/self/status.
 * Not getrusage's ru_maxrss, which keeps the peak of the process that
 * forked this one across exec (the Python launcher's, when larger).
 */
double selfPeakRssMb();

/**
 * Moves the calling thread round the CPUs it may run on, one CPU per
 * next() call; the destructor restores the original affinity. On the
 * shared host, interference hits one vCPU at a time for seconds, so a
 * single-threaded loop that stays on one vCPU can spend a whole run
 * in a slow phase; visiting every vCPU keeps a low quantile of its op
 * times out of that phase. Does nothing where affinity cannot be set.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void next();
    std::size_t cpuCount() const { return cpus_.size(); }

  private:
    std::vector<int> cpus_;
    std::size_t at_ = 0;
    bool restore_ = false;
    cpu_set_t original_;
};

} // namespace perfbench
