/**
 * @file
 * Shared pieces of the benchmark program: options, the metric
 * report printed at exit, statistics helpers and the result digest.
 *
 * Host time (what the simulator costs) and simulated outcomes (what
 * the modelled GPU does) are kept apart: host times come from
 * std::chrono::steady_clock around public library calls, simulated
 * outcomes from the library's own results.
 */

#ifndef GQOS_PERFBENCH_PERFBENCH_HH
#define GQOS_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.hh"
#include "spans.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory inside the checkout; removed at exit. */
    std::string workDir;
    /** Where the span dump of a traced run is written. */
    std::string spanPath;
    /** Smoke-test sizes: tiny windows, few cases. */
    bool tiny = false;
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Everything a run prints: metrics, exact work counts, per-workload
 * digests, and the pass/fail bookkeeping of the output checks.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** A deterministic work count. */
    void
    count(const std::string &name, std::uint64_t value,
          const std::string &unit = "count")
    {
        metric(name, static_cast<double>(value), unit);
    }
    /** A line of context printed before the result (not parsed). */
    void note(const std::string &line);
    void digest(const std::string &workload, std::uint64_t value);

    /** Record one checked operation; @p ok false counts a failure. */
    void check(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Print the human-readable block and the final JSON line. */
    void print() const;

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** FNV-1a 64-bit digest over exact result bits. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= c[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Exact equality of two doubles, bit for bit. */
inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated percentile @p p in [0,100] (0 when empty). */
double percentile(std::vector<double> v, double p);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Size of a file in bytes (0 if missing). */
std::uint64_t fileBytes(const std::string &path);

/** Fresh, empty directory @p path (removed first if present). */
void freshDir(const std::string &path);

/** Abort the run with a message on stderr (no result printed). */
[[noreturn]] void die(const std::string &msg);

/** The value of @p r, or die() naming @p what. */
template <typename T>
T
orDie(gqos::Result<T> r, const char *what)
{
    if (!r.ok())
        die(std::string(what) + ": " + r.error().describe());
    return std::move(r).value();
}

/** Set-up is timed at least this many times per untraced run. */
constexpr std::size_t setupReps = 3;

/** Workload entry points; each fills @p report. */
void runSweepWorkload(const Options &opts, bool memory_class,
                      Report &report, SpanRecorder &spans);
void runServingWorkload(const Options &opts, Report &report,
                        SpanRecorder &spans);

/**
 * serving.* per-layer metrics for a workload that does not use the
 * serving layer: a short load ladder of the default tenant mix.
 */
void reportServingProbe(const Options &opts, Report &report,
                        SpanRecorder &spans);

} // namespace perfbench

#endif // GQOS_PERFBENCH_PERFBENCH_HH
