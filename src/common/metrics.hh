/**
 * @file
 * Named-metric registry: counters that simulator components register
 * into by name, with JSON serialization.
 *
 * One registry typically spans one run (a Runner owns one and shares
 * it with its sweep workers), so the registry is thread-safe:
 * counter() hands out a stable Counter handle whose inc() is a
 * relaxed atomic add — safe to call from any thread without
 * re-entering the registry.
 *
 * Overhead-when-disabled guarantee: instrumented components hold a
 * `MetricsRegistry *` that defaults to nullptr and cache their
 * Counter handles at attach time. With no registry attached every
 * instrumentation site reduces to one null-pointer test — no string
 * is formatted, no map is touched, nothing allocates.
 */

#ifndef GQOS_COMMON_METRICS_HH
#define GQOS_COMMON_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

namespace gqos
{

/**
 * Registry of named metrics. Names are free-form strings; the
 * convention used by the simulator is dotted lower-case paths such
 * as "qos.epochs" or "harness.cache_hits".
 */
class MetricsRegistry
{
  public:
    /** Monotonic counter with a thread-safe, lock-free inc(). */
    class Counter
    {
      public:
        void
        inc(std::uint64_t n = 1)
        {
            value_.fetch_add(n, std::memory_order_relaxed);
        }

        std::uint64_t
        value() const
        {
            return value_.load(std::memory_order_relaxed);
        }

      private:
        std::atomic<std::uint64_t> value_{0};
    };

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Create-or-get the counter @p name. The returned reference
     * stays valid for the registry's lifetime, so components fetch
     * it once at attach time and inc() it lock-free afterwards.
     */
    Counter &counter(const std::string &name);

    /**
     * Serialize every metric as one JSON object with one section,
     * "counters", sorted by name.
     */
    void writeJson(std::ostream &os) const;

  private:
    mutable std::mutex mutex_;
    // node-based map: references into it are stable
    std::map<std::string, std::unique_ptr<Counter>> counters_;
};

} // namespace gqos

#endif // GQOS_COMMON_METRICS_HH
