/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span covers one call from the benchmark into a library layer:
 * name, start, end and the span that was open when it began (its
 * parent). Spans stay in memory and are written out as JSON when the
 * run ends. A span's self time is its duration minus the part of it
 * that its child spans cover. A disabled recorder (untraced runs)
 * records nothing and costs one branch per call.
 */

#ifndef GQOS_PERFBENCH_SPANS_HH
#define GQOS_PERFBENCH_SPANS_HH

#include <chrono>
#include <string>
#include <vector>

namespace perfbench
{

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; //!< seconds since the recorder's epoch
        double end = -1.0;  //!< < start while the span is open
        int parent = -1;    //!< index of the parent span, -1 = root
    };

    explicit SpanRecorder(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open span; returns its id. */
    int begin(const std::string &name);
    /** Close span @p id (must be the innermost open span). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span, indexed like spans(). */
    std::vector<double> selfTimes() const;

    /** Summed self time of the top-level spans named @p name. */
    double topLevelSelf(const std::string &name) const;

    /**
     * Check that no span's self time exceeds its duration, no
     * child lies outside its parent, and every span is closed.
     */
    bool consistent(std::string *why) const;

    /** Write all spans as JSON to @p path. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a no-op on a disabled recorder. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const std::string &name)
        : rec_(rec), id_(rec.enabled() ? rec.begin(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (id_ >= 0)
            rec_.end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder &rec_;
    int id_;
};

} // namespace perfbench

#endif // GQOS_PERFBENCH_SPANS_HH
