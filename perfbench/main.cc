/**
 * @file
 * Benchmark program entry point.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --work DIR [--spans FILE] [--tiny]
 *
 * Workloads: sweep_compute, sweep_memory, serving_overload (see
 * perfbench/README.md). The last line of standard output is one JSON
 * object {"correct", "attempted", "failed", "metrics"}; with
 * --trace 0 the metrics are the end-to-end set, with --trace 1 the
 * per-layer set. A run that cannot produce a result exits non-zero
 * without printing one.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench.hh"

namespace perfbench
{

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value))
        die("metric " + name + " is not finite");
    for (const Metric &m : metrics_) {
        if (m.name == name)
            die("metric " + name + " reported twice");
    }
    metrics_.push_back({name, value, unit});
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

void
Report::digest(const std::string &workload, std::uint64_t value)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "digest %s %016llx",
                  workload.c_str(),
                  static_cast<unsigned long long>(value));
    notes_.push_back(buf);
}

void
Report::check(bool ok, const std::string &what)
{
    attempted_++;
    if (!ok) {
        failed_++;
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
    }
}

void
Report::print() const
{
    for (const std::string &n : notes_)
        std::printf("%s\n", n.c_str());
    for (const Metric &m : metrics_)
        std::printf("metric %-34s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("error_rate %.9g (%llu failed of %llu attempted)\n",
                attempted_ ? static_cast<double>(failed_) /
                                 static_cast<double>(attempted_)
                           : 0.0,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

void
freshDir(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    std::filesystem::create_directories(path, ec);
    if (ec)
        die("cannot create directory " + path + ": " + ec.message());
}

void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(2);
}

} // namespace perfbench

namespace
{

std::uint64_t
parseUint(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || !end || *end || text[0] == '-' || text[0] == '\0')
        perfbench::die("bad value for " + flag + ": " + text);
    return v;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                die("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") {
            opts.workload = value();
        } else if (a == "--seed") {
            opts.seed = parseUint(a, value());
        } else if (a == "--seconds") {
            opts.seconds =
                static_cast<double>(parseUint(a, value()));
        } else if (a == "--trace") {
            const std::uint64_t t = parseUint(a, value());
            if (t > 1)
                die("--trace takes 0 or 1");
            opts.trace = t == 1;
            haveTrace = true;
        } else if (a == "--work") {
            opts.workDir = value();
        } else if (a == "--spans") {
            opts.spanPath = value();
        } else if (a == "--tiny") {
            opts.tiny = true;
        } else {
            die("unknown argument " + a);
        }
    }
    if (opts.workload.empty() || opts.workDir.empty() || !haveTrace)
        die("usage: perfbench --workload W --seed N --seconds S "
            "--trace 0|1 --work DIR [--spans FILE] [--tiny]");
    if (opts.seconds < 1)
        die("--seconds must be >= 1");

    freshDir(opts.workDir);
    Report report;
    SpanRecorder spans(opts.trace);
    if (opts.workload == "sweep_compute") {
        runSweepWorkload(opts, false, report, spans);
    } else if (opts.workload == "sweep_memory") {
        runSweepWorkload(opts, true, report, spans);
    } else if (opts.workload == "serving_overload") {
        runServingWorkload(opts, report, spans);
    } else {
        die("unknown workload '" + opts.workload +
            "' (sweep_compute, sweep_memory, serving_overload)");
    }
    if (opts.trace) {
        std::string why;
        report.check(spans.consistent(&why),
                     "span self times within their spans: " + why);
        if (!opts.spanPath.empty() && !spans.write(opts.spanPath))
            die("cannot write " + opts.spanPath);
    }
    std::error_code ec;
    std::filesystem::remove_all(opts.workDir, ec);
    report.print();
    return 0;
}
