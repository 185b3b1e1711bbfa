/**
 * @file
 * Span recorder implementation.
 */

#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench
{

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

int
SpanRecorder::begin(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - epoch_)
                  .count();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    spans_[id].end = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
    // Spans nest strictly (single-threaded, RAII-scoped); pop down
    // to @p id so a mismatched close cannot corrupt the stack.
    while (!open_.empty()) {
        const int top = open_.back();
        open_.pop_back();
        if (top == id)
            break;
    }
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    // Union of child intervals per parent: sort each parent's
    // children by start and merge overlaps.
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.start, s.end);
    }
    std::vector<double> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, curS = 0.0, curE = -1.0;
        for (const auto &[s, e] : iv) {
            const double cs = std::max(s, spans_[i].start);
            const double ce = std::min(e, spans_[i].end);
            if (ce <= cs)
                continue;
            if (cs > curE) {
                if (curE > curS)
                    covered += curE - curS;
                curS = cs;
                curE = ce;
            } else {
                curE = std::max(curE, ce);
            }
        }
        if (curE > curS)
            covered += curE - curS;
        out[i] = (spans_[i].end - spans_[i].start) - covered;
    }
    return out;
}

double
SpanRecorder::topLevelSelf(const std::string &name) const
{
    const std::vector<double> self = selfTimes();
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent < 0 && spans_[i].name == name)
            sum += self[i];
    }
    return sum;
}

bool
SpanRecorder::consistent(std::string *why) const
{
    const std::vector<double> self = selfTimes();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto fail = [&](const char *what) {
            if (why)
                *why = s.name + ": " + what;
            return false;
        };
        if (s.end < s.start)
            return fail("span never closed");
        if (self[i] < -1e-12 || self[i] > s.end - s.start + 1e-12)
            return fail("self time outside [0, duration]");
        if (s.parent >= 0) {
            const Span &p = spans_[s.parent];
            if (s.start < p.start || s.end > p.end)
                return fail("child span outside its parent");
        }
    }
    return true;
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::vector<double> self = selfTimes();
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n {\"id\": %zu, \"name\": \"%s\", "
                     "\"parent\": %d, \"start_s\": %.9f, "
                     "\"end_s\": %.9f, \"self_s\": %.9f}",
                     i ? "," : "", i, s.name.c_str(), s.parent,
                     s.start, s.end, self[i]);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
