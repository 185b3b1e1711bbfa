/**
 * @file
 * The two JSON text helpers every serializer shares: trace JSONL,
 * the Perfetto timeline, the metrics dump and the run report.
 */

#ifndef GQOS_COMMON_JSON_HH
#define GQOS_COMMON_JSON_HH

#include <string>

namespace gqos
{

/**
 * JSON-safe number: %.17g round-trips doubles bit-exactly; JSON has
 * no inf/nan literals, so non-finite values become null.
 */
std::string jsonNumber(double v);

/** Escape @p s for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace gqos

#endif // GQOS_COMMON_JSON_HH
