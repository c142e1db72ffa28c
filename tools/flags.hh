/**
 * @file
 * Strict numeric flag parsing shared by the command-line tools.
 *
 * The whole value must be a non-negative decimal integer. atoi-style
 * coercion ("11x" -> 11, "abc" -> 0) silently runs the wrong
 * experiment; a named error and exit status 2 are the only acceptable
 * outcome for a malformed value.
 */

#ifndef PERSIM_TOOLS_FLAGS_HH
#define PERSIM_TOOLS_FLAGS_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace persim::tools
{

/** Parse @p v as the value of @p flag; exits 2 unless it is all digits. */
inline std::uint64_t
parseNum(const char *flag, const std::string &v)
{
    std::uint64_t out = 0;
    const char *begin = v.c_str();
    const char *end = begin + v.size();
    const auto [ptr, ec] = std::from_chars(begin, end, out);
    if (v.empty() || ec != std::errc() || ptr != end) {
        std::fprintf(stderr,
                     "%s wants a non-negative integer, got '%s'\n",
                     flag, v.c_str());
        std::exit(2);
    }
    return out;
}

/** parseNum() that also exits 2 when the value overflows unsigned. */
inline unsigned
parseNumU32(const char *flag, const std::string &v)
{
    const std::uint64_t n = parseNum(flag, v);
    if (n > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr, "%s value '%s' is out of range\n", flag,
                     v.c_str());
        std::exit(2);
    }
    return static_cast<unsigned>(n);
}

} // namespace persim::tools

#endif // PERSIM_TOOLS_FLAGS_HH
