/**
 * @file
 * Strict command-line numbers for the examples: a malformed or
 * out-of-range value is a usage error (exit 2), never a silent
 * default or a truncated prefix.
 */

#ifndef EXAMPLES_PARSE_NUMBER_HH
#define EXAMPLES_PARSE_NUMBER_HH

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

namespace examples
{

/**
 * A decimal in [1, max]. Anything else — a sign, a space, a suffix
 * such as `5x`, a word — prints the error and @p usage and exits 2.
 */
inline unsigned long long
parseNumber(const char *text, unsigned long long max,
            const std::string &usage)
{
    unsigned long long num = 0;
    const char *end = text + std::strlen(text);
    auto [stop, err] = std::from_chars(text, end, num);
    if (err == std::errc() && stop == end && num >= 1 && num <= max)
        return num;
    std::cerr << "error: expected a number in [1, " << max
              << "], got '" << text << "'\n"
              << "usage: " << usage << "\n";
    std::exit(2);
}

} // namespace examples

#endif // EXAMPLES_PARSE_NUMBER_HH
