/**
 * @file
 * Error helpers in the spirit of gem5's base/logging.
 *
 * panic()  - internal simulator invariant violated (a simulator bug);
 *            aborts so a debugger or core dump can inspect the state.
 * fatal()  - the simulation cannot continue due to a user error (bad
 *            configuration, invalid arguments); exits with code 1.
 */

#ifndef SIM_LOGGING_HH
#define SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace nosync
{

namespace logging_detail
{

/** Build a message from stream-formattable pieces. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

} // namespace logging_detail

#define panic(...)                                                        \
    ::nosync::logging_detail::panicImpl(                                  \
        __FILE__, __LINE__, ::nosync::logging_detail::format(__VA_ARGS__))

#define fatal(...)                                                        \
    ::nosync::logging_detail::fatalImpl(                                  \
        __FILE__, __LINE__, ::nosync::logging_detail::format(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define panic_if(cond, ...)                                               \
    do {                                                                  \
        if (cond)                                                         \
            panic(__VA_ARGS__);                                           \
    } while (0)

#define fatal_if(cond, ...)                                               \
    do {                                                                  \
        if (cond)                                                         \
            fatal(__VA_ARGS__);                                           \
    } while (0)

} // namespace nosync

#endif // SIM_LOGGING_HH
