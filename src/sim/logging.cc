#include "logging.hh"

namespace nosync
{
namespace logging_detail
{

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    // Buffered diagnostics (e.g. a partially printed hang report)
    // must survive the abort.
    std::fflush(stdout);
    std::fflush(stderr);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::fflush(stdout);
    std::fflush(stderr);
    std::exit(1);
}

} // namespace logging_detail
} // namespace nosync
