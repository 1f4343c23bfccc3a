/**
 * @file
 * The main of every figure harness, built once per row of
 * matrices() with NOSYNC_MATRIX naming the row: the common flags
 * plus the row's toggle flag, if it has one.
 */

#include "matrices.hh"

using namespace nosync::bench;

int
main(int argc, char **argv)
{
    const MatrixSpec &spec = matrix(NOSYNC_MATRIX);
    bool toggled = false;
    auto toggle = [&](const char *arg) {
        bool match = spec.toggle && std::strcmp(arg, spec.toggle) == 0;
        toggled |= match;
        return match;
    };
    std::string usage =
        spec.toggle ? std::string(" [") + spec.toggle + "]" : "";
    Options opts = Options::parse(argc, argv, toggle, usage.c_str());
    return runFigures(spec, opts, toggled);
}
