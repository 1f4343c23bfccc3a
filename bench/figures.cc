/**
 * @file
 * The main of every figure harness, built once per row of
 * matrices() with NOSYNC_MATRIX naming the row, whose flag table it
 * parses.
 */

#include "matrices.hh"

using namespace nosync::bench;

int
main(int argc, char **argv)
{
    const MatrixSpec &spec = matrix(NOSYNC_MATRIX);
    return runFigures(spec, Options::parse(argc, argv, spec.flags));
}
