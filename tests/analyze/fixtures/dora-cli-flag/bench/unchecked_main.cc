// Fixture: a bench main() that never calls cliCheckFlags() is a
// finding at its definition, even when a comment names the helper.
#include "common/cli.hh"

int
main(int argc, char **argv)
{
    // cliCheckFlags( is mentioned only in this comment.
    (void)argc;
    (void)argv;
    return 0;
}
