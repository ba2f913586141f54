// Fixture: a bench main() that declares its flags is clean.
#include "common/cli.hh"

int
main(int argc, char **argv)
{
    dora::cliCheckFlags(argc, argv, "A checked bench.", {});
    return 0;
}
