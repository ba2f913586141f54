// Fixture: a suppressed main() is clean.
int
main()  // NOLINT(dora-cli-flag): takes no arguments at all
{
    return 0;
}
