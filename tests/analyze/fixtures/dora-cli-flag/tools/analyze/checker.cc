// Fixture: the standalone checker links no dora library and rejects
// unknown options itself, so its main() is exempt.
int
main()
{
    return 0;
}
