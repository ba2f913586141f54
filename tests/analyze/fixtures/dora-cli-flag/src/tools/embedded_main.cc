// Fixture: main() outside bench/ and tools/ is out of scope.
int
main()
{
    return 0;
}
