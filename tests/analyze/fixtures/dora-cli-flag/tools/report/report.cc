// Fixture: a one-line tool main() without cliCheckFlags() is a
// finding; a suppressed one and a main() under src/ are not.
int main(int argc, char **argv) { return argc > 1 && argv[1] ? 1 : 0; }
