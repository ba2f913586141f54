// Fixture: suppressed by an inline justification.
struct Stream { unsigned hits; };
void bump(Stream *s)
{
    // dora:walk-kernel-begin
    // NOLINTNEXTLINE(dora-perf-walk-alias): fixture
    s->hits += 1;
    // dora:walk-kernel-end
}
