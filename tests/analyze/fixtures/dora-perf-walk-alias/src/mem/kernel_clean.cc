// Fixture: flat SoA indexing inside the region passes, and member
// access outside any region is untouched.
struct Stream { unsigned hits; };
void drain(Stream *s, const unsigned *idx, unsigned *tags, unsigned n)
{
    unsigned hits = s->hits;
    // dora:walk-kernel-begin
    for (unsigned i = 0; i < n; ++i)
        hits += tags[idx[i]];
    // dora:walk-kernel-end
    s->hits = hits;
}
