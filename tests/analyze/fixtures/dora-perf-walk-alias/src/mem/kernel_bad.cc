// Fixture: AoS member access and bit-packed flags in a walk kernel.
#include <vector>
struct Stream { unsigned hits; };
void drain(Stream *s, std::vector<unsigned> &idx)
{
    std::vector<bool> seen(idx.size());
    // dora:walk-kernel-begin
    for (unsigned i = 0; i < idx.size(); ++i) {
        s->hits += idx.at(i);
        seen[i] = true;
    }
    // dora:walk-kernel-end
}
