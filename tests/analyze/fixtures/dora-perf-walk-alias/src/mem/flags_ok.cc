// Fixture: std::vector<bool> is fine in files without walk kernels.
#include <vector>
std::vector<bool> palette() { return {}; }
