/**
 * @file
 * Synthetic memory address stream generation.
 *
 * Tasks in the simulator (browser render phases, co-scheduled kernels) do
 * not execute real instructions; instead each task owns an AddressStream
 * that reproduces the *statistical* shape of its memory reference stream:
 * working-set size, spatial locality (sequential bursts), and temporal
 * locality (a hot subset that absorbs a configurable fraction of
 * references). Streams from different tasks are disjoint in the address
 * space, so all interaction between tasks happens where it does on real
 * hardware: capacity/conflict contention in the shared L2 and bandwidth
 * contention at the memory controller.
 */

#ifndef DORA_MEM_ADDRESS_STREAM_HH
#define DORA_MEM_ADDRESS_STREAM_HH

#include <cstdint>

#include "common/rng.hh"

namespace dora
{

class SnapshotReader;
class SnapshotWriter;

/**
 * Divide-free `n % d` for a divisor fixed ahead of time: the direct
 * remainder of Lemire, Kaser and Kurz (2019) with a 128-bit fraction
 * c = ceil(2^128 / d), exact for every 64-bit numerator and every
 * divisor in [1, 2^64). For d = 1, c wraps to 0 and the result is the
 * correct 0. Costs four multiplies instead of a 64-bit divide.
 */
class ExactModulo
{
  public:
    explicit ExactModulo(uint64_t d = 1);

    /** @p n mod the divisor, bit-equal to `n % d`. */
    uint64_t operator()(uint64_t n) const
    {
        // (c * n mod 2^128) is n's fractional position within d;
        // scaling it by d and keeping the top 64 of 192 bits is
        // floor(frac * d), the remainder.
        const Uint128 frac = c_ * n;
        const Uint128 lo = static_cast<Uint128>(
                               static_cast<uint64_t>(frac)) * d_;
        const Uint128 hi = static_cast<Uint128>(
                               static_cast<uint64_t>(frac >> 64)) * d_;
        return static_cast<uint64_t>((hi + (lo >> 64)) >> 64);
    }

  private:
    using Uint128 = unsigned __int128;

    Uint128 c_;
    uint64_t d_;
};

/**
 * Integer form of Rng::chance(@p p): for any draw x = Rng::next(),
 * `(x >> 11) < chanceThreshold(p)` exactly when `uniform() < p` would
 * be true for that draw. The 53 high bits scaled by 2^-53 are exact
 * in a double, so the threshold is ceil(p * 2^53) clamped to
 * [0, 2^53]; NaN and p <= 0 give 0 (never), p >= 1 gives 2^53
 * (always).
 */
uint64_t chanceThreshold(double p);

/**
 * Statistical description of a reference stream.
 *
 * The generator draws, per access, either from a small "hot" region
 * (temporal locality; mostly cache-resident) or from the full working
 * set, and extends each draw into a sequential burst (spatial locality).
 */
struct AddressStreamSpec
{
    /** Total working-set size in bytes (span of generated addresses). */
    uint64_t workingSetBytes = 1 << 20;

    /** Fraction of region draws that target the hot subset [0,1]. */
    double hotFraction = 0.6;

    /** Hot subset size as a fraction of the working set (0,1]. */
    double hotSetFraction = 0.05;

    /**
     * Probability that a burst continues to the next sequential line;
     * expected burst length is 1/(1-p).
     */
    double burstContinueProb = 0.5;

    /** Maximum burst length in lines (safety cap). */
    uint64_t burstCap = 64;
};

/**
 * Generates 64-bit line addresses according to an AddressStreamSpec.
 *
 * Addresses are line-granular (already divided by the cache line size)
 * and offset by a caller-provided base so concurrent streams never alias.
 */
class AddressStream
{
  public:
    /**
     * @param spec  statistical shape of the stream
     * @param base_line  address-space base, in line units; choose bases
     *                   at least workingSetBytes/64 apart across streams
     * @param rng   deterministic generator owned by the stream
     */
    AddressStream(const AddressStreamSpec &spec, uint64_t base_line,
                  Rng rng);

    /** Next line address in the stream. */
    uint64_t next();

    /**
     * Emit the next @p n line addresses into @p out — exactly the
     * sequence n successive next() calls would produce (same RNG draw
     * order and count, same final cursor/burst state), but generated
     * a burst at a time instead of by a per-access call: each line is
     * written as the draw that extends its burst succeeds. The batched
     * walk kernel's phase-A generator (DESIGN.md §5g): the region and
     * burst draws compare integer thresholds and the start line takes
     * a precomputed reciprocal modulo, so the loop has no divide and
     * no int-to-double conversion. next() stays the plain Rng
     * reference.
     */
    void nextRuns(uint64_t *out, uint32_t n);

    /** The spec this stream was built from. */
    const AddressStreamSpec &spec() const { return spec_; }

    /** Working-set span in lines (the range next() draws from). */
    uint64_t wsLines() const { return wsLines_; }

    /**
     * Replace the statistical shape mid-stream (used when a render task
     * transitions between phases with different locality). Bumps the
     * phase generation().
     */
    void reshape(const AddressStreamSpec &spec);

    /**
     * Process-unique identity of this stream object. Stable for the
     * stream's lifetime and never reused, so the adaptive sampling
     * layer can detect task starts/finishes (stream swaps) by value
     * without dereferencing possibly-dead pointers. Only equality of
     * ids is meaningful — the values themselves depend on allocation
     * order.
     */
    uint64_t streamId() const { return streamId_; }

    /**
     * Phase generation: starts at 0 and increments on every reshape().
     * (streamId, generation) therefore names one statistical phase of
     * one stream — the phase-signature component the MissRateEstimator
     * keys its cached sample results on.
     */
    uint64_t generation() const { return generation_; }

    /**
     * Serialize the full draw state (spec, RNG words, burst cursor).
     * streamId() is identity, not state: it is recorded only as a
     * fingerprint and never overwritten on restore.
     */
    void snapshot(SnapshotWriter &w) const;

    /**
     * Restore into this stream object (same-process replay: the
     * estimator's cached signatures reference streamId()s, which stay
     * valid only for the original objects). False on mismatch.
     */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

  private:
    /** Recompute the derived draw constants from spec_ and the spans. */
    void derive();

    AddressStreamSpec spec_;
    uint64_t baseLine_;
    uint64_t wsLines_;
    uint64_t hotLines_;
    Rng rng_;
    uint64_t streamId_;
    uint64_t generation_ = 0;

    // Current burst state. Invariant: cursor_ < wsLines_, so next()
    // never needs a modulo on the emitted line.
    uint64_t cursor_ = 0;
    uint64_t burstLeft_ = 0;

    // nextRuns()'s per-phase constants, rebuilt by derive() from the
    // members above whenever reshape() or tryRestore() changes them.
    ExactModulo hotMod_;  // dora:snapshot-exclude(derived)
    ExactModulo wsMod_;  // dora:snapshot-exclude(derived)
    uint64_t hotThreshold_ = 0;  // dora:snapshot-exclude(derived)
    uint64_t burstThreshold_ = 0;  // dora:snapshot-exclude(derived)
};

} // namespace dora

#endif // DORA_MEM_ADDRESS_STREAM_HH
