/**
 * @file
 * Cache-line-aligned storage for hot-path scratch arrays.
 *
 * The batched walk kernel (DESIGN.md §5g) streams through flat
 * per-stream arrays with SIMD loads; anchoring them on a 64-byte
 * boundary keeps every row load inside one cache line and lets the
 * compiler use aligned vector moves under -march=native. The
 * allocator is a thin std::allocator drop-in, so AlignedVec composes
 * with every std::vector idiom already used for scratch buffers.
 */

#ifndef DORA_COMMON_ALIGNED_HH
#define DORA_COMMON_ALIGNED_HH

#include <cstddef>
#include <new>
#include <vector>

namespace dora
{

/** Minimal allocator yielding @p Align-byte-aligned storage. */
template <typename T, std::size_t Align = 64>
struct AlignedAllocator
{
    using value_type = T;

    static_assert(Align >= alignof(T), "alignment below type minimum");

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t(Align)));
    }

    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t(Align));
    }

    friend bool operator==(const AlignedAllocator &,
                           const AlignedAllocator &) noexcept
    {
        return true;
    }
};

/** std::vector whose data() is 64-byte aligned. */
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T, 64>>;

} // namespace dora

#endif // DORA_COMMON_ALIGNED_HH
