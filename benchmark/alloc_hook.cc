/**
 * @file
 * Program-wide operator new/delete replacement counting heap
 * allocations, so qsurf_bench can count a layer's allocations by
 * sampling heapAllocs() around its calls.  Exact when one thread
 * runs the sampled region.  A relaxed atomic increment per
 * allocation is the whole cost.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

std::atomic<uint64_t> g_heap_allocs{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (align <= alignof(std::max_align_t))
        return std::malloc(size ? size : 1);
    void *p = nullptr;
    if (posix_memalign(&p, align < sizeof(void *) ? sizeof(void *) : align,
                       size ? size : 1)
        != 0)
        return nullptr;
    return p;
}

void *
throwingAlloc(std::size_t size, std::size_t align)
{
    void *p = countedAlloc(size, align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

uint64_t
qsurf::bench::heapAllocs()
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

// The replaced operator new allocates with malloc, so the replaced
// operator delete frees with free; GCC's mismatch heuristic cannot
// see that pairing once the operators inline.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t size)
{
    return throwingAlloc(size, 0);
}

void *
operator new[](std::size_t size)
{
    return throwingAlloc(size, 0);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, 0);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, 0);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return throwingAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return throwingAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
