/**
 * @file
 * Monotonic bump arena for per-request / per-point scratch memory.
 *
 * The compile service and the sweep driver execute a stream of
 * independent work units, each of which needs transient scratch
 * (BFS working sets, JSON row assembly, frame buffers) that dies
 * with the unit.  An Arena turns those many small heap allocations
 * into pointer bumps inside a few large blocks: the owner resets the
 * arena between units, so steady state allocates nothing from the
 * global heap at all.  The allocation counters feed the bench A/B
 * rows that keep the allocation story honest (BENCH_scaleout.json,
 * BENCH_perf.json).
 *
 * Arenas are single-threaded by design: each worker thread owns one.
 * The thread-local scratch binding (Arena::scratch() / Arena::Scope)
 * is how deep callees — BfsScratch, the row writer — find the
 * current unit's arena without plumbing a pointer through every
 * signature; code using it must fall back to the heap when no arena
 * is bound, and never changes *results* either way.
 */

#ifndef QSURF_COMMON_ARENA_H
#define QSURF_COMMON_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <streambuf>
#include <string>
#include <vector>

namespace qsurf {

/** A monotonic bump allocator with reset and counters. */
class Arena
{
  public:
    /** Counter snapshot; all values are cumulative since
     *  construction (reset never rolls them back). */
    struct Stats
    {
        uint64_t allocations = 0; ///< alloc() calls served.
        uint64_t bytes = 0;       ///< Bytes handed out (pre-align).
        uint64_t reserved = 0;    ///< Capacity of all blocks.
        uint64_t blocks = 0;      ///< Blocks currently owned.
        uint64_t resets = 0;      ///< reset() calls.
    };

    explicit Arena(size_t first_block_bytes = 64 * 1024);
    ~Arena();

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * @return @p size bytes aligned to @p align (a power of two no
     * larger than alignof(std::max_align_t)).  Never returns null;
     * grows by doubling blocks when the current block is full.
     * size 0 returns a valid one-past pointer.
     */
    void *alloc(size_t size,
                size_t align = alignof(std::max_align_t));

    /** Typed array convenience; elements are NOT constructed. */
    template <typename T>
    T *
    allocArray(size_t n)
    {
        return static_cast<T *>(alloc(n * sizeof(T), alignof(T)));
    }

    /**
     * Rewind to empty and coalesce: when more than one block exists,
     * all are released and replaced by a single block sized to the
     * total, so a steady-state owner reaches one block and then
     * never touches the global heap again.  Bumps generation().
     */
    void reset();

    /** @return cumulative counters. */
    Stats stats() const;

    /**
     * Monotone counter bumped by every reset().  Scratch owners that
     * cache arena-backed buffers (BfsScratch) compare it to detect
     * that their memory was recycled and must be re-acquired.
     */
    uint64_t generation() const { return generation_; }

    /** @return the calling thread's bound scratch arena, or null. */
    static Arena *scratch();

    /**
     * RAII binding of @p arena as the calling thread's scratch for
     * the scope's lifetime; restores the previous binding on exit.
     * Passing null is allowed and masks any outer binding.
     */
    class Scope
    {
      public:
        explicit Scope(Arena *arena);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Arena *prev;
    };

  private:
    struct Block
    {
        std::unique_ptr<char[]> data;
        size_t capacity = 0;
        size_t used = 0;
    };

    /** Make block @p need_bytes available; appends a new block. */
    void grow(size_t need_bytes);

    std::vector<Block> blocks_;
    size_t current_ = 0; ///< Index of the block being bumped.
    size_t first_block_bytes_;
    uint64_t allocations_ = 0;
    uint64_t bytes_ = 0;
    uint64_t resets_ = 0;
    uint64_t generation_ = 0;
};

/**
 * A growable output buffer (std::streambuf) whose storage comes from
 * the bound scratch arena — or the heap when none is bound.  The
 * sweep driver assembles each streamed JSON result row into one of
 * these, so row assembly costs zero heap allocations in steady
 * state.  The buffer is only valid while its arena memory is (i.e.
 * until the owner's reset()).
 */
class ArenaStreamBuf : public std::streambuf
{
  public:
    explicit ArenaStreamBuf(size_t initial_capacity = 1024);
    ~ArenaStreamBuf() override;

    ArenaStreamBuf(const ArenaStreamBuf &) = delete;
    ArenaStreamBuf &operator=(const ArenaStreamBuf &) = delete;

    /** @return the bytes written so far. */
    const char *data() const { return pbase(); }
    size_t size() const
    {
        return static_cast<size_t>(pptr() - pbase());
    }

    /** @return a copy of the contents as a std::string. */
    std::string str() const { return {data(), size()}; }

    /** Discard the contents, keeping the storage. */
    void clear() { setp(pbase(), epptr()); }

  protected:
    int_type overflow(int_type ch) override;

  private:
    void growTo(size_t capacity);

    Arena *arena_; ///< Bound at construction; null = heap-backed.
    std::unique_ptr<char[]> heap_;
};

/**
 * Minimal STL allocator over an Arena.  When bound to an arena,
 * deallocate is a no-op (the arena reclaims in bulk at reset) and
 * the container must not outlive the arena's next reset.  The default constructor captures the
 * calling thread's scratch binding (Arena::scratch()) at that
 * moment — or the global heap when none is bound — which is how
 * run-scoped simulator containers (ready queues, per-run scratch)
 * become arena-backed inside a sweep worker and stay plain heap
 * containers everywhere else, with identical results either way.
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;

    /** Capture the thread's scratch arena (null => heap-backed). */
    ArenaAllocator() : arena_(Arena::scratch()) {}

    explicit ArenaAllocator(Arena &arena) : arena_(&arena) {}

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &other)
        : arena_(other.arena())
    {
    }

    T *
    allocate(size_t n)
    {
        if (arena_)
            return arena_->allocArray<T>(n);
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    void
    deallocate(T *p, size_t) noexcept
    {
        if (!arena_)
            ::operator delete(p);
    }

    Arena *arena() const { return arena_; }

    template <typename U>
    bool
    operator==(const ArenaAllocator<U> &other) const
    {
        return arena_ == other.arena();
    }

  private:
    Arena *arena_;
};

} // namespace qsurf

#endif // QSURF_COMMON_ARENA_H
