#include "common/arena.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace qsurf {

namespace {

thread_local Arena *t_scratch = nullptr;

} // namespace

Arena::Arena(size_t first_block_bytes)
    : first_block_bytes_(std::max<size_t>(first_block_bytes, 64))
{
}

Arena::~Arena() = default;

void *
Arena::alloc(size_t size, size_t align)
{
    panicIf(align == 0 || (align & (align - 1)) != 0,
            "arena alignment must be a power of two, got ", align);
    panicIf(align > alignof(std::max_align_t),
            "arena over-aligned allocation (align ", align,
            ") is not supported");
    ++allocations_;
    bytes_ += size;
    for (;;) {
        if (current_ < blocks_.size()) {
            Block &b = blocks_[current_];
            size_t aligned = (b.used + align - 1) & ~(align - 1);
            if (aligned + size <= b.capacity) {
                b.used = aligned + size;
                return b.data.get() + aligned;
            }
            // Try the next existing block (rewound ones are empty);
            // append a new one only past the last.
            if (current_ + 1 < blocks_.size()) {
                ++current_;
                continue;
            }
        }
        grow(size + align);
    }
}

void
Arena::grow(size_t need_bytes)
{
    size_t capacity = blocks_.empty()
        ? first_block_bytes_
        : blocks_.back().capacity * 2;
    capacity = std::max(capacity, need_bytes);
    Block b;
    b.data = std::make_unique<char[]>(capacity);
    b.capacity = capacity;
    blocks_.push_back(std::move(b));
    current_ = blocks_.size() - 1;
}

void
Arena::reset()
{
    ++resets_;
    ++generation_;
    if (blocks_.size() > 1) {
        // Coalesce: one block holding everything the last cycle
        // needed, so the next cycle bump-allocates without growing.
        size_t total = 0;
        for (const Block &b : blocks_)
            total += b.capacity;
        blocks_.clear();
        Block b;
        b.data = std::make_unique<char[]>(total);
        b.capacity = total;
        blocks_.push_back(std::move(b));
    } else if (!blocks_.empty()) {
        blocks_.front().used = 0;
    }
    current_ = 0;
}

Arena::Stats
Arena::stats() const
{
    Stats s;
    s.allocations = allocations_;
    s.bytes = bytes_;
    s.blocks = blocks_.size();
    s.resets = resets_;
    for (const Block &b : blocks_)
        s.reserved += b.capacity;
    return s;
}

Arena *
Arena::scratch()
{
    return t_scratch;
}

Arena::Scope::Scope(Arena *arena) : prev(t_scratch)
{
    t_scratch = arena;
}

Arena::Scope::~Scope()
{
    t_scratch = prev;
}

ArenaStreamBuf::ArenaStreamBuf(size_t initial_capacity)
    : arena_(Arena::scratch())
{
    growTo(std::max<size_t>(initial_capacity, 64));
}

ArenaStreamBuf::~ArenaStreamBuf() = default;

ArenaStreamBuf::int_type
ArenaStreamBuf::overflow(int_type ch)
{
    if (traits_type::eq_int_type(ch, traits_type::eof()))
        return traits_type::not_eof(ch);
    growTo(static_cast<size_t>(epptr() - pbase()) * 2);
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
    return ch;
}

void
ArenaStreamBuf::growTo(size_t capacity)
{
    size_t used = pbase() ? size() : 0;
    char *fresh;
    std::unique_ptr<char[]> heap;
    if (arena_) {
        fresh = arena_->allocArray<char>(capacity);
    } else {
        heap = std::make_unique<char[]>(capacity);
        fresh = heap.get();
    }
    if (used)
        std::memcpy(fresh, pbase(), used);
    heap_ = std::move(heap); // Frees the previous heap buffer.
    setp(fresh, fresh + capacity);
    pbump(static_cast<int>(used));
}

} // namespace qsurf
