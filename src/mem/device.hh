/**
 * @file
 * The timing-side memory interface shared by caches, crossbars and DRAM.
 */

#ifndef LAZYGPU_MEM_DEVICE_HH
#define LAZYGPU_MEM_DEVICE_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/types.hh"

namespace lazygpu
{

/** One timing access (reads and writes; data moves functionally). */
struct MemAccess
{
    Addr addr = 0;
    unsigned size = transactionSize;
    bool write = false;
};

/**
 * Invoked when an access completes at the requesting level. It is a
 * callable of fixed inline capacity, so a completion travels down the
 * hierarchy, waits in an MSHR and comes back without touching the
 * allocator (DESIGN.md §8). Only a trivially copyable callable of at
 * most `capacity` bytes converts to one -- a larger or owning capture
 * fails to compile -- so a copy is a memcpy and a call is one indirect
 * call. Default-constructed or built from nullptr, it is empty.
 */
class Completion
{
  public:
    /** The capture of ComputeUnit::send's data response. */
    static constexpr std::size_t capacity = 56;

    Completion() = default;
    Completion(std::nullptr_t) {}

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, Completion> &&
                 std::is_invocable_v<std::decay_t<F> &> &&
                 std::is_trivially_copyable_v<std::decay_t<F>> &&
                 sizeof(std::decay_t<F>) <= capacity &&
                 alignof(std::decay_t<F>) <= alignof(void *))
    Completion(F &&f) : call_(&invoke<std::decay_t<F>>)
    {
        ::new (static_cast<void *>(storage_))
            std::decay_t<F>(std::forward<F>(f));
    }

    explicit operator bool() const { return call_ != nullptr; }

    void operator()() { call_(storage_); }

  private:
    template <typename Fn>
    static void
    invoke(void *p)
    {
        (*std::launder(static_cast<Fn *>(p)))();
    }

    void (*call_)(void *) = nullptr;
    alignas(void *) unsigned char storage_[capacity] = {};
};

/**
 * Anything a request can be sent to. Completion fires when the access
 * has been serviced (including all queuing below this device).
 */
class MemDevice
{
  public:
    virtual ~MemDevice() = default;

    virtual void access(const MemAccess &acc, Completion done) = 0;
};

} // namespace lazygpu

#endif // LAZYGPU_MEM_DEVICE_HH
