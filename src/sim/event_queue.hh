/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A minimal, deterministic event queue: events are callbacks scheduled
 * at absolute ticks.  Ties are broken by insertion order so that a run
 * with the same seed always produces the same trajectory.
 *
 * Two scheduling paths share one time-ordered heap:
 *
 *  - schedule()/scheduleAfter() return a Handle that can cancel the
 *    event.  A handle is a plain value (queue, slot, generation,
 *    when, seq): scheduling allocates nothing per event beyond the
 *    callback itself.
 *  - post()/postAfter() are the fire-and-forget path: no handle.
 *    Components that never cancel (arrival chains, fault triggers,
 *    one-shot command completions) should prefer it.
 *
 * Internally events live in a slab with a free list; the heap itself
 * orders small POD entries (when, seq, slot), so sift operations never
 * chase pointers.  Each slot carries a generation that firing,
 * cancel() and beginRestore() bump, so a handle is pending exactly
 * while its generation matches its slot's: a handle to a fired,
 * cancelled or discarded event stays inert after its slot is
 * recycled.  A handle must not be used after its queue is destroyed.
 *
 * Scheduling in the past (when < now()) or with a negative delay is
 * rejected with a panic on BOTH paths — accepting such an event would
 * silently corrupt heap order and break determinism, so it is treated
 * as a simulator bug, never a recoverable condition.  Empty callbacks
 * are rejected the same way.
 *
 * Snapshot/branch support: captureState() freezes the queue's
 * counters (time, sequence allocator, processed/high-water marks)
 * into an EventQueueState.  Callbacks cannot be serialized, so a
 * snapshot is restored by *re-arming*: beginRestore() discards every
 * pending event and adopts the saved counters, then each component
 * re-registers its own pending callbacks via rearmSchedule()/
 * rearmPost() with the (when, seq) pair it saved — the original seq
 * is reused, so tie-breaking (and therefore the trajectory) is
 * bit-identical to the run the snapshot was taken from regardless of
 * re-arm order.  endRestore() closes the protocol and checks the
 * expected number of live events.  Normal scheduling panics while a
 * restore is open.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace polca::sim {

/**
 * Counter state of an EventQueue at a snapshot boundary.  Pending
 * callbacks are not part of this: they are re-armed by their owning
 * components (the Snapshottable protocol, see sim/snapshot.hh).
 */
struct EventQueueState
{
    Tick now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numProcessed = 0;
    std::size_t liveEvents = 0;
    std::size_t highWater = 0;
};

/**
 * Time-ordered queue of callbacks; the heart of the simulator.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /**
     * Opaque handle to a scheduled event.  Default-constructed handles
     * are inert; cancel() on an already-fired or cancelled handle is a
     * no-op.  Handles stay valid (inert) after their event fires,
     * after it is cancelled and after beginRestore() discards it, but
     * not after the queue itself is destroyed.
     */
    class Handle
    {
      public:
        Handle() = default;

        /** @return true if the event has neither fired nor been
         *  cancelled (false inside the event's own callback). */
        bool pending() const
        {
            return queue_ &&
                queue_->slab_[slot_].generation == generation_;
        }

        /** Firing time of the pending event (snapshot support;
         *  meaningless unless pending()). */
        Tick when() const { return when_; }

        /** Sequence number of the pending event — the tie-break
         *  identity a re-arm must reuse (see EventQueueState). */
        std::uint64_t seq() const { return seq_; }

      private:
        friend class EventQueue;

        Handle(const EventQueue *queue, std::uint32_t slot,
               std::uint64_t generation, Tick when, std::uint64_t seq)
            : queue_(queue), slot_(slot), generation_(generation),
              when_(when), seq_(seq)
        {}

        const EventQueue *queue_ = nullptr;
        std::uint32_t slot_ = 0;
        /** The slot's generation when the event was scheduled. */
        std::uint64_t generation_ = 0;
        Tick when_ = 0;
        std::uint64_t seq_ = 0;
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule a cancellable callback at absolute tick @p when.
     *
     * @param when  Absolute time; must be >= now() (panics otherwise —
     *              see the file comment on past scheduling).
     * @param callback  Invoked when simulated time reaches @p when.
     */
    [[nodiscard]] Handle schedule(Tick when, Callback callback);

    /** Schedule a cancellable callback @p delay ticks from now
     *  (delay >= 0; negative delays panic).  Discarding the Handle
     *  forfeits cancellation — use post()/postAfter() for that. */
    [[nodiscard]] Handle scheduleAfter(Tick delay, Callback callback);

    /**
     * Fire-and-forget: schedule a callback at absolute tick @p when
     * with no handle.  Same validation as schedule(): the past and
     * empty callbacks panic.
     * @return the event's sequence number (components that snapshot
     *         a pending post save it for the re-arm).
     */
    std::uint64_t post(Tick when, Callback callback);

    /** Fire-and-forget @p delay ticks from now (delay >= 0). */
    std::uint64_t postAfter(Tick delay, Callback callback);

    /** Cancel a pending event; no-op if already fired or cancelled.
     *  @p handle must come from this queue (or be default-constructed):
     *  another queue's handle panics. */
    void cancel(const Handle &handle);

    /** Pre-size the heap and slab for @p n simultaneous live events
     *  (optional; the queue grows on demand either way). */
    void reserve(std::size_t n);

    /** Current simulated time. */
    [[nodiscard]] Tick now() const { return now_; }

    /** @return true if no live (non-cancelled) events remain. */
    [[nodiscard]] bool empty() const { return liveEvents_ == 0; }

    /** Number of live events currently scheduled. */
    [[nodiscard]] std::size_t size() const { return liveEvents_; }

    /** Most live events ever scheduled at once (queue pressure). */
    [[nodiscard]] std::size_t highWaterMark() const { return highWater_; }

    /** Total callbacks executed since construction. */
    [[nodiscard]] std::uint64_t numProcessed() const { return numProcessed_; }

    /**
     * Fire the single earliest pending event.
     * @return false if the queue was empty.
     */
    bool runOne();

    /**
     * Run every event with time <= @p end, then advance now() to
     * @p end even if the queue drains early.
     * @return number of events processed.
     */
    std::uint64_t runUntil(Tick end);

    /** Run until the queue is empty. @return events processed. */
    std::uint64_t runAll();

    /** @name Snapshot/branch protocol (see the file comment) */
    /** @{ */
    /** Freeze the queue's counters at the current instant. */
    [[nodiscard]] EventQueueState captureState() const;

    /**
     * Open a restore: discard every pending event (their handles
     * become inert, also once a re-armed event reuses their slot and
     * seq) and adopt @p state's time and counters.  Until
     * endRestore(), only rearmSchedule()/rearmPost() may add events.
     */
    void beginRestore(const EventQueueState &state);

    /**
     * Re-register a cancellable callback saved from a snapshot.
     * @p seq must be a sequence number the snapshotted run had
     * already allocated (seq < nextSeq) and @p when must not precede
     * the restored now().  Only valid between beginRestore() and
     * endRestore().
     */
    [[nodiscard]] Handle rearmSchedule(Tick when, std::uint64_t seq,
                                       Callback callback);

    /** Re-register a fire-and-forget callback saved from a
     *  snapshot; same rules as rearmSchedule(). */
    void rearmPost(Tick when, std::uint64_t seq, Callback callback);

    /**
     * Close the restore.  @p expectedLive is the number of events
     * the caller re-armed — passed explicitly rather than taken from
     * the snapshot because a branch may legitimately re-arm fewer
     * events than the source run had pending (e.g. an unobserved
     * baseline branch skips the stats task).
     */
    void endRestore(std::size_t expectedLive);

    /** @return true while a restore is open. */
    bool restoring() const { return restoring_; }
    /** @} */

  private:
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    /** Slab entry; cancelled events keep their slot (callback
     *  cleared) until their heap entry surfaces, so a heap entry's
     *  slot index is never re-targeted underneath it. */
    struct Slot
    {
        Callback callback;
        std::uint64_t seq = 0;
        /** Bumped whenever the slot's event fires, is cancelled or is
         *  discarded by beginRestore(); never reset (the slab never
         *  shrinks), so no stale handle can match a later event. */
        std::uint64_t generation = 0;
        std::uint32_t nextFree = kNoSlot;
    };

    /** What the heap actually orders: 24 bytes, no indirection. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Validate (when, callback) and enqueue; shared by both paths.
     *  @return the slab slot the event landed in. */
    std::uint32_t enqueue(Tick when, Callback &callback);

    /** Enqueue with a caller-supplied (snapshot-saved) seq; shared
     *  by both re-arm paths. */
    std::uint32_t rearm(Tick when, std::uint64_t seq,
                        Callback &callback);

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    /** Pop cancelled entries off the top of the heap, recycling their
     *  slots. */
    void skipDead();

    std::vector<HeapEntry> heap_;
    std::vector<Slot> slab_;
    std::uint32_t freeHead_ = kNoSlot;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numProcessed_ = 0;
    std::size_t liveEvents_ = 0;
    std::size_t highWater_ = 0;
    bool restoring_ = false;
};

} // namespace polca::sim

