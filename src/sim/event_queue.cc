#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "core/contracts.hh"
#include "sim/logging.hh"

namespace polca::sim {

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead_ != kNoSlot) {
        std::uint32_t slot = freeHead_;
        POLCA_DCHECK(slot < slab_.size(),
                     "free-list head ", slot, " outside slab of ",
                     slab_.size());
        POLCA_DCHECK(!slab_[slot].callback,
                     "free-listed slot ", slot,
                     " still holds a callback");
        freeHead_ = slab_[slot].nextFree;
        return slot;
    }
    POLCA_CHECK(slab_.size() < kNoSlot,
                "slab exhausted (", slab_.size(), " slots)");
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Slot &s = slab_[slot];
    s.callback = nullptr;
    s.nextFree = freeHead_;
    freeHead_ = slot;
}

std::uint32_t
EventQueue::enqueue(Tick when, Callback &callback,
                    const std::string &name)
{
    POLCA_CHECK(when >= now_,
                "scheduling event '", name, "' at t=", when,
                " which is in the past (now=", now_, ")");
    POLCA_CHECK(static_cast<bool>(callback),
                "scheduling empty callback '", name, "'");
    POLCA_CHECK(!restoring_,
                "scheduling event '", name,
                "' while a snapshot restore is open (use "
                "rearmSchedule/rearmPost)");

    std::uint32_t slot = allocSlot();
    Slot &s = slab_[slot];
    s.callback = std::move(callback);
    s.seq = nextSeq_++;
    if (namesEnabled_ && !name.empty())
        names_.emplace(s.seq, name);

    heap_.push_back({when, s.seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++liveEvents_;
    highWater_ = std::max(highWater_, liveEvents_);
    return slot;
}

EventQueue::Handle
EventQueue::schedule(Tick when, Callback callback, std::string name)
{
    std::uint32_t slot = enqueue(when, callback, name);
    const Slot &s = slab_[slot];
    return Handle(this, slot, s.generation, when, s.seq);
}

EventQueue::Handle
EventQueue::scheduleAfter(Tick delay, Callback callback, std::string name)
{
    POLCA_CHECK(delay >= 0, "negative delay ", delay);
    return schedule(now_ + delay, std::move(callback), std::move(name));
}

std::uint64_t
EventQueue::post(Tick when, Callback callback, std::string name)
{
    std::uint32_t slot = enqueue(when, callback, name);
    return slab_[slot].seq;
}

std::uint64_t
EventQueue::postAfter(Tick delay, Callback callback, std::string name)
{
    POLCA_CHECK(delay >= 0, "negative delay ", delay);
    return post(now_ + delay, std::move(callback), std::move(name));
}

void
EventQueue::cancel(const Handle &handle)
{
    if (!handle.queue_)
        return;
    // Another queue's slot index names an unrelated event here.
    POLCA_CHECK(handle.queue_ == this,
                "cancel() with a handle from another event queue");
    POLCA_ASSERT(handle.slot_ < slab_.size(),
                 "handle points at slot ", handle.slot_,
                 " outside slab of ", slab_.size());
    Slot &s = slab_[handle.slot_];
    if (s.generation != handle.generation_)
        return;  // already fired, cancelled or discarded
    POLCA_DCHECK(static_cast<bool>(s.callback),
                 "pending handle's slot ", handle.slot_,
                 " holds no callback");
    POLCA_ASSERT(liveEvents_ > 0,
                 "cancelling a live handle with no live events");
    // Release the callback's resources now, but keep the slot
    // occupied until its heap entry surfaces (see Slot).
    ++s.generation;
    s.callback = nullptr;
    if (!names_.empty())
        names_.erase(s.seq);
    --liveEvents_;
}

void
EventQueue::reserve(std::size_t n)
{
    heap_.reserve(n);
    slab_.reserve(n);
}

std::vector<std::string>
EventQueue::pendingEventNames() const
{
    std::vector<HeapEntry> live;
    live.reserve(liveEvents_);
    for (const HeapEntry &entry : heap_) {
        if (slab_[entry.slot].callback)
            live.push_back(entry);
    }
    std::sort(live.begin(), live.end(),
              [](const HeapEntry &a, const HeapEntry &b) {
                  return Later{}(b, a);
              });
    std::vector<std::string> names;
    names.reserve(live.size());
    for (const HeapEntry &entry : live) {
        auto it = names_.find(entry.seq);
        names.push_back(it == names_.end() ? "(unnamed)"
                                           : it->second);
    }
    return names;
}

void
EventQueue::skipDead()
{
    while (!heap_.empty() && !slab_[heap_.front().slot].callback) {
        std::uint32_t slot = heap_.front().slot;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
        freeSlot(slot);
    }
}

bool
EventQueue::runOne()
{
    skipDead();
    if (heap_.empty())
        return false;

    HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();

    // Heap order is the determinism contract: the popped entry must
    // never precede the current time, and skipDead() must have left a
    // live callback on top.
    POLCA_ASSERT(top.when >= now_,
                 "heap order violated: popped t=", top.when,
                 " behind now=", now_);
    POLCA_DCHECK(top.slot < slab_.size(),
                 "heap entry slot ", top.slot, " outside slab of ",
                 slab_.size());
    POLCA_ASSERT(liveEvents_ > 0,
                 "firing an event with liveEvents_ == 0");
    now_ = top.when;
    Slot &s = slab_[top.slot];
    POLCA_DCHECK(static_cast<bool>(s.callback),
                 "runOne popped a dead slot after skipDead");
    // Handles stop being pending before the callback runs.
    ++s.generation;
    if (!names_.empty())
        names_.erase(top.seq);
    // Move the callback out before freeing the slot so re-entrant
    // scheduling can recycle it (and may grow the slab) safely.
    Callback callback = std::move(s.callback);
    s.callback = nullptr;
    freeSlot(top.slot);
    --liveEvents_;
    ++numProcessed_;
    callback();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick end)
{
    std::uint64_t processed = 0;
    for (;;) {
        skipDead();
        if (heap_.empty() || heap_.front().when > end)
            break;
        runOne();
        ++processed;
    }
    if (now_ < end)
        now_ = end;
    return processed;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t processed = 0;
    while (runOne())
        ++processed;
    return processed;
}

EventQueueState
EventQueue::captureState() const
{
    EventQueueState state;
    state.now = now_;
    state.nextSeq = nextSeq_;
    state.numProcessed = numProcessed_;
    state.liveEvents = liveEvents_;
    state.highWater = highWater_;
    return state;
}

void
EventQueue::beginRestore(const EventQueueState &state)
{
    POLCA_CHECK(!restoring_, "beginRestore with a restore open");
    POLCA_CHECK(state.now >= now_,
                "restoring to t=", state.now,
                " which is behind now=", now_);
    // Discard everything the freshly-built world scheduled; the
    // components re-arm their own pending events with the saved
    // (when, seq) pairs.  Slots are kept and their generations
    // bumped, so no handle to a discarded event can match the
    // re-armed event that reuses its slot (and possibly its seq).
    heap_.clear();
    freeHead_ = kNoSlot;
    for (std::size_t i = slab_.size(); i-- > 0;) {
        Slot &s = slab_[i];
        s.callback = nullptr;
        ++s.generation;
        s.nextFree = freeHead_;
        freeHead_ = static_cast<std::uint32_t>(i);
    }
    names_.clear();
    now_ = state.now;
    nextSeq_ = state.nextSeq;
    numProcessed_ = state.numProcessed;
    liveEvents_ = 0;
    highWater_ = state.highWater;
    restoring_ = true;
}

std::uint32_t
EventQueue::rearm(Tick when, std::uint64_t seq, Callback &callback,
                  const std::string &name)
{
    POLCA_CHECK(restoring_,
                "rearm of '", name, "' outside a restore");
    POLCA_CHECK(seq < nextSeq_,
                "rearm of '", name, "' with seq ", seq,
                " the snapshotted run never allocated (nextSeq=",
                nextSeq_, ")");
    POLCA_CHECK(when >= now_,
                "rearm of '", name, "' at t=", when,
                " behind the restored now=", now_);
    POLCA_CHECK(static_cast<bool>(callback),
                "rearm of empty callback '", name, "'");

    std::uint32_t slot = allocSlot();
    Slot &s = slab_[slot];
    s.callback = std::move(callback);
    s.seq = seq;
    if (namesEnabled_ && !name.empty())
        names_.emplace(seq, name);
    heap_.push_back({when, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++liveEvents_;
    highWater_ = std::max(highWater_, liveEvents_);
    return slot;
}

EventQueue::Handle
EventQueue::rearmSchedule(Tick when, std::uint64_t seq,
                          Callback callback, std::string name)
{
    std::uint32_t slot = rearm(when, seq, callback, name);
    return Handle(this, slot, slab_[slot].generation, when, seq);
}

void
EventQueue::rearmPost(Tick when, std::uint64_t seq, Callback callback,
                      std::string name)
{
    rearm(when, seq, callback, name);
}

void
EventQueue::endRestore(std::size_t expectedLive)
{
    POLCA_CHECK(restoring_, "endRestore without beginRestore");
    POLCA_CHECK(liveEvents_ == expectedLive,
                "restore re-armed ", liveEvents_,
                " events, expected ", expectedLive);
    restoring_ = false;
}

} // namespace polca::sim
