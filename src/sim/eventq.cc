#include "sim/eventq.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "sim/abrace.hh"

namespace biglittle
{

EventQueue::~EventQueue()
{
    // Detach any events still pending so their destructors do not
    // dereference a dead queue, then let self-owning events free
    // themselves (orphaned() may `delete this`, so iterate a copy).
    const std::vector<Event *> pending = sortedPending();
    heap.clear();
    for (Event *e : pending)
        e->queue = nullptr;
    for (Event *e : pending)
        e->orphaned();
}

std::vector<Event *>
EventQueue::sortedPending() const
{
    std::vector<Event *> sorted(heap);
    std::sort(sorted.begin(), sorted.end(), before);
    return sorted;
}

void
EventQueue::checkNotPast(const Event &event, Tick when) const
{
    if (when < curTick)
        panic("scheduling event '%s' at %llu, before current tick %llu",
              event.name().c_str(),
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick));
}

void
EventQueue::siftUp(std::size_t i)
{
    Event *event = heap[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(event, heap[parent]))
            break;
        heap[i] = heap[parent];
        heap[i]->heapIndex = i;
        i = parent;
    }
    heap[i] = event;
    event->heapIndex = i;
}

void
EventQueue::siftDown(std::size_t i)
{
    Event *event = heap[i];
    const std::size_t n = heap.size();
    while (true) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap[child + 1], heap[child]))
            ++child;
        if (!before(heap[child], event))
            break;
        heap[i] = heap[child];
        heap[i]->heapIndex = i;
        i = child;
    }
    heap[i] = event;
    event->heapIndex = i;
}

void
EventQueue::removeAt(std::size_t i)
{
    BL_ASSERT(i < heap.size());
    Event *last = heap.back();
    heap.pop_back();
    if (i == heap.size())
        return;
    heap[i] = last;
    last->heapIndex = i;
    siftUp(i);
    siftDown(last->heapIndex);
}

void
EventQueue::schedule(Event &event, Tick when)
{
    BL_ASSERT(event.queue == nullptr);
    checkNotPast(event, when);
    event.whenTick = when;
    event.sequence = nextSequence++;
    event.queue = this;
    heap.push_back(&event);
    siftUp(heap.size() - 1);
    if (race)
        race->onScheduled(event, curTick);
}

void
EventQueue::deschedule(Event &event)
{
    BL_ASSERT(event.queue == this);
    BL_ASSERT(event.heapIndex < heap.size() &&
              heap[event.heapIndex] == &event);
    removeAt(event.heapIndex);
    event.queue = nullptr;
    if (race)
        race->onDescheduled(event);
}

void
EventQueue::reschedule(Event &event, Tick when)
{
    if (event.queue == nullptr) {
        schedule(event, when);
        return;
    }
    // Re-key in place: the same observable effect as deschedule +
    // schedule (fresh sequence number, the same detector calls),
    // with one sift instead of a removal and an insertion.
    BL_ASSERT(event.queue == this);
    checkNotPast(event, when);
    if (race)
        race->onDescheduled(event);
    event.whenTick = when;
    event.sequence = nextSequence++;
    siftUp(event.heapIndex);
    siftDown(event.heapIndex);
    if (race)
        race->onScheduled(event, curTick);
}

Tick
EventQueue::nextTick() const
{
    return heap.empty() ? maxTick : heap.front()->when();
}

Event *
EventQueue::pickFromHeadBatch()
{
    // Every member of the head's same-(when, priority) batch has
    // only batch members above it (a parent never fires later), so
    // the batch is a connected subtree at the root.  Collect it,
    // order it by sequence, and pick the member the permuted
    // tie-break asks for.  Any pick is causally valid - an event
    // scheduled during this batch still fires after its parent
    // because it can only be picked on a later service.
    Event *head = heap.front();
    const std::size_t n = heap.size();
    const auto inBatch = [&](std::size_t i) {
        return i < n && heap[i]->whenTick == head->whenTick &&
               heap[i]->prio == head->prio;
    };
    if (!inBatch(1) && !inBatch(2))
        return head;
    std::vector<Event *> batch;
    std::vector<std::size_t> stack{0};
    while (!stack.empty()) {
        const std::size_t i = stack.back();
        stack.pop_back();
        batch.push_back(heap[i]);
        for (const std::size_t child : {2 * i + 1, 2 * i + 2}) {
            if (inBatch(child))
                stack.push_back(child);
        }
    }
    std::sort(batch.begin(), batch.end(), before);
    if (tieMode == TieBreak::lifo)
        return batch.back();
    return batch[tieRng.uniformInt(0, batch.size() - 1)];
}

bool
EventQueue::serviceOne()
{
    if (heap.empty())
        return false;
    Event *event =
        tieMode == TieBreak::fifo ? heap.front() : pickFromHeadBatch();
    removeAt(event->heapIndex);
    event->queue = nullptr;
    BL_ASSERT(event->whenTick >= curTick);
    curTick = event->whenTick;
    ++serviced;
    if (serviceHook || recentCap > 0 || race) {
        ServicedEvent info{event->whenTick,
                           static_cast<std::int32_t>(event->prio),
                           event->sequence, event->name()};
        if (recentCap > 0) {
            if (recent.size() >= recentCap)
                recent.pop_front();
            recent.push_back(info);
        }
        if (serviceHook)
            serviceHook(info);
        if (race) {
            race->beginEvent(info);
            event->process();
            race->endEvent();
            return true;
        }
    }
    event->process();
    return true;
}

void
EventQueue::setTieBreak(TieBreak mode, std::uint64_t seed)
{
    tieMode = mode;
    tieRng.seed(seed);
}

void
EventQueue::setServiceHook(ServiceHook hook)
{
    serviceHook = std::move(hook);
}

void
EventQueue::enableRecentLog(std::size_t n)
{
    recentCap = n;
    while (recent.size() > recentCap)
        recent.pop_front();
}

void
EventQueue::serialize(Serializer &s) const
{
    s.putU64(curTick);
    s.putU64(nextSequence);
    s.putU64(serviced);
    s.putU64(heap.size());
    // Pending events in firing order, folded into one digest: the
    // identity of what remains to run is part of the state contract
    // even though the closures behind it cannot be serialized.
    Serializer pending;
    for (const Event *e : sortedPending()) {
        pending.putU64(e->when());
        pending.putU64(static_cast<std::uint64_t>(
            static_cast<std::int32_t>(e->priority())));
        pending.putU64(e->sequenceNumber());
        pending.putU64(fnv1a64(e->name()));
    }
    s.putU64(pending.digest());
}

void
EventQueue::runUntil(Tick until)
{
    while (!heap.empty() && heap.front()->when() <= until)
        serviceOne();
    if (curTick < until)
        curTick = until;
}

} // namespace biglittle
