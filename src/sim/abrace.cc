#include "sim/abrace.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "base/logging.hh"
#include "sim/event.hh"

namespace biglittle
{

namespace
{

const char *
mode(bool write)
{
    return write ? "WRITE" : "READ ";
}

} // namespace

std::string
RaceDetector::Conflict::key() const
{
    // Canonical (sorted) event order so the key is stable regardless
    // of which side happened to be serviced first.
    const std::string &lo = std::min(eventA, eventB);
    const std::string &hi = std::max(eventA, eventB);
    return lo + "|" + hi + "|" + cell;
}

std::string
RaceDetector::Conflict::describe() const
{
    std::ostringstream os;
    os << "abrace: same-tick event order conflict ("
       << (writeA && writeB ? "write-write" : "read-write") << ")\n"
       << "  tick " << tick << " priority " << priority
       << ", contested state '" << cell << "'\n"
       << "  event '" << eventA << "' " << mode(writeA) << " ("
       << provenanceA << ")\n"
       << "  event '" << eventB << "' " << mode(writeB) << " ("
       << provenanceB << ")\n"
       << "  seen " << count << " time(s); service order between these"
       << " events is an arbitrary tie-break.\n"
       << "  Fix: give the handlers distinct EventPriority values"
       << " (docs/DETERMINISM.md).\n"
       << "  key: " << key() << "\n";
    return os.str();
}

void
RaceDetector::noteRead(std::string_view component,
                       std::string_view field)
{
    note(component, field, false);
}

void
RaceDetector::noteWrite(std::string_view component,
                        std::string_view field)
{
    note(component, field, true);
}

void
RaceDetector::note(std::string_view component, std::string_view field,
                   bool write)
{
    // Accesses outside any event handler (setup, teardown, direct
    // calls from the driver loop) have no same-tick peer to race
    // with; ignore them so components can note unconditionally.
    if (!inEvent)
        return;
    std::string cell;
    cell.reserve(component.size() + 1 + field.size());
    cell.append(component);
    cell.push_back('/');
    cell.append(field);
    Access &a = current.cells[std::move(cell)];
    if (write)
        a.write = true;
    else
        a.read = true;
}

void
RaceDetector::onScheduled(const Event &event, Tick now)
{
    std::ostringstream os;
    if (inEvent)
        os << "scheduled during '" << current.name << "' at tick "
           << now;
    else
        os << "scheduled at tick " << now << " (outside any event)";
    pendingProvenance[event.sequenceNumber()] = os.str();
    if (inEvent)
        pendingParent[event.sequenceNumber()] = current.sequence;
}

void
RaceDetector::onDescheduled(const Event &event)
{
    pendingProvenance.erase(event.sequenceNumber());
    pendingParent.erase(event.sequenceNumber());
}

void
RaceDetector::beginEvent(const ServicedEvent &event)
{
    BL_ASSERT(!inEvent);
    if (batchOpen &&
        (event.when != batchTick || event.priority != batchPriority))
        analyzeBatch();
    if (!batchOpen) {
        batchOpen = true;
        batchTick = event.when;
        batchPriority = event.priority;
    }

    inEvent = true;
    current = Record{};
    current.name = event.name;
    current.sequence = event.sequence;
    auto provIt = pendingProvenance.find(event.sequence);
    if (provIt != pendingProvenance.end()) {
        current.provenance = provIt->second;
        pendingProvenance.erase(provIt);
    } else {
        current.provenance = "schedule site unknown";
    }
    auto parIt = pendingParent.find(event.sequence);
    if (parIt != pendingParent.end()) {
        batchParent[event.sequence] = parIt->second;
        pendingParent.erase(parIt);
    }
}

void
RaceDetector::endEvent()
{
    BL_ASSERT(inEvent);
    inEvent = false;
    if (!current.cells.empty()) {
        ++tracked;
        batch.push_back(std::move(current));
    }
    current = Record{};
}

void
RaceDetector::finish()
{
    BL_ASSERT(!inEvent);
    if (batchOpen)
        analyzeBatch();
}

bool
RaceDetector::isAncestor(std::uint64_t ancestorSeq,
                         std::uint64_t seq) const
{
    // Walk the schedule-parent chain within this batch.  The chain is
    // short (it can only grow within one batch) and acyclic (a parent
    // always has a smaller sequence number than its child).
    auto it = batchParent.find(seq);
    while (it != batchParent.end()) {
        if (it->second == ancestorSeq)
            return true;
        it = batchParent.find(it->second);
    }
    return false;
}

void
RaceDetector::analyzeBatch()
{
    batchOpen = false;
    if (batch.size() > 1) {
        ++batches;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            for (std::size_t j = i + 1; j < batch.size(); ++j) {
                const Record &a = batch[i];
                const Record &b = batch[j];
                // An event scheduled (transitively) by another batch
                // member is causally ordered after it: not a race.
                if (isAncestor(a.sequence, b.sequence) ||
                    isAncestor(b.sequence, a.sequence))
                    continue;
                // Walk the smaller access set, probe the larger.
                const Record &probe =
                    a.cells.size() <= b.cells.size() ? a : b;
                const Record &other = (&probe == &a) ? b : a;
                for (const auto &[cell, pa] : probe.cells) {
                    auto it = other.cells.find(cell);
                    if (it == other.cells.end())
                        continue;
                    const Access &oa = it->second;
                    // Read-read is commutative; anything with a
                    // write on either side is order-sensitive.
                    if (!pa.write && !oa.write)
                        continue;
                    const bool probeIsA = (&probe == &a);
                    Conflict c;
                    c.tick = batchTick;
                    c.priority = batchPriority;
                    c.eventA = a.name;
                    c.eventB = b.name;
                    c.cell = cell;
                    c.writeA = probeIsA ? pa.write : oa.write;
                    c.writeB = probeIsA ? oa.write : pa.write;
                    c.provenanceA = a.provenance;
                    c.provenanceB = b.provenance;
                    const std::string k = c.key();
                    auto found_it = foundIndex.find(k);
                    if (found_it != foundIndex.end()) {
                        ++found[found_it->second].count;
                    } else {
                        foundIndex.emplace(k, found.size());
                        found.push_back(std::move(c));
                    }
                }
            }
        }
    }
    batch.clear();
    batchParent.clear();
}

std::string
RaceDetector::report() const
{
    if (found.empty())
        return "";
    std::ostringstream os;
    for (const Conflict &c : found)
        os << c.describe() << "\n";
    os << "abrace: " << found.size() << " distinct conflict(s), "
       << batches << " multi-event batch(es) analyzed, " << tracked
       << " event(s) tracked\n";
    return os.str();
}

} // namespace biglittle
