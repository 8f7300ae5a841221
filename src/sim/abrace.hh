/**
 * @file
 * abrace: the same-tick event race detector.
 *
 * The event queue's `(when, priority, sequence)` total order makes
 * every run deterministic, but the `sequence` tie-break is
 * *semantically arbitrary*: two events at the same `(tick, priority)`
 * fire in schedule order, and nothing in the model justifies that
 * order.  If their handlers touch the same state - one writes what
 * the other reads or writes - the simulation's outcome silently
 * depends on an ordering accident, which is exactly the
 * nondeterminism class that breaks checkpoint digests, trace replay,
 * and figure reproduction three PRs later.
 *
 * abrace surfaces that class at runtime, TSan-style.  Event handlers
 * (and the component methods they call) declare their state accesses
 * through `Simulation::noteRead()/noteWrite(component, field)`.  The
 * queue brackets every serviced event, so each access is charged to
 * the event being processed; after each same-`(tick, priority)` batch
 * drains, the detector intersects the access sets of every *unordered*
 * pair of events in the batch (an event scheduled during another
 * batch member's handler is causally ordered and exempt) and reports
 * write-write and read-write conflicts with both event identities,
 * the contested state cell, and schedule-site provenance.
 *
 * There is no suppression: a reported conflict is fixed by giving the
 * handlers distinct EventPriority values, so every detected conflict
 * is a finding.
 *
 * The companion to detection is *proof*: EventQueue::setTieBreak()
 * reverses (lifo) or seeded-shuffles the service order within each
 * same-key batch.  A conflict whose permuted rerun changes the
 * checkpoint digest is a confirmed determinism bug, not a false
 * positive.  See docs/DETERMINISM.md for the workflow and the event
 * priority table that keeps cross-component handlers out of each
 * other's batches.
 */

#ifndef BIGLITTLE_SIM_ABRACE_HH
#define BIGLITTLE_SIM_ABRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.hh"
#include "sim/eventq.hh"

namespace biglittle
{

class Event;

/** Runtime detector of same-(tick, priority) access conflicts. */
class RaceDetector
{
  public:
    /** One distinct (eventA, eventB, cell) conflict, with counts. */
    struct Conflict
    {
        Tick tick = 0; ///< first occurrence
        std::int32_t priority = 0;
        std::string eventA; ///< serviced first at the first occurrence
        std::string eventB;
        std::string cell; ///< "component/field"
        bool writeA = false; ///< access mode of each side ...
        bool writeB = false; ///< ... (false means read)
        std::string provenanceA; ///< schedule site of each event
        std::string provenanceB;
        std::uint64_t count = 1; ///< occurrences across the run

        /** Multi-line TSan-style report of this conflict. */
        std::string describe() const;

        /** Canonical `eventA|eventB|cell` identity key (sorted). */
        std::string key() const;
    };

    RaceDetector() = default;

    RaceDetector(const RaceDetector &) = delete;
    RaceDetector &operator=(const RaceDetector &) = delete;

    // ---- access-tracking API (via Simulation::noteRead/noteWrite) --

    /** Charge a read of @p component's @p field to the current event. */
    void noteRead(std::string_view component, std::string_view field);

    /** Charge a write likewise.  A write dominates a prior read. */
    void noteWrite(std::string_view component, std::string_view field);

    // ---- event queue integration ----------------------------------

    /** Called by EventQueue::schedule: records provenance. */
    void onScheduled(const Event &event, Tick now);

    /** Called by EventQueue::deschedule: drops provenance. */
    void onDescheduled(const Event &event);

    /** Called before an event processes; flushes a finished batch. */
    void beginEvent(const ServicedEvent &event);

    /** Called after the event's process() returns. */
    void endEvent();

    /** Analyze the still-open batch (call once at end of run). */
    void finish();

    // ---- results --------------------------------------------------

    /** Distinct conflicts, in first-occurrence order. */
    const std::vector<Conflict> &conflicts() const { return found; }

    /** Same-key batches with more than one event that were analyzed. */
    std::uint64_t batchesAnalyzed() const { return batches; }

    /** Events that recorded at least one access. */
    std::uint64_t eventsTracked() const { return tracked; }

    /** Full human-readable report (empty string when clean). */
    std::string report() const;

  private:
    struct Access
    {
        bool read = false;
        bool write = false;
    };

    /** One serviced event of the open batch, with its access set. */
    struct Record
    {
        std::string name;
        std::uint64_t sequence = 0;
        std::string provenance;
        std::map<std::string, Access, std::less<>> cells;
    };

    void note(std::string_view component, std::string_view field,
              bool write);
    void analyzeBatch();
    bool isAncestor(std::uint64_t ancestorSeq,
                    std::uint64_t seq) const;

    // Open batch state.
    bool batchOpen = false;
    Tick batchTick = 0;
    std::int32_t batchPriority = 0;
    std::vector<Record> batch; ///< members that recorded accesses
    /** sequence -> parent sequence, for every batch member. */
    std::map<std::uint64_t, std::uint64_t> batchParent;

    // Currently processing event (valid between begin/endEvent).
    bool inEvent = false;
    Record current;

    // Pending (scheduled, not yet serviced) event provenance.
    std::map<std::uint64_t, std::string> pendingProvenance;
    std::map<std::uint64_t, std::uint64_t> pendingParent;

    std::vector<Conflict> found;
    std::map<std::string, std::size_t> foundIndex; ///< dedup by key
    std::uint64_t batches = 0;
    std::uint64_t tracked = 0;
};

} // namespace biglittle

#endif // BIGLITTLE_SIM_ABRACE_HH
