#include "sim/event.hh"

#include "base/logging.hh"
#include "sim/eventq.hh"

namespace biglittle
{

Event::Event(EventPriority prio_in)
    : prio(prio_in)
{
}

Event::~Event()
{
    if (queue != nullptr)
        queue->deschedule(*this);
}

void
Event::setPriority(EventPriority prio_in)
{
    BL_ASSERT(queue == nullptr);
    prio = prio_in;
}

CallbackEvent::CallbackEvent(std::function<void()> fn_in,
                             EventPriority prio_in, std::string label_in)
    : Event(prio_in), fn(std::move(fn_in)), label(std::move(label_in))
{
    BL_ASSERT(fn != nullptr);
}

void
CallbackEvent::process()
{
    fn();
}

} // namespace biglittle
