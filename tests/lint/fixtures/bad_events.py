"""RL004 fixture: literal event kinds absent from the EVENTS registry."""


def narrate(events, bus, obj):
    events.emit("chunk_complete", start=0)
    bus.emit("sweep_start")
    obj.events_bus.emit("frontier_update", tons=1.0)
    emit_event("sweep_done")
