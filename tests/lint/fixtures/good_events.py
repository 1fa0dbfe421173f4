"""RL004 fixture: registered kinds, dynamic kinds, unrelated emit calls."""


def narrate(events, bus, kind):
    events.emit("sweep_started", total=8)
    bus.emit("chunk_completed", start=0, count=4)
    events.emit(kind, start=0)  # dynamic: validated at runtime instead


def unrelated(handler, record, name, text):
    # logging.Handler.emit(record) and a benchmark's emit(name, text)
    # artifact helper are not bus emissions.
    handler.emit(record)
    emit(name, text)
