"""Generator-based processes.

A process is a generator that yields :class:`Event` objects; the process
resumes when the yielded event triggers, receiving the event's value (or
having its exception raised inside the generator).  A :class:`Process` is
itself an event that triggers with the generator's return value, so
processes can wait for each other by yielding them.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.event import Event, PENDING, PROCESSED

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Interrupt(Exception):
    """Raised inside a process that has been interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Wraps a generator and drives it through the event loop."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError("process target must be a generator")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off on the next simulator step at the current time.
        start = sim.event()
        start.callbacks.append(self._resume)
        start.succeed()

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        target = self._waiting_on
        if target is not None and not target.triggered:
            # Detach from the event we were waiting on.
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        throw = self.sim.event()
        throw.callbacks.append(
            lambda _evt: self._step(Interrupt(cause), is_exception=True)
        )
        throw.succeed()

    # -- internals -----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        if self._state != PENDING:  # `triggered` property, inlined (hot)
            return
        self._waiting_on = None
        if event._exception is not None:
            self._step(event._exception, is_exception=True)
        else:
            self._step(event._value, is_exception=False)

    def _step(self, value: Any, is_exception: bool) -> None:
        try:
            if is_exception:
                yielded = self._generator.throw(value)
            else:
                yielded = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # An unhandled interrupt terminates the process quietly.
            self.succeed(None)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(yielded, Event):
            self._generator.close()
            self.fail(SimulationError(f"process yielded non-event: {yielded!r}"))
            return

        self._waiting_on = yielded
        if yielded._state == PROCESSED:  # `processed` property, inlined (hot)
            # Already done: resume on the next loop turn with its value.
            resume = self.sim.event()
            resume.callbacks.append(self._resume)
            if yielded._exception is not None:
                resume.fail(yielded._exception)
            else:
                resume.succeed(yielded._value)
        else:
            yielded.callbacks.append(self._resume)
