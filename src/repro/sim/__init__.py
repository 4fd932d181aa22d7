"""Deterministic discrete-event simulation kernel.

Every other subsystem in this reproduction — the simulated campus network,
the simulated Windows machines, the WSRF services and the remote job
execution testbed — runs as generator-based processes on this kernel.
The kernel is single-threaded and event-ordered: given the same seed and
the same program, every run produces the same trace, which is what makes
the benchmark harness reproducible.

Public API
----------

``Environment``
    The event loop: owns simulated time, the event heap and process
    creation (:meth:`Environment.process`).
``Event``, ``Timeout``
    Waitables. A process ``yield``\\ s them to block.
``Process``
    A running generator; itself a waitable that triggers when the
    generator returns.
``AnyOf``, ``AllOf``
    Composite waits.
``Channel``
    Unbounded FIFO for inter-process message passing.
``Interrupt``
    Exception thrown into a process by :meth:`Process.interrupt`.

Schedule
--------

Events are popped in ``(time, priority, sequence)`` order: at one
instant the URGENT ones (process boots, interrupts, kills) before the
NORMAL ones, then in the order they were scheduled, one sequence number
per scheduled event.  An event's callbacks run in the order they were
attached.  A process that yields an event whose callbacks have already
run continues at once; one that yields an event that is triggered but
still on the heap waits for its pop.  An interrupt is an URGENT event of
its own: it lands on whatever the process awaits when it is popped and
is dropped if the process has ended by then, while ``kill`` takes effect
at the call.  ``tests/test_kernel_equivalence.py`` holds the kernel to
this schedule against a frozen copy of its predecessor.

Example
-------

>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3.0)
...     return env.now
>>> p = env.process(hello(env))
>>> env.run()
>>> p.value
3.0
"""

from repro.sim.core import Environment, Event, SimulationError, Timeout
from repro.sim.process import Interrupt, Process, ProcessKilled
from repro.sim.waitables import AllOf, AnyOf
from repro.sim.channel import Channel, ChannelClosed
from repro.sim.sync import Lock

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "ChannelClosed",
    "Environment",
    "Event",
    "Interrupt",
    "Lock",
    "Process",
    "ProcessKilled",
    "SimulationError",
    "Timeout",
]
