"""``repro.sim`` schedules exactly what the frozen kernel schedules.

Hypothesis draws small process programs whose delays come from
``{0, 0.5, 1, 1.5}``, so that events colliding at one instant are the
common case, and an interpreter runs the same program on
``tests/reference_kernel.py`` and on ``repro.sim``.  Both must produce
the same execution trace (who ran which op when, and what it saw), the
same ``(time, priority, sequence, type)`` for every event popped, the
same final clock, the same number of sequence numbers consumed, the same
outcome per process and the same exceptions out of ``env.run()`` — and,
with a recording stand-in attached as ``env.san``, the same sequence of
sanitizer hook calls.  ``Lock`` and ``Channel`` are the ``repro.sim``
classes on both sides: they build their events through ``env.event()``.

A failure prints the program; ``_execute(kernel, program, False)`` on
each side then shows where the two traces part.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim as shortened_kernel
from repro.sim import Channel, Lock
from tests import reference_kernel

DELAYS = (0, 0.5, 1, 1.5)
#: locks, channels and shared events: this many of each
N_SHARED = 2


# -- programs --------------------------------------------------------------------------------

_shared = st.integers(0, N_SHARED - 1)
#: a process, taken modulo the number spawned by the time the op runs
_process = st.integers(0, 7)
_delay = st.sampled_from(DELAYS)
_waitable = st.one_of(
    st.tuples(st.just("timeout"), _delay),
    st.tuples(st.just("process"), _process),
    st.tuples(st.just("event"), _shared),
)
_sleep = st.tuples(st.just("sleep"), _delay)
_plain_ops = [
    _sleep, _sleep, _sleep,  # three times as likely as any other op: programs that last
    st.tuples(st.just("join"), _process),
    st.tuples(st.just("acquire"), _shared),
    st.tuples(st.just("release"), _shared),
    st.tuples(st.just("put"), _shared),
    st.tuples(st.just("get"), _shared),
    st.tuples(st.just("close"), _shared),
    st.tuples(st.just("succeed"), _shared),
    st.tuples(st.just("fail"), _shared),
    st.tuples(st.just("wait"), _shared),
    st.tuples(st.just("any_of"), st.lists(_waitable, max_size=3)),
    st.tuples(st.just("all_of"), st.lists(_waitable, max_size=3)),
    st.tuples(st.just("interrupt"), _process),
    st.tuples(st.just("kill"), _process),
    st.tuples(st.just("raise")),
    st.tuples(st.just("yield_junk")),
]


def _bodies_spawning(children):
    spawns = [
        st.tuples(st.just("spawn"), children),
        st.tuples(st.just("spawn_join"), children),
    ]
    return st.lists(st.one_of(*_plain_ops, *spawns), max_size=8)


#: the ops of one process; a spawn op carries the child's own ops
_body = st.recursive(
    st.lists(st.one_of(*_plain_ops), max_size=8), _bodies_spawning, max_leaves=12
)
#: what top-level code does between two run() calls (nothing that waits)
_top_op = st.one_of(
    st.tuples(st.just("interrupt"), _process),
    st.tuples(st.just("kill"), _process),
    st.tuples(st.just("succeed"), _shared),
    st.tuples(st.just("fail"), _shared),
    st.tuples(st.just("put"), _shared),
    st.tuples(st.just("spawn"), _body),
)
_program = st.fixed_dictionaries({
    "roots": st.lists(_body, min_size=2, max_size=6),
    # run(until=deadline), then the top-level ops; deadlines only grow
    "slices": st.lists(
        st.tuples(st.sampled_from((0, 0.5, 1, 2)), st.lists(_top_op, max_size=2)),
        max_size=2,
    ).map(lambda slices: sorted(slices, key=lambda s: s[0])),
    # the last run but one is run(until=<this process>), or skipped
    "watch": st.none() | _process,
})


# -- the interpreter -------------------------------------------------------------------------


class Boom(Exception):
    """What a program's ``raise`` and ``fail`` ops raise."""


def _show_error(exc):
    # an event's repr carries its address
    return type(exc).__name__, re.sub(r"0x[0-9a-f]+", "0x", str(exc))


class _Recorder:
    """Stands in for the sanitizer as ``env.san``: logs every hook call.
    Events are numbered in the order the hooks first see them."""

    def __init__(self, env):
        self.env = env
        self.log = []
        self._numbers = {}

    def _label(self, event):
        if event is None:
            return None
        return self._numbers.setdefault(event, len(self._numbers)), type(event).__name__

    def _record(self, hook, *events):
        self.log.append((hook, self.env.now, self._label(self.env.active_process),
                         *map(self._label, events)))

    def on_schedule(self, event):
        self._record("schedule", event)

    def on_step(self, event):
        self._record("step", event)

    def on_step_end(self):
        self._record("step_end")

    def on_resume(self, process, trigger):
        self._record("resume", process, trigger)

    def on_join(self, process, target):
        self._record("join", process, target)

    def on_run_begin(self):
        self._record("run_begin")

    def on_acquire(self, lock, event):
        self._record("acquire", event)

    def on_release(self, lock):
        self._record("release")


class _Run:
    """One program on one kernel."""

    def __init__(self, kernel, record_hooks):
        self.env = env = kernel.Environment()
        self.recorder = None
        if record_hooks:
            self.recorder = env.san = _Recorder(env)
        self.trace = []
        self.pops = []
        #: every process, in spawn order, and the name the trace gives it
        self.processes = []
        self.names = {}
        self.locks = [Lock(env) for _ in range(N_SHARED)]
        self.channels = [Channel(env, name=f"ch{k}") for k in range(N_SHARED)]
        self.events = [env.event() for _ in range(N_SHARED)]

        # run() looks step up through the instance: note each pop's key
        kernel_step = env.step

        def step():
            when, priority, sequence, event = env._heap[0]
            self.pops.append((when, priority, sequence, type(event).__name__))
            kernel_step()

        env.step = step

    def spawn(self, name, ops):
        process = self.env.process(self._body(name, ops))
        self.processes.append(process)
        self.names[process] = name
        return process

    def _pick(self, number):
        return self.processes[number % len(self.processes)]

    def _waitables(self, me, tag, specs):
        events = []
        for position, (kind, arg) in enumerate(specs):
            if kind == "timeout":
                events.append(self.env.timeout(arg, value=f"{tag}/{position}"))
            elif kind == "event":
                events.append(self.events[arg])
            elif self._pick(arg) is not me:
                events.append(self._pick(arg))
        return events

    def perform(self, me, tag, op):
        """Carry out *op*; returns (what to wait for or None, what it saw
        so far)."""
        env, kind = self.env, op[0]
        if kind == "sleep":
            return env.timeout(op[1], value=tag), None
        if kind == "spawn":
            return None, self.names[self.spawn(tag, op[1])]
        if kind == "spawn_join":
            return self.spawn(tag, op[1]), None
        if kind == "join":
            target = self._pick(op[1])
            return (None, "myself") if target is me else (target, None)
        if kind == "acquire":
            return self.locks[op[1]].acquire(), None
        if kind == "release":
            return None, self.locks[op[1]].release()
        if kind == "put":
            return None, self.channels[op[1]].put(tag)
        if kind == "get":
            return self.channels[op[1]].get(), None
        if kind == "close":
            return None, self.channels[op[1]].close()
        if kind == "succeed":
            self.events[op[1]].succeed(tag)
            return None, None
        if kind == "fail":
            self.events[op[1]].fail(Boom(tag))
            return None, None
        if kind == "wait":
            return self.events[op[1]], None
        if kind in ("any_of", "all_of"):
            return getattr(env, kind)(self._waitables(me, tag, op[1])), None
        if kind in ("interrupt", "kill"):
            target = self._pick(op[1])
            getattr(target, kind)(tag)
            return None, self.names[target]
        if kind == "yield_junk":
            return "junk", None
        raise AssertionError(op)

    def _body(self, name, ops):
        env = self.env
        me = env.active_process

        def see(index, *what):
            self.trace.append((env.now, name, index, env.active_process is me, *what))

        try:
            for index, op in enumerate(ops):
                tag = f"{name}.{index}"
                if op[0] == "raise":
                    see(index, "raise")
                    raise Boom(tag)
                # an interrupt, a failed event or a dead child surfaces at
                # the yield: the process notes it and moves on to its next op
                try:
                    awaited, seen = self.perform(me, tag, op)
                    if awaited is not None:
                        see(index, op[0], "waits")
                        seen = yield awaited
                        if isinstance(seen, dict):  # a condition's {event: value}
                            seen = tuple(seen.values())
                except Exception as exc:
                    seen = _show_error(exc)
                see(index, op[0], seen)
            return f"{name} done"
        finally:
            see(None, "exit")

    def top_level(self, index, op):
        try:
            _, seen = self.perform(None, f"top.{index}", op)
        except Exception as exc:
            seen = _show_error(exc)
        self.trace.append((self.env.now, "top", index, op[0], seen))

    def run(self, until=None):
        """``env.run(until)``, restarted after every exception it lets out."""
        for _ in range(1000):
            try:
                returned = self.env.run(until)
            except Exception as exc:
                self.trace.append((self.env.now, "run", None, "raised", _show_error(exc)))
                if until is not None and not isinstance(until, (int, float)):
                    return  # the watched event failed, or the schedule drained
            else:
                self.trace.append((self.env.now, "run", None, "returned", returned))
                return
        raise AssertionError("run() keeps raising")

    def outcome(self, process):
        if not process.triggered:
            return "pending"
        if process.ok:
            return "ok", process.value
        return "failed", *_show_error(process.value)


def _execute(kernel, program, record_hooks):
    run = _Run(kernel, record_hooks)
    for number, ops in enumerate(program["roots"]):
        run.spawn(f"r{number}", ops)
    for number, (deadline, top_ops) in enumerate(program["slices"]):
        run.run(until=deadline)
        for index, op in enumerate(top_ops):
            run.top_level(f"{number}.{index}", op)
    if program["watch"] is not None:
        run.run(until=run._pick(program["watch"]))
    run.run()
    # read everything out while the processes are alive: a generator
    # collected later still runs its ``finally``
    return {
        "trace": tuple(run.trace),
        "pops": tuple(run.pops),
        "now": run.env.now,
        "sequence numbers": run.env._seq,
        "outcomes": tuple((run.names[p], run.outcome(p)) for p in run.processes),
        "hooks": tuple(run.recorder.log) if record_hooks else None,
    }


def _assert_same_schedule(program, record_hooks):
    want = _execute(reference_kernel, program, record_hooks)
    got = _execute(shortened_kernel, program, record_hooks)
    for component in want:
        assert got[component] == want[component], component


# -- the properties --------------------------------------------------------------------------


@settings(max_examples=300)
@given(_program)
def test_same_schedule_as_the_frozen_kernel(program):
    _assert_same_schedule(program, record_hooks=False)


@settings(max_examples=60)
@given(_program)
def test_same_sanitizer_hook_sequence_as_the_frozen_kernel(program):
    _assert_same_schedule(program, record_hooks=True)


def test_the_interpreter_waits_collides_and_races():
    """One fixed program: generated programs are only an oracle if their
    ops really wait, collide at one instant and race."""
    program = {
        "roots": [
            # r0 interrupts r1 and kills r2 before either has booted
            [("interrupt", 1), ("kill", 2), ("sleep", 1), ("succeed", 0), ("put", 0)],
            [("sleep", 1), ("sleep", 1), ("wait", 0), ("get", 0),
             ("all_of", [("timeout", 0), ("timeout", 0.5), ("event", 0)])],
            [("sleep", 0)],
            [("acquire", 0), ("spawn_join", [("acquire", 0), ("raise",)]), ("yield_junk",),
             ("release", 0), ("release", 0), ("release", 0)],
            [("sleep", 1), ("spawn", [("wait", 1)]), ("any_of", [("process", 3), ("timeout", 1)]),
             ("interrupt", 3), ("fail", 1), ("close", 1), ("get", 1), ("join", 2)],
        ],
        "slices": [(0.5, [("interrupt", 3)]), (2, [("kill", 3)])],
        "watch": 1,
    }
    result = _execute(shortened_kernel, program, record_hooks=True)
    assert result == _execute(reference_kernel, program, record_hooks=True)
    trace, outcomes = result["trace"], dict(result["outcomes"])
    # sent before r1 booted, delivered on its first yield in the same instant
    assert (0.0, "r1", 0, True, "sleep", ("Interrupt", "r0.0")) in trace
    # killed before it booted: it never ran
    assert outcomes["r2"] == ("failed", "ProcessKilled", "r0.1")
    assert not any(entry[1] == "r2" for entry in trace)
    # the top-level interrupt broke r3's join; its child then got the lock,
    # raised, and nobody was left to observe that
    assert (0.5, "r3", 1, True, "spawn_join", ("Interrupt", "top.0.0")) in trace
    assert (0.5, "run", None, "raised", ("Boom", "r3.1.1")) in trace
    assert (0.5, "r3", 2, True, "yield_junk",
            ("SimulationError", "process '_body' yielded a non-event: 'junk'")) in trace
    assert (0.5, "r3", 5, True, "release",
            ("RuntimeError", "release() of an unlocked Lock")) in trace
    assert (1.0, "r4", 2, True, "any_of", ("r3 done",)) in trace
    assert (1.0, "r4", 6, True, "get",
            ("ChannelClosed", "get() on closed channel 'ch1'")) in trace
    # r2 is long processed: joining it continues without a trip through the heap
    assert (1.0, "r4", 7, True, "join", ("ProcessKilled", "r0.1")) in trace
    assert (1.5, "r1", 4, True, "all_of", ("r1.4/0", "r1.4/1", "r0.3")) in trace
    assert (2.0, "run", None, "returned", "r1 done") in trace
    assert {hook for hook, *_ in result["hooks"]} == {
        "schedule", "step", "step_end", "resume", "join", "run_begin", "acquire", "release"}
    # a crowd at t=0, URGENT (boots, the interrupt, the kill) and NORMAL mixed
    at_zero = [priority for when, priority, _, _ in result["pops"] if when == 0]
    assert len(at_zero) >= 7 and set(at_zero) == {0, 1}
