"""Runtime happens-before + lockset sanitizer for the simulator.

The static tier (``repro.analysis`` rules, notably LOCK001) proves the
*absence* of unlocked shared-state mutation on call paths it can see;
this module is the dynamic tier that checks the property on the paths a
run actually takes.  It watches for **data races** while a simulation
executes: two *writes* to the same WS-Resource row (keyed
``(machine, service, resource_id)`` — every machine deploys services
under the same paths, so the rid alone is ambiguous) from different
simulated processes, with no common Lock held and no happens-before
edge between them.  Classic Eraser lockset crossed with vector-clock
happens-before: holding a common lock *or* being causally ordered
clears the pair; both missing makes a report.  Only write/write pairs
count: the kernel is cooperative, so a single store call is atomic and
a lone read merely observes one of the two orders (benign staleness) —
but a racy load-modify-save always *ends* in two unordered writes,
which is exactly the lost-update corruption the per-resource mutex
exists to prevent.

Happens-before edges come from the kernel itself: every scheduled event
is stamped with the scheduler's vector clock (``Event._san_vc``), and a
process resuming on an event joins that clock.  That single rule covers
process spawn (the boot event), process join (the terminal event),
timeouts (program order), interrupts, and lock hand-off (``release``
succeeds the next waiter's event from the releaser's context).  A
kernel callback (a condition's member check, a CPU timer) has no clock
of its own: what it schedules carries the stamp of the event being
processed, and a condition it fires the join of its members that have
fired, so a waiter resumed through ``AnyOf`` (``with_retry``) is ordered
after what it waited on and nothing else.  Test harness code between
``run()`` calls executes on the *kernel clock* (tid 0), which joins
every event the loop processes and is therefore causally after
everything that has actually executed.  Entering ``run()`` is a barrier
the other way: top-level code only executes while the loop is idle, so
every suspended process joins the kernel clock there (setup writes made
before a run precede everything inside it).

Crash recovery is a barrier: ``WrapperService.restore`` drops the
service's access history (the old boot's in-flight handlers are dead and
their writes rolled back) and records a recovery clock that every
subsequent dispatch of that service joins, because the host refuses
traffic until the restore completed (docs/durability.md).  This mirrors
the static tier's LOCK001 recovery allowlist.

Everything here is observation only: hooks never schedule, never touch
simulated time, and with ``env.san is None`` (the default) each hook
site is a single attribute check — the same zero-cost-off discipline as
``network.obs`` (docs/observability.md).  tests/test_sanitizer.py asserts
sanitized runs are byte-identical to bare ones.

Usage::

    tb = Testbed(n_machines=4, sanitize=True)
    ... drive the scenario ...
    tb.san.assert_clean()          # raises listing every report
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.sim import AllOf, AnyOf

if TYPE_CHECKING:
    from repro.db import ResourceStore
    from repro.sim import Environment, Event, Lock, Process
    from repro.wsrf.tooling import WrapperService

__all__ = ["RaceSanitizer", "SanitizerReport"]


@dataclass(frozen=True)
class SanitizerReport:
    """One condition the sanitizer observed.

    ``kind`` is ``"data-race"``; ``key``
    locates the shared state (a ``service/resource_id`` pair); ``time``
    is the simulated instant of detection; ``detail`` is the
    human-readable witness (who collided with whom, doing what).
    """

    kind: str
    key: str
    time: float
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[{self.kind}] t={self.time:g} {self.key}: {self.detail}"


VC = Dict[int, int]


def _join(into: VC, other: VC) -> None:
    for tid, tick in other.items():
        if tick > into.get(tid, 0):
            into[tid] = tick


def _happens_before(earlier: VC, later: VC) -> bool:
    return all(tick <= later.get(tid, 0) for tid, tick in earlier.items())


@dataclass(frozen=True)
class _Access:
    vc: Tuple[Tuple[int, int], ...]
    locks: FrozenSet[int]
    op: str
    time: float
    who: str


_KERNEL_TID = 0


class RaceSanitizer:
    """Attach to an :class:`~repro.sim.Environment` as ``env.san``.

    Construct it *before* services deploy: ``WrapperService.__init__``
    reads ``env.san`` to instrument its resource store, so a sanitizer
    attached afterwards sees locks and dispatches but no store traffic.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        env.san = self
        self.reports: List[SanitizerReport] = []
        #: store accesses inspected (a liveness check for tests)
        self.accesses_checked = 0

        # -- logical threads (simulated processes + the kernel) ------------
        self._procs: Dict[int, Any] = {}  # id(Process) -> Process (pins ids)
        self._tids: Dict[int, int] = {}  # id(Process) -> tid
        self._next_tid = _KERNEL_TID + 1
        self._names: Dict[int, str] = {_KERNEL_TID: "<kernel>"}
        self._clocks: Dict[int, VC] = {_KERNEL_TID: {_KERNEL_TID: 0}}
        #: kernel clock at the last run() entry; threads first seen
        #: mid-run started after it (see on_run_begin)
        self._run_barrier: VC = {}
        #: stamp of the event whose callbacks are running, None between steps
        self._step_vc: Optional[VC] = None

        # -- locks ---------------------------------------------------------
        self._locks: Dict[int, Any] = {}  # id(Lock) -> Lock (pins ids)
        self._lock_labels: Dict[int, str] = {}
        self._held: Dict[int, List[int]] = {}  # tid -> lock ids, outermost first
        self._release_vc: Dict[int, VC] = {}  # id(Lock) -> clock at last release
        self._pending_grants: Dict[int, int] = {}  # id(acquire Event) -> id(Lock)

        # -- shared state shadow -------------------------------------------
        # Rows are keyed (machine, service, rid): every machine deploys
        # services under the same paths ("ExecService"), so the rid alone
        # aliases rows of different machines' stores.
        self._shadow: Dict[Tuple[str, str, str], Dict[int, _Access]] = {}

        # -- recovery -------------------------------------------------------
        # (machine, service) -> clock after restore
        self._recovery_vc: Dict[Tuple[str, str], VC] = {}

        self._dedupe: Set[Tuple] = set()

    # -- identity -----------------------------------------------------------------

    def _tid_for(self, process: Process) -> int:
        key = id(process)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._next_tid
            self._next_tid += 1
            self._tids[key] = tid
            self._procs[key] = process
            self._names[tid] = getattr(process, "name", "") or f"proc-{tid}"
            # A thread first observed now necessarily started running
            # after the current run() began (its boot event also stamps
            # its spawner's clock; this covers spawns that predate the
            # run, e.g. machine service loops created at testbed setup).
            clock = dict(self._run_barrier)
            clock[tid] = 0
            self._clocks[tid] = clock
        return tid

    def _current_tid(self) -> int:
        process = self.env._active_process
        if process is None:
            return _KERNEL_TID
        return self._tid_for(process)

    def _tick(self, tid: int) -> VC:
        clock = self._clocks[tid]
        clock[tid] = clock.get(tid, 0) + 1
        return clock

    # -- kernel hooks (called from repro.sim with a None-checked env.san) -----------

    def on_schedule(self, event: Event) -> None:
        """Stamp *event* with the scheduling context's clock.

        A kernel callback (no process active, inside a step) runs on the
        stamp of the event being processed, and a condition it fires on
        the join of the members that have fired: the kernel clock has
        joined every event processed so far, and would order a waiter
        after writes it never observed."""
        step_vc = self._step_vc
        if self.env._active_process is not None or step_vc is None:
            vc = dict(self._tick(self._current_tid()))
        elif isinstance(event, (AllOf, AnyOf)):
            vc = {}
            for member in event.events:
                member_vc = getattr(member, "_san_vc", None)
                if member.processed and member_vc is not None:
                    _join(vc, member_vc)
        else:
            vc = step_vc
        # the slot is declared unannotated, so it is written by name
        setattr(event, "_san_vc", vc)

    def on_step(self, event: Event) -> None:
        """The loop is about to run *event*'s callbacks: advance the
        kernel clock past it, so top-level code running after this step
        is ordered after it.  The callbacks themselves run on *event*'s
        own stamp (:meth:`on_schedule`)."""
        vc = getattr(event, "_san_vc", None)
        if vc is not None:
            _join(self._clocks[_KERNEL_TID], vc)
        self._step_vc = vc

    def on_step_end(self) -> None:
        """The stepped event's callbacks have run: code outside any
        process is top-level code again, on the kernel clock."""
        self._step_vc = None

    def on_run_begin(self) -> None:
        """``Environment.run`` was entered from the top level: everything
        the kernel context did while the loop was idle (testbed setup,
        assertions between runs) precedes everything in this run."""
        barrier = self._clocks[_KERNEL_TID]
        self._run_barrier = dict(barrier)
        for tid, clock in self._clocks.items():
            if tid != _KERNEL_TID:
                _join(clock, barrier)

    def on_resume(self, process: Process, trigger: Event) -> None:
        """*process* resumes on *trigger*: join the trigger's clock."""
        tid = self._tid_for(process)
        clock = self._clocks[tid]
        vc = getattr(trigger, "_san_vc", None)
        if vc is not None:
            _join(clock, vc)
        clock[tid] = clock.get(tid, 0) + 1
        lock_id = self._pending_grants.pop(id(trigger), None)
        if lock_id is not None:
            self._grant(tid, lock_id)

    def on_join(self, process: Process, target: Event) -> None:
        """*process* consumed an already-processed *target* synchronously
        (the fast path in ``Process._resume``)."""
        self.on_resume(process, target)

    # -- lock hooks -----------------------------------------------------------------

    def on_acquire(self, lock: Lock, event: Event) -> None:
        """``Lock.acquire`` returned *event*; ownership lands on whichever
        process resumes on it (immediately if the lock was free)."""
        lock_id = id(lock)
        self._locks.setdefault(lock_id, lock)
        self._pending_grants[id(event)] = lock_id

    def on_release(self, lock: Lock) -> None:
        tid = self._current_tid()
        lock_id = id(lock)
        held = self._held.get(tid)
        if held and lock_id in held:
            held.remove(lock_id)
        # Lock hand-off happens-before: the next holder joins this clock
        # (directly on grant if the lock went free; via the succeeded
        # waiter event's stamp otherwise).
        self._release_vc[lock_id] = dict(self._tick(tid))

    def label_lock(self, lock: Lock, label: str) -> None:
        """Name a lock for reports (``resource_lock`` labels its mutexes)."""
        self._locks.setdefault(id(lock), lock)
        self._lock_labels[id(lock)] = label

    def _lock_name(self, lock_id: int) -> str:
        return self._lock_labels.get(lock_id, f"lock@{lock_id:#x}")

    def _grant(self, tid: int, lock_id: int) -> None:
        release_vc = self._release_vc.get(lock_id)
        if release_vc is not None:
            _join(self._clocks[tid], release_vc)
        self._held.setdefault(tid, []).append(lock_id)

    # -- store access hooks ----------------------------------------------------------

    def instrument_wrapper(self, wrapper: WrapperService) -> None:
        """Wrap *wrapper*'s store so every row mutation reports here.

        Only the mutators are wrapped (``create``/``save``/``destroy``):
        a lone read is atomic in the cooperative kernel, and any racy
        load-modify-save ends in two unordered writes anyway (module
        docstring).  ``snapshot``/``restore`` stay bare — a host bounce
        is not dispatch work.
        """
        self.instrument_store(wrapper.store, owner=wrapper.machine.name)

    def instrument_store(self, store: ResourceStore, owner: str = "") -> None:
        if getattr(store, "_san_instrumented", False):
            return
        setattr(store, "_san_instrumented", True)
        for op in ("create", "save", "destroy"):
            original = getattr(store, op)

            def guarded(service: str, resource_id: str, *args: Any,
                        _orig: Callable[..., Any] = original, _op: str = op,
                        **kwargs: Any) -> Any:
                self.on_access(owner, service, resource_id, op=_op)
                return _orig(service, resource_id, *args, **kwargs)

            setattr(store, op, guarded)

    def on_access(self, owner: str, service: str, resource_id: str, *,
                  op: str) -> None:
        """A write to row ``(service, resource_id)`` of *owner*'s store
        by the current context: race-check it against the last write of
        every other logical thread, then become that record."""
        self.accesses_checked += 1
        tid = self._current_tid()
        clock = self._tick(tid)
        location = (owner, service, str(resource_id))
        locks = frozenset(self._held.get(tid) or ())
        slot = self._shadow.setdefault(location, {})
        who = self._names.get(tid, "?")
        for other_tid, record in slot.items():
            if other_tid == tid:
                continue
            if record.locks & locks:
                continue  # a common lock serializes the pair
            if _happens_before(dict(record.vc), clock):
                continue  # causally ordered
            self._report(
                "data-race",
                f"{owner}:{service}/{resource_id}",
                f"{who!r} {op} (locks {self._lockset_names(locks)}) races "
                f"{record.who!r} {record.op} at t={record.time:g} (locks "
                f"{self._lockset_names(record.locks)})",
                dedupe=("race", location, frozenset((who, record.who))),
            )
        slot[tid] = _Access(
            vc=tuple(sorted(clock.items())),
            locks=locks,
            op=op,
            time=self.env.now,
            who=who,
        )

    def _lockset_names(self, locks: FrozenSet[int]) -> str:
        if not locks:
            return "{}"
        return "{" + ", ".join(sorted(self._lock_name(l) for l in locks)) + "}"

    # -- dispatch + recovery hooks ----------------------------------------------------

    def on_dispatch_enter(self, owner: str, service: str) -> None:
        recovery_vc = self._recovery_vc.get((owner, service))
        if recovery_vc is not None:
            # The host only accepts traffic once its restore finished, so
            # every dispatch is causally after recovery even though no
            # event connects them (the edge is the host coming back up).
            _join(self._clocks[self._current_tid()], recovery_vc)

    def on_recovery_begin(self, wrapper: WrapperService) -> None:
        """``WrapperService.restore`` rolled the store back: drop the
        service's access history.  The crashed boot's in-flight accesses
        describe writes the checkpoint just erased — racing against them
        is meaningless (the static tier's LOCK001 allowlists recovery
        for the same reason)."""
        scope = (wrapper.machine.name, wrapper.service_name)
        for location in [l for l in self._shadow if l[:2] == scope]:
            del self._shadow[location]
        # Recovery runs after everything that actually executed so far
        # (the host is down; its old processes are dead).
        _join(self._clocks[self._current_tid()], self._clocks[_KERNEL_TID])

    def on_recovery_end(self, wrapper: WrapperService) -> None:
        """Restore (including ``wsrf_recover``'s own writes) finished:
        capture the recovery clock for :meth:`on_dispatch_enter`."""
        self._recovery_vc[(wrapper.machine.name, wrapper.service_name)] = dict(
            self._tick(self._current_tid())
        )

    # -- reporting --------------------------------------------------------------------

    def _report(self, kind: str, key: str, detail: str, dedupe: Tuple) -> None:
        if dedupe in self._dedupe:
            return
        self._dedupe.add(dedupe)
        self.reports.append(
            SanitizerReport(kind=kind, key=key, time=self.env.now, detail=detail)
        )

    def summary(self) -> Dict[str, int]:
        """Report counts by kind (empty dict when clean)."""
        out: Dict[str, int] = {}
        for report in self.reports:
            out[report.kind] = out.get(report.kind, 0) + 1
        return out

    def assert_clean(self) -> None:
        """Raise :class:`AssertionError` listing every report, if any."""
        if not self.reports:
            return
        lines = "\n".join(f"  {report}" for report in self.reports)
        raise AssertionError(
            f"sanitizer observed {len(self.reports)} condition(s):\n{lines}"
        )
