"""Fair-share CPU model and simulated processes.

Work is measured in *work units*: one unit is one second of CPU on a
baseline (speed 1.0) machine.  Concurrently computing processes share
the machine's cores equally; each accrues CPU time (the quantity behind
the Execution Service's CPUTime resource property) in proportion to the
core share it actually received.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Dict, Optional

from repro.sim import Environment, Event, Interrupt

_EPS = 1e-9
_pids = itertools.count(100)


class ProcessState(str, Enum):
    RUNNING = "Running"
    EXITED = "Exited"
    KILLED = "Killed"


class _Task:
    __slots__ = ("remaining", "waiter", "process")

    def __init__(self, remaining: float, waiter: Event, process: "SimProcess") -> None:
        self.remaining = remaining
        self.waiter = waiter
        self.process = process


class CpuScheduler:
    """Processor-sharing scheduler for one machine."""

    def __init__(self, env: Environment, cores: int = 1, speed: float = 1.0) -> None:
        if cores < 1:
            raise ValueError("a machine needs at least one core")
        if not speed > 0:  # NaN fails too
            raise ValueError("cpu speed must be positive")
        self.env = env
        self.cores = cores
        self.speed = speed
        self._active: Dict[int, _Task] = {}
        self._task_ids = itertools.count(1)
        self._last_update = env.now
        self._version = 0
        #: total CPU-seconds delivered (all processes, for utilization stats)
        self.cpu_seconds_delivered = 0.0

    # -- state advancement ---------------------------------------------------------

    def _share(self) -> float:
        """Core share each active task currently receives."""
        n = len(self._active)
        return min(1.0, self.cores / n) if n else 0.0

    def _advance(self) -> None:
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        share = self._share()
        rate = self.speed * share  # work units per second per task
        finished = []
        for task_id, task in self._active.items():
            consumed = min(task.remaining, elapsed * rate)
            task.remaining -= consumed
            task.process.cpu_time += elapsed * share
            self.cpu_seconds_delivered += elapsed * share
            if task.remaining <= _EPS:
                finished.append(task_id)
        for task_id in finished:
            task = self._active.pop(task_id)
            task.waiter.succeed()

    def _reschedule(self) -> None:
        self._version += 1
        if not self._active:
            return
        rate = self.speed * self._share()
        dt = min(task.remaining for task in self._active.values()) / rate
        version = self._version

        def watcher(env):
            yield env.timeout(dt)
            if version != self._version:
                return
            self._advance()
            self._reschedule()

        self.env.process(watcher(self.env))

    # -- public API -------------------------------------------------------------------

    def compute(self, process: "SimProcess", work_units: float):
        """Coroutine: consume *work_units* of CPU, sharing fairly."""
        if work_units < 0:
            raise ValueError("negative work")
        if work_units == 0:
            return
        self._advance()
        task_id = next(self._task_ids)
        waiter = self.env.event()
        self._active[task_id] = _Task(work_units, waiter, process)
        self._reschedule()
        try:
            yield waiter
        except (Interrupt, GeneratorExit):
            # Killed mid-compute: withdraw the task and repartition the CPU.
            self._advance()
            self._active.pop(task_id, None)
            self._reschedule()
            raise

    def refresh(self) -> None:
        """Bring per-process CPU accounting up to the current instant.

        Lazily-advanced accounting is exact at membership changes; call
        this before reading ``cpu_time`` mid-run (the ES's CpuTime RP).
        """
        self._advance()

    def utilization(self) -> float:
        """Instantaneous utilization in [0, 1]."""
        return min(1.0, len(self._active) / self.cores)

    @property
    def active_tasks(self) -> int:
        return len(self._active)


class SimProcess:
    """A simulated OS process launched by ProcSpawn.

    ``done`` is a waitable that fires with the exit code once the process
    leaves RUNNING — the hook the ProcSpawn service uses to send its
    "job finished" notification to the Execution Service (paper step 10).
    """

    def __init__(
        self,
        env: Environment,
        binary: str,
        args,
        username: str,
        working_dir: str,
    ) -> None:
        self.env = env
        self.pid = next(_pids)
        self.binary = binary
        self.args = list(args)
        self.username = username
        self.working_dir = working_dir
        self.state = ProcessState.RUNNING
        self.exit_code: Optional[int] = None
        self.cpu_time = 0.0
        self.started_at = env.now
        self.exited_at: Optional[float] = None
        self.done: Event = env.event()
        self._runner = None  # set by ProcSpawn

    @property
    def is_running(self) -> bool:
        return self.state == ProcessState.RUNNING

    def _finish(self, state: ProcessState, exit_code: int) -> None:
        if not self.is_running:
            return
        self.state = state
        self.exit_code = exit_code
        self.exited_at = self.env.now
        self.done.succeed(exit_code)

    def kill(self) -> None:
        """Terminate the process (the ES's Kill operation)."""
        if not self.is_running:
            return
        if self._runner is not None and self._runner.is_alive:
            self._runner.kill("killed by request")
        self._finish(ProcessState.KILLED, -1)

    def __repr__(self) -> str:
        return f"<SimProcess pid={self.pid} {self.binary!r} {self.state.value}>"
