"""Simulated executables.

A grid job's "executable" is a file uploaded by the FSS whose content
names a registered :class:`Program` (marker line ``#!uva-program:NAME``).
When ProcSpawn starts the binary, the program's *behaviour* runs as a
simulation coroutine: it consumes CPU via the machine's fair-share
scheduler, reads input files from the working directory and writes
output files there — which is exactly what downstream jobs in a job set
then consume.

Behaviour signature::

    def behavior(ctx: ProgramContext):
        data = ctx.read_input("input1.dat")
        yield from ctx.compute(5.0)          # 5 baseline CPU-seconds
        ctx.write_output("output2", b"...")
        return 0                             # exit code (None -> 0)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.osim.filesystem import FileContent, FsError

MARKER = "#!uva-program:"


class ProgramContext:
    """What a running program can see and do."""

    def __init__(self, machine, process) -> None:
        self.machine = machine
        self.process = process
        self.args: List[str] = list(process.args)
        self.working_dir = process.working_dir

    def compute(self, work_units: float):
        """Coroutine: burn CPU on this machine's scheduler."""
        return self.machine.cpu.compute(self.process, work_units)

    def sleep(self, seconds: float):
        """Coroutine: idle wait (I/O, think time) — no CPU consumed."""
        return self.machine.env.timeout(seconds)

    def _path(self, name: str) -> str:
        return f"{self.working_dir}/{name}"

    def read_input(self, name: str) -> FileContent:
        return self.machine.fs.read_file(self._path(name))

    def input_exists(self, name: str) -> bool:
        return self.machine.fs.is_file(self._path(name))

    def write_output(self, name: str, content) -> None:
        self.machine.fs.write_file(self._path(name), content)


Behavior = Callable[[ProgramContext], object]


class Program:
    """A named simulated executable."""

    def __init__(self, name: str, behavior: Behavior, description: str = "") -> None:
        self.name = name
        self.behavior = behavior
        self.description = description

    def binary_content(self) -> bytes:
        """The file content that names this program when uploaded."""
        return f"{MARKER}{self.name}\n".encode("ascii")

    def __repr__(self) -> str:
        return f"<Program {self.name!r}>"


class ProgramRegistry:
    """Program name → Program; shared across the testbed's machines."""

    def __init__(self) -> None:
        self._programs: Dict[str, Program] = {}

    def register(self, program: Program) -> Program:
        if program.name in self._programs:
            raise ValueError(f"duplicate program {program.name!r}")
        self._programs[program.name] = program
        return program

    def define(self, name: str, behavior: Behavior, description: str = "") -> Program:
        return self.register(Program(name, behavior, description))

    def get(self, name: str) -> Program:
        try:
            return self._programs[name]
        except KeyError:
            raise KeyError(f"no program registered under {name!r}") from None

    def resolve_binary(self, content: FileContent) -> Program:
        """Map an executable file's content back to its Program."""
        try:
            text = content.to_bytes().decode("ascii", "replace")
        except FsError:
            raise ValueError("binary too large to inspect") from None
        first_line = text.splitlines()[0] if text else ""
        if not first_line.startswith(MARKER):
            raise ValueError("file is not a recognized grid executable")
        return self.get(first_line[len(MARKER) :].strip())


def make_compute_program(
    name: str,
    work_units: float,
    outputs: Optional[Dict[str, bytes]] = None,
    required_inputs: Optional[List[str]] = None,
    exit_code: int = 0,
) -> Program:
    """Factory for the common job shape: check inputs, burn CPU, emit outputs."""

    def behavior(ctx: ProgramContext):
        for needed in required_inputs or []:
            if not ctx.input_exists(needed):
                return 2  # missing input -> nonzero exit, like a real tool
        yield from ctx.compute(work_units)
        for out_name, data in (outputs or {}).items():
            ctx.write_output(out_name, data)
        return exit_code

    return Program(name, behavior, description=f"compute {work_units} units")
