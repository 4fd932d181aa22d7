"""The parking utilization sampler reports what the always-ticking one did.

Hypothesis draws small grids (1-3 machines of 1-4 cores), a sampling
period, a threshold (``always_report`` included), computations that
start, finish or are killed at drawn instants, and one host bounce.
Each program runs once with the service's sampler and once with
``tests/reference_sampler.py``, the loop that woke every period; both
must send the same sequence of ``(machine, instant, utilization)``
reports.  A change that lands exactly on a grid instant is counted as
the Hypothesis event ``exact-grid change`` (``--hypothesis-show-
statistics``); ``TestExactGridChange`` says on which side it is sampled.

A failure prints the program; ``_reports(ReferenceSampler, *program)``
replays one side.
"""

from hypothesis import event, given
from hypothesis import strategies as st

from repro.gridapp import ProcessorUtilizationService, Testbed
from repro.osim.cpu import SimProcess
from tests.equivalence import SCENARIOS, run_scenario
from tests.reference_sampler import ReferenceSampler

HORIZON = 30.0


class _Recording:
    """A sampler's client that logs each report as it leaves."""

    def __init__(self, client, env, log):
        self._client, self._env, self._log = client, env, log

    def call(self, epr, ns, operation, args, **kwargs):
        self._log.append((args["machine_name"], self._env.now, args["utilization"]))
        return (yield from self._client.call(epr, ns, operation, args, **kwargs))


def _compute(machine, work):
    yield from machine.cpu.compute(SimProcess(machine.env, "load", [], "u", "c:/"), work)


def _load(env, machine, at, work, kill_after):
    yield env.timeout(at)
    worker = env.process(_compute(machine, work))
    if kill_after is not None:
        yield env.timeout(kill_after)
        worker.kill()


def _grid(n_machines, cores, period):
    return Testbed(
        n_machines=n_machines, cores_per_machine=cores, utilization_period=period,
        start_utilization_services=False,
    )


def _samplers(tb, sampler_cls, period, threshold, always, log):
    samplers = []
    for machine in tb.machines:
        sampler = sampler_cls(
            machine, tb.node_info.service_epr(), threshold=threshold, period=period,
            always_report=always,
        )
        sampler._client = _Recording(sampler._client, tb.env, log)
        samplers.append(sampler)
    return samplers


def _reports(sampler_cls, n_machines, cores, period, threshold, always, loads, bounce):
    """The reports of one program, and how many run-queue changes fell
    on an instant at which the reference sampler ticked (0 for others)."""
    tb = _grid(n_machines, cores, period)
    env = tb.env
    log = []
    samplers = _samplers(tb, sampler_cls, period, threshold, always, log)
    ticks, changes = set(), set()
    for machine in tb.machines:
        machine.cpu.on_run_queue_changed.append(
            lambda name=machine.name: changes.add((name, env.now))
        )
        if sampler_cls is ReferenceSampler:
            sample = machine.utilization

            def counted(name=machine.name, sample=sample):
                ticks.add((name, env.now))
                return sample()

            machine.utilization = counted
    for index, at, work, kill_after in loads:
        env.process(_load(env, tb.machines[index % n_machines], at, work, kill_after))
    host, at, down_for = bounce
    hosts = [tb.central.name] + [machine.name for machine in tb.machines]
    tb.restart_host(hosts[host % len(hosts)], at=at, down_for=down_for)
    for sampler in samplers:
        sampler.start()
    env.run(until=HORIZON)
    return log, len(ticks & changes)


_instant = st.integers(1, 500).map(lambda k: k / 20)
programs = st.tuples(
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from((0.5, 1.0)),
    st.sampled_from((0.0, 0.05, 0.25, 0.75)),
    st.booleans(),
    st.lists(
        st.tuples(
            st.integers(0, 2), _instant, st.sampled_from((0.3, 1.0, 2.5, 7.0)),
            st.none() | _instant,
        ),
        max_size=12,
    ),
    st.tuples(st.integers(0, 3), _instant, st.sampled_from((0.5, 2.0, 5.0))),
)


@given(programs)
def test_parking_sampler_sends_the_reference_reports(program):
    reference, landings = _reports(ReferenceSampler, *program)
    parked, _ = _reports(ProcessorUtilizationService, *program)
    if landings:
        event("exact-grid change")
    assert parked == reference


class TestLockstep:
    """Samplers that report in the same instants park in lockstep, so
    changes on different machines can wake them into one instant.  They
    sample there in the order their own period timers would pop: the
    order in which their reports' sends ended."""

    def _run(self, sampler_cls, n_machines, loads):
        tb = _grid(n_machines, 1, 1.0)
        log = []
        for sampler in _samplers(tb, sampler_cls, 1.0, 0.10, False, log):
            sampler.start()
        env = tb.env
        for index, at, work in loads:
            env.process(_load(env, tb.machines[index], at, work, None))
        env.run(until=12.0)
        return log

    def _woken(self, loads, n_machines=3):
        reference = self._run(ReferenceSampler, n_machines, loads)
        parked = self._run(ProcessorUtilizationService, n_machines, loads)
        assert parked == reference
        last = parked[-1][1]
        return [name for name, at, _ in parked if at == last]

    def test_woken_samplers_report_in_creation_order(self):
        # every report so far left at once: node02 changes first, node00
        # second, the reverse of creation order
        assert self._woken([(2, 5.3, 100.0), (0, 5.6, 100.0)]) == ["node00", "node02"]

    def test_a_sampler_whose_report_ended_later_samples_later(self):
        # node01 reports a start at 4.006, node00 one at 6.006; both are
        # back in lockstep after the sends, and both computations end
        # within the period before 9.006
        assert self._woken([(1, 3.3, 6.8), (0, 5.3, 3.3)], 2) == ["node01", "node00"]


def _single(sampler_cls, changes=(), period=1.0, start=0.0, until=10.0):
    """One sampler (threshold 0.1) on a one-core machine, started at
    *start*: its reports, and the instants at which it read the run
    queue.  Each of *changes* is a process function of ``(env, machine)``."""
    tb = _grid(1, 1, period)
    env, machine = tb.env, tb.machines[0]
    log, reads = [], []
    sample = machine.utilization

    def counted():
        reads.append(env.now)
        return sample()

    machine.utilization = counted
    sampler, = _samplers(tb, sampler_cls, period, 0.10, False, log)
    for change in changes:
        env.process(change(env, machine))
    env.run(until=start)
    sampler.start()
    env.run(until=until)
    return log, reads


def _start_at(at, *, armed_at=0.0):
    """A change: a computation that starts at exactly *at*, its timer
    armed at *armed_at*."""

    def change(env, machine):
        yield env.timeout(armed_at)
        yield env.timeout(at - armed_at)
        assert env.now == at
        yield from _compute(machine, 100.0)

    return change


class TestExactGridChange:
    """A change at exactly a grid instant is sampled at the next grid
    instant.  The always-ticking loop agrees when the change's event was
    scheduled within the period before (the loop's period timer, armed
    at the previous instant, pops first).  An event armed earlier than
    that pops before the loop's timer, so the loop saw the change at the
    instant itself, one period before the parked sampler does."""

    def test_a_change_armed_within_the_period_is_sampled_where_the_loop_samples_it(self):
        _, ticks = _single(ReferenceSampler)
        # at - 0.25 is exact for at >= 0.5, so the timer lands on at
        change = _start_at(ticks[4], armed_at=ticks[4] - 0.25)
        reference, _ = _single(ReferenceSampler, [change])
        parked, _ = _single(ProcessorUtilizationService, [change])
        assert parked == reference
        assert parked[-1] == ("node00", ticks[5], 1.0)

    def test_a_change_armed_earlier_is_sampled_one_period_later(self):
        _, ticks = _single(ReferenceSampler)
        change = _start_at(ticks[4])
        reference, _ = _single(ReferenceSampler, [change])
        parked, _ = _single(ProcessorUtilizationService, [change])
        assert reference[-1] == ("node00", ticks[4], 1.0)
        assert parked[-1] == ("node00", ticks[5], 1.0)
        assert parked[:-1] == reference[:-1]


def test_a_change_while_a_report_is_sent_is_sampled_a_period_later():
    """The run queue empties while the sampler sends the report of its
    filling: the sampler does not park, as no wake would come."""
    _, ticks = _single(ReferenceSampler, [_start_at(4.5)])
    sample = next(t for t in ticks if t > 4.5)
    after = next(t for t in ticks if t > sample)

    def fill_then_empty(env, machine):
        yield env.timeout(4.5)
        worker = env.process(_compute(machine, 100.0))
        # the report's send ends about one period before the next sample
        yield env.timeout((sample + after - 1.0) / 2 - 4.5)
        worker.kill()

    reference, _ = _single(ReferenceSampler, [fill_then_empty])
    parked, _ = _single(ProcessorUtilizationService, [fill_then_empty])
    assert parked == reference
    assert parked[-2:] == [("node00", sample, 1.0), ("node00", after, 0.0)]


def test_a_wake_within_the_first_period_samples_on_the_grid():
    """``when - now`` is exact only once now >= when / 2; parking waits
    for now >= period, which ensures it.  Before that, a timer armed at
    a wake could miss the grid instant by one ulp: find a grid and a
    wake instant where it would, and check the sample lands on the grid."""
    period = 0.6
    for start in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35):
        _, ticks = _single(ReferenceSampler, period=period, start=start, until=3.0)
        grid = ticks[1]
        wakes = [start + 0.01 + k * 7e-4 for k in range(200)]
        wake = next((c for c in wakes if c < grid / 2 and c + (grid - c) != grid), None)
        if wake is not None:
            break
    assert wake is not None
    reference, _ = _single(ReferenceSampler, [_start_at(wake)], period, start, 3.0)
    parked, _ = _single(ProcessorUtilizationService, [_start_at(wake)], period, start, 3.0)
    assert parked == reference
    assert ("node00", grid, 1.0) in parked


class TestStopStart:
    """stop() ends the sampler, parked or ticking: a start() within the
    same period leaves one sampler, not the stopped one beside it."""

    def _run(self, always):
        tb = Testbed(n_machines=1, start_utilization_services=False)
        env = tb.env
        log = []
        sampler = tb.utilization_services["node00"]
        sampler.always_report = always
        sampler._client = _Recording(sampler._client, env, log)
        sampler.start()
        env.run(until=2.5)
        sampler.stop()
        sampler.start()
        env.process(_load(env, tb.machines[0], 6.25, 3.0, None))
        env.run(until=20.0)
        return [t for _, t, _ in log if t >= 2.5]

    def test_a_ticking_sampler_restarted_within_a_period_reports_once_a_period(self):
        instants = self._run(always=True)
        assert len(instants) == 18
        assert all(b - a > 1.0 for a, b in zip(instants, instants[1:]))

    def test_a_parked_sampler_restarted_reports_each_change_once(self):
        # the compute runs 6.25-9.25: one report when it starts, one
        # when it ends
        instants = self._run(always=False)
        assert len(instants) == 2


def test_a_settled_grid_schedules_nothing():
    tb, _ = run_scenario(SCENARIOS["fig3_fan"])
    assert tb.env.peek() == float("inf")
    reports = sum(s.reports_sent for s in tb.utilization_services.values())
    steps = []
    step = tb.env.step
    tb.env.step = lambda: (steps.append(tb.env.now), step())
    tb.settle(1000.0)
    assert steps == []
    assert tb.env.peek() == float("inf")
    assert sum(s.reports_sent for s in tb.utilization_services.values()) == reports
