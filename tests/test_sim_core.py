"""Unit tests for the discrete-event simulation kernel."""

from unittest import mock

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Channel,
    ChannelClosed,
    Environment,
    Interrupt,
    Lock,
    ProcessKilled,
    SimulationError,
)


class TestEvent:
    def test_event_starts_pending(self):
        env = Environment()
        ev = env.event()
        assert not ev.triggered
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_succeed_carries_value(self):
        env = Environment()
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok and ev.value == 42

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_callback_after_processed_runs_immediately(self):
        env = Environment()
        ev = env.event()
        ev.succeed("v")
        env.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_unhandled_failure_raises_from_run(self):
        env = Environment()
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()


class TestTimeout:
    def test_timeout_advances_clock(self):
        env = Environment()
        env.timeout(5.0)
        env.run()
        assert env.now == 5.0

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_value(self):
        env = Environment()
        t = env.timeout(1.0, value="done")
        env.run()
        assert t.value == "done"

    def test_ordering_by_time_then_insertion(self):
        env = Environment()
        order = []

        def proc(env, tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(env, "b", 2.0))
        env.process(proc(env, "a", 1.0))
        env.process(proc(env, "a2", 1.0))
        env.run()
        assert order == ["a", "a2", "b"]


class TestProcess:
    def test_process_return_value(self):
        env = Environment()

        def worker(env):
            yield env.timeout(1)
            return "result"

        p = env.process(worker(env))
        env.run()
        assert p.value == "result"

    def test_process_waits_on_event(self):
        env = Environment()
        gate = env.event()
        log = []

        def waiter(env):
            v = yield gate
            log.append((env.now, v))

        def opener(env):
            yield env.timeout(3)
            gate.succeed("open")

        env.process(waiter(env))
        env.process(opener(env))
        env.run()
        assert log == [(3.0, "open")]

    def test_failed_event_raises_inside_process(self):
        env = Environment()
        gate = env.event()
        caught = []

        def waiter(env):
            try:
                yield gate
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(waiter(env))
        gate.fail(RuntimeError("nope"))
        env.run()
        assert caught == ["nope"]

    def test_uncaught_process_exception_propagates(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1)
            raise KeyError("missing")

        env.process(bad(env))
        with pytest.raises(KeyError):
            env.run()

    def test_process_is_waitable(self):
        env = Environment()

        def inner(env):
            yield env.timeout(2)
            return 7

        def outer(env):
            v = yield env.process(inner(env))
            return v * 2

        p = env.process(outer(env))
        env.run()
        assert p.value == 14

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def bad(env):
            yield 42

        p = env.process(bad(env))
        with pytest.raises(SimulationError, match="non-event"):
            env.run()
        assert p.triggered and not p.ok

    def test_process_requires_generator(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_interrupt_delivers_cause(self):
        env = Environment()
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as i:
                log.append((env.now, i.cause))

        p = env.process(sleeper(env))

        def interrupter(env):
            yield env.timeout(5)
            p.interrupt("wake up")

        env.process(interrupter(env))
        env.run()
        assert log == [(5.0, "wake up")]

    def test_interrupt_finished_process_rejected(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_kill_runs_finally_blocks(self):
        env = Environment()
        cleaned = []

        def victim(env):
            try:
                yield env.timeout(100)
            finally:
                cleaned.append(True)

        p = env.process(victim(env))

        def killer(env):
            yield env.timeout(1)
            p.kill("test")

        env.process(killer(env))
        env.run()
        assert cleaned == [True]
        assert isinstance(p.value, ProcessKilled)

    def test_active_process_tracking(self):
        env = Environment()
        seen = []

        def proc(env):
            seen.append(env.active_process)
            yield env.timeout(0)

        p = env.process(proc(env))
        env.run()
        assert seen == [p]
        assert env.active_process is None


class TestInterruptKillRaces:
    """interrupt() and kill() racing the events they overtake.  An
    interrupt lands on the suspension point the process has reached when
    the interrupt event pops; a kill detaches from whatever the process
    awaits, its boot included.  No abandoned event may resume a process,
    and none may trigger it a second time."""

    def test_kill_before_first_resumption(self):
        env = Environment()
        ran = []

        def child(env):
            ran.append("started")
            yield env.timeout(1)

        p = env.process(child(env))
        p.kill()
        env.run()
        assert ran == []
        assert isinstance(p.value, ProcessKilled)

    def test_kill_overtakes_pending_interrupt(self):
        env = Environment()
        seen = []

        def child(env):
            try:
                yield env.timeout(10)
            except Interrupt as i:
                seen.append(i.cause)

        p = env.process(child(env))
        env.run(until=1)
        p.interrupt("x")
        p.kill()
        env.run()
        assert seen == []
        assert isinstance(p.value, ProcessKilled)
        assert env.now == 10  # the abandoned timeout still pops, resuming nobody

    def test_two_interrupts_at_one_instant(self):
        env = Environment()
        log = []

        def sleeper(env):
            for _ in range(2):
                try:
                    yield env.timeout(10)
                except Interrupt as i:
                    log.append((env.now, i.cause))
            yield env.timeout(10)
            log.append((env.now, "third sleep"))
            yield env.timeout(100)
            log.append((env.now, "long sleep"))

        p = env.process(sleeper(env))

        def driver(env):
            yield env.timeout(1)
            p.interrupt("a")
            p.interrupt("b")

        env.process(driver(env))
        env.run()
        assert log == [(1.0, "a"), (1.0, "b"), (11.0, "third sleep"), (111.0, "long sleep")]
        assert p.ok

    def test_interrupt_before_first_resumption(self):
        env = Environment()
        log = []

        def sleeper(env):
            log.append((env.now, "started"))
            try:
                yield env.timeout(10)
            except Interrupt as i:
                log.append((env.now, i.cause))
            yield env.timeout(100)
            log.append((env.now, "long sleep"))

        p = env.process(sleeper(env))
        p.interrupt("early")
        env.run()
        assert log == [(0.0, "started"), (0.0, "early"), (100.0, "long sleep")]
        assert p.ok

    def test_interrupt_of_a_process_that_ends_first_is_dropped(self):
        env = Environment()

        def quick(env):
            return "done"
            yield

        p = env.process(quick(env))
        p.interrupt("too late")
        env.run()
        assert p.value == "done"

    def test_process_cannot_kill_itself(self):
        env = Environment()
        caught = []

        def suicidal(env):
            yield env.timeout(1)
            try:
                env.active_process.kill()
            except SimulationError as exc:
                caught.append(str(exc))
            return "alive"

        p = env.process(suicidal(env))
        env.run()
        assert caught == ["a process cannot kill itself"]
        assert p.value == "alive"

    def test_kill_by_an_earlier_callback_of_the_awaited_event(self):
        env = Environment()
        gate = env.event()
        log = []

        def victim(env):
            try:
                yield gate
                log.append("victim resumed")
            finally:
                log.append("victim cleaned up")

        def killer(env):
            yield gate
            v.kill("now")
            log.append("killed")

        env.process(killer(env))
        v = env.process(victim(env))
        gate.succeed()
        env.run()
        assert log == ["victim cleaned up", "killed"]
        assert isinstance(v.value, ProcessKilled)


class TestClock:
    def test_nan_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative timeout delay"):
            env.timeout(float("nan"))
        env.run()
        assert env.now == 0.0

    def test_an_event_fires_at_the_instant_it_is_triggered(self):
        # succeed(value, delay=-3) used to move the clock backwards; a
        # delayed trigger is a Timeout, which checks its delay
        env = Environment()
        env.run(until=5)
        with pytest.raises(TypeError):
            env.event().succeed(1, delay=-3)
        with pytest.raises(TypeError):
            env.event().fail(RuntimeError("x"), delay=-3)
        env.event().succeed(1)
        env.run()
        assert env.now == 5


class TestScheduleOrder:
    """The schedule contract: heap order is (time, priority, sequence);
    callbacks run in attach order; only a *processed* event continues a
    process without a trip through the heap."""

    def test_urgent_before_normal_then_insertion_order(self):
        env = Environment()
        order = []

        def note(tag):
            return lambda _ev: order.append(tag)

        def child(env, tag):
            order.append(tag)
            yield env.timeout(0)

        env.timeout(0).add_callback(note("timeout 1"))
        env.event().succeed().add_callback(note("succeed 2"))
        env.process(child(env, "boot 3"))  # URGENT: overtakes 1 and 2
        env.timeout(0).add_callback(note("timeout 4"))
        env.process(child(env, "boot 5"))
        env.timeout(1).add_callback(note("later"))
        env.run()
        assert order == ["boot 3", "boot 5", "timeout 1", "succeed 2", "timeout 4", "later"]

    def test_one_sequence_number_per_scheduled_event(self):
        env = Environment()
        lock = Lock(env)

        def child(env):
            yield lock.acquire()
            yield env.timeout(1)

        p = env.process(child(env))  # boot
        env.timeout(0)
        env.event().succeed()
        env.event().fail(RuntimeError("x"))._defused = True
        p.interrupt()
        p.kill()  # the process event itself
        assert env._seq == 6
        assert [entry[2] for entry in sorted(env._heap)] == [1, 5, 6, 2, 3, 4]

    def test_callbacks_run_in_attach_order(self):
        env = Environment()
        ev = env.event()
        order = []

        def first(event):
            order.append("first")
            # the event is processed from the moment its callbacks start:
            # a callback attached now runs now, ahead of "second"
            event.add_callback(lambda _ev: order.append("added by first"))

        ev.add_callback(first)
        ev.add_callback(lambda _ev: order.append("second"))
        ev.succeed()
        assert order == []
        env.run()
        assert order == ["first", "added by first", "second"]

    def test_triggered_but_unprocessed_event_waits_for_its_pop(self):
        env = Environment()
        lock = Lock(env)
        order = []

        def locker(env):
            yield lock.acquire()  # free, so already triggered — but not processed
            order.append("locker has the lock")

        def bystander(env):
            order.append("bystander")
            yield env.timeout(0)

        env.process(locker(env))
        env.process(bystander(env))
        env.run()
        assert order == ["bystander", "locker has the lock"]

    def test_processed_event_continues_synchronously(self):
        env = Environment()
        done = env.timeout(0, value="v")
        env.run()
        order = []

        def late(env):
            order.append((yield done))
            order.append((yield done))

        def bystander(env):
            order.append("bystander")
            yield env.timeout(0)

        env.process(late(env))
        env.process(bystander(env))
        env.run()
        assert order == ["v", "v", "bystander"]

    def test_event_of_another_environment_rejected(self):
        env, other = Environment(), Environment()

        def confused(env):
            yield other.timeout(1)

        env.process(confused(env))
        with pytest.raises(SimulationError, match="another environment"):
            env.run()

    @pytest.mark.parametrize("exit_request", [KeyboardInterrupt, SystemExit])
    def test_exit_requests_pass_through_a_process(self, exit_request):
        env = Environment()

        def stopped(env):
            yield env.timeout(1)
            raise exit_request()

        p = env.process(stopped(env))
        with pytest.raises(exit_request):
            env.run()
        assert not p.triggered and env.active_process is None


class TestSanitizerHooks:
    def test_every_kind_of_scheduling_is_stamped_exactly_once(self):
        env = Environment()
        san = env.san = mock.Mock()  # stands in for the sanitizer: records every hook call
        lock = Lock(env)

        def holder(env):
            yield lock.acquire()
            yield env.timeout(1)
            lock.release()  # hand-off: succeeds the waiter's event

        def waiter(env):
            yield lock.acquire()
            try:
                yield env.timeout(10)
            except Interrupt:
                pass
            yield env.timeout(10)

        def failing(env):
            yield env.timeout(2)
            raise RuntimeError("observed below")

        def driver(env, w, f):
            try:
                yield f
            except RuntimeError:
                pass
            gate = env.event()
            gate.fail(ValueError("seen"))
            try:
                yield gate
            except ValueError:
                pass
            w.interrupt()
            yield env.timeout(1)
            w.kill()

        env.process(holder(env))
        w = env.process(waiter(env))
        f = env.process(failing(env))
        env.process(driver(env, w, f))
        env.run()
        # 4 boots, 2 acquires, 5 timeouts, the failed gate, the interrupt,
        # 4 process ends (the kill is the waiter's)
        scheduled = [call.args[0] for call in san.on_schedule.call_args_list]
        assert len(scheduled) == env._seq == 17
        assert len(set(map(id, scheduled))) == 17
        kinds = [type(event).__name__ for event in scheduled]
        assert (kinds.count("Timeout"), kinds.count("Process"), kinds.count("Event")) == (5, 4, 8)
        # ... and each was popped once
        stepped = [call.args[0] for call in san.on_step.call_args_list]
        assert sorted(map(id, stepped)) == sorted(map(id, scheduled))


class TestRun:
    def test_run_until_time(self):
        env = Environment()
        ticks = []

        def clock(env):
            while True:
                yield env.timeout(1)
                ticks.append(env.now)

        env.process(clock(env))
        env.run(until=5)
        assert ticks == [1, 2, 3, 4, 5]
        assert env.now == 5

    def test_run_until_event_returns_value(self):
        env = Environment()

        def worker(env):
            yield env.timeout(2)
            return "x"

        p = env.process(worker(env))
        assert env.run(until=p) == "x"

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=10)
        with pytest.raises(ValueError):
            env.run(until=5)

    def test_run_until_event_never_fires(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError, match="drained"):
            env.run(until=ev)

    def test_run_until_already_triggered_event(self):
        env = Environment()
        ev = env.event()
        ev.succeed(9)
        assert env.run(until=ev) == 9

    def test_step_empty_rejected(self):
        env = Environment()
        assert env.peek() == float("inf")
        with pytest.raises(SimulationError, match="empty schedule") as caught:
            env.step()
        # the heap's own IndexError is not part of the message
        assert caught.value.__context__ is None or caught.value.__suppress_context__

    def test_run_advances_clock_to_deadline_when_idle(self):
        env = Environment()
        env.run(until=50)
        assert env.now == 50


class TestConditions:
    def test_all_of_collects_values(self):
        env = Environment()
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        cond = AllOf(env, [t1, t2])
        env.run(until=cond)
        assert list(cond.value.values()) == ["a", "b"]
        assert env.now == 2

    def test_any_of_fires_on_first(self):
        env = Environment()
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(10, value="slow")
        cond = AnyOf(env, [t1, t2])
        env.run(until=cond)
        assert env.now == 1
        assert cond.value == {t1: "fast"}

    def test_empty_all_of_fires_immediately(self):
        env = Environment()
        cond = AllOf(env, [])
        assert cond.triggered and cond.value == {}

    def test_all_of_propagates_failure(self):
        env = Environment()
        good = env.timeout(5)
        bad = env.event()
        cond = AllOf(env, [good, bad])
        bad.fail(RuntimeError("dead"))
        with pytest.raises(RuntimeError):
            env.run(until=cond)

    def test_condition_via_env_helpers(self):
        env = Environment()
        c = env.any_of([env.timeout(1), env.timeout(2)])
        env.run(until=c)
        assert env.now == 1
        c2 = env.all_of([env.timeout(1)])
        env.run(until=c2)
        assert env.now == 2


class TestChannel:
    def test_put_then_get(self):
        env = Environment()
        ch = Channel(env)
        ch.put("m1")
        got = []

        def consumer(env):
            v = yield ch.get()
            got.append(v)

        env.process(consumer(env))
        env.run()
        assert got == ["m1"]

    def test_get_blocks_until_put(self):
        env = Environment()
        ch = Channel(env)
        got = []

        def consumer(env):
            v = yield ch.get()
            got.append((env.now, v))

        def producer(env):
            yield env.timeout(4)
            ch.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(4.0, "late")]

    def test_fifo_order(self):
        env = Environment()
        ch = Channel(env)
        for i in range(5):
            ch.put(i)
        got = []

        def consumer(env):
            while len(got) < 5:
                got.append((yield ch.get()))

        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_try_get(self):
        env = Environment()
        ch = Channel(env)
        with pytest.raises(LookupError):
            ch.try_get()
        ch.put("x")
        assert ch.try_get() == "x"

    def test_len(self):
        env = Environment()
        ch = Channel(env)
        assert len(ch) == 0
        ch.put(1)
        ch.put(2)
        assert len(ch) == 2

    def test_close_fails_waiting_getters(self):
        env = Environment()
        ch = Channel(env)
        caught = []

        def consumer(env):
            try:
                yield ch.get()
            except ChannelClosed:
                caught.append(True)

        env.process(consumer(env))

        def closer(env):
            yield env.timeout(1)
            ch.close()

        env.process(closer(env))
        env.run()
        assert caught == [True]

    def test_put_after_close_rejected(self):
        env = Environment()
        ch = Channel(env)
        ch.close()
        with pytest.raises(ChannelClosed):
            ch.put(1)

    def test_close_idempotent(self):
        env = Environment()
        ch = Channel(env)
        ch.close()
        ch.close()
        assert ch.closed
