"""Tests for the simulated Windows machine substrate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import Network
from repro.osim import (
    AuthenticationError,
    FileContent,
    FsError,
    Machine,
    MachineParams,
    ProgramRegistry,
    SimFileSystem,
    SpawnError,
    UserAccounts,
)
from repro.osim.cpu import ProcessState
from repro.osim.filesystem import normalize_path
from repro.osim.programs import make_compute_program
from repro.sim import Environment
from repro.soap import SoapEnvelope, SoapFault


class TestFileContent:
    def test_real_bytes(self):
        c = FileContent.from_bytes(b"hello")
        assert c.size == 5 and not c.is_synthetic
        assert c.to_bytes() == b"hello"

    def test_synthetic(self):
        c = FileContent.synthetic(1_000_000_000)
        assert c.size == 1_000_000_000 and c.is_synthetic
        with pytest.raises(FsError, match="materialize"):
            c.to_bytes()

    def test_small_synthetic_materializes_deterministically(self):
        a = FileContent.synthetic(100).to_bytes()
        b = FileContent.synthetic(100).to_bytes()
        assert a == b and len(a) == 100

    def test_equality_by_digest(self):
        assert FileContent.from_bytes(b"x") == FileContent.from_bytes(b"x")
        assert FileContent.from_bytes(b"x") != FileContent.from_bytes(b"y")
        assert FileContent.synthetic(10) == FileContent.synthetic(10)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FileContent()
        with pytest.raises(ValueError):
            FileContent(data=b"x", synthetic_size=1)
        with pytest.raises(ValueError):
            FileContent.synthetic(-1)


class TestPathNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("C:\\grid\\job1", "c:/grid/job1"),
            ("c:/grid//job1/", "c:/grid/job1"),
            ("a/./b", "a/b"),
            ("a/b/../c", "a/c"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize_path(raw) == expected

    def test_escape_rejected(self):
        with pytest.raises(FsError):
            normalize_path("../etc")
        with pytest.raises(FsError):
            normalize_path("")


class TestSimFileSystem:
    def test_mkdir_write_read(self):
        fs = SimFileSystem()
        fs.mkdir("C:\\grid\\wd1")
        fs.write_file("c:/grid/wd1/in.dat", b"data")
        assert fs.read_file("C:\\grid\\wd1\\in.dat").to_bytes() == b"data"
        assert fs.is_file("c:/grid/wd1/in.dat")
        assert fs.is_dir("c:/grid")

    def test_write_requires_parent(self):
        fs = SimFileSystem()
        with pytest.raises(FsError, match="parent"):
            fs.write_file("c:/nodir/f", b"x")

    def test_mkdir_no_parents(self):
        fs = SimFileSystem()
        with pytest.raises(FsError, match="parent"):
            fs.mkdir("a/b/c", parents=False)

    def test_file_dir_collisions(self):
        fs = SimFileSystem()
        fs.mkdir("a")
        with pytest.raises(FsError):
            fs.write_file("a", b"x")
        fs.write_file("a/f", b"x")
        with pytest.raises(FsError):
            fs.mkdir("a/f")

    def test_listdir(self):
        fs = SimFileSystem()
        fs.mkdir("w/sub")
        fs.write_file("w/b.txt", b"1")
        fs.write_file("w/a.txt", b"2")
        fs.write_file("w/sub/deep.txt", b"3")
        assert fs.listdir("w") == ["a.txt", "b.txt", "sub"]
        with pytest.raises(FsError):
            fs.listdir("nope")

    def test_create_unique_dirs_distinct(self):
        fs = SimFileSystem()
        d1 = fs.create_unique_dir("c:/grid", "job")
        d2 = fs.create_unique_dir("c:/grid", "job")
        assert d1 != d2
        assert fs.is_dir(d1) and fs.is_dir(d2)

    def test_move_file(self):
        fs = SimFileSystem()
        fs.mkdir("a")
        fs.mkdir("b")
        fs.write_file("a/f", b"payload")
        fs.move_file("a/f", "b/g")
        assert not fs.is_file("a/f")
        assert fs.read_file("b/g").to_bytes() == b"payload"

    def test_delete_file(self):
        fs = SimFileSystem()
        fs.mkdir("a")
        fs.write_file("a/f", b"x")
        fs.delete_file("a/f")
        with pytest.raises(FsError):
            fs.delete_file("a/f")

    def test_remove_tree(self):
        fs = SimFileSystem()
        fs.mkdir("a/b")
        fs.write_file("a/f", b"x")
        fs.write_file("a/b/g", b"y")
        removed = fs.remove_tree("a")
        assert removed == 4  # a, a/b, a/f, a/b/g
        assert not fs.is_dir("a")

    def test_remove_root_refused(self):
        fs = SimFileSystem()
        with pytest.raises(FsError):
            fs.remove_tree("x")  # nonexistent

    def test_total_bytes(self):
        fs = SimFileSystem()
        fs.mkdir("a")
        fs.write_file("a/f", b"12345")
        fs.write_file("a/g", FileContent.synthetic(1000))
        assert fs.total_bytes() == 1005

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4))
    def test_mkdir_idempotent_property(self, parts):
        fs = SimFileSystem()
        path = "/".join(parts)
        first = fs.mkdir(path)
        assert fs.mkdir(path) == first
        assert fs.is_dir(path)


class TestUserAccounts:
    def test_authenticate(self):
        users = UserAccounts()
        users.add_user("gw", "pass1")
        assert users.authenticate("gw", "pass1") == "gw"
        with pytest.raises(AuthenticationError):
            users.authenticate("gw", "wrong")
        with pytest.raises(AuthenticationError):
            users.authenticate("ghost", "pass1")

    def test_remove_user(self):
        users = UserAccounts()
        users.add_user("gw", "p")
        users.remove_user("gw")
        with pytest.raises(AuthenticationError):
            users.authenticate("gw", "p")

    def test_grid_credential_mapping(self):
        users = UserAccounts()
        users.add_user("local-gw", "p")
        users.map_grid_credential("CN=Glenn Wasson/O=UVa", "local-gw")
        assert users.resolve_grid_credential("CN=Glenn Wasson/O=UVa") == "local-gw"
        assert users.resolve_grid_credential("CN=Nobody") is None
        with pytest.raises(ValueError):
            users.map_grid_credential("CN=X", "ghost")
        users.remove_user("local-gw")
        assert users.resolve_grid_credential("CN=Glenn Wasson/O=UVa") is None

    def test_empty_username_rejected(self):
        with pytest.raises(ValueError):
            UserAccounts().add_user("", "p")


def _machine(name="node1", speed=1.0, cores=1, programs=None):
    env = Environment()
    net = Network(env)
    m = Machine(
        net,
        name,
        params=MachineParams(cpu_speed=speed, cores=cores),
        programs=programs,
    )
    m.users.add_user("griduser", "pw")
    m.fs.mkdir("c:/grid")
    return env, m


def _spawn(env, m, binary="c:/grid/wd/job.exe", args=(), user="griduser", pw="pw", wd="c:/grid/wd"):
    proc_holder = {}

    def do(env):
        p = yield from m.procspawn.spawn(binary, list(args), user, pw, wd)
        proc_holder["p"] = p
        code = yield p.done
        return code

    runner = env.process(do(env))
    env.run(until=runner)
    return proc_holder["p"], runner.value


class TestProcSpawn:
    def _setup_job(self, m, work=2.0, name="sleepy"):
        m.programs.define(
            name,
            make_compute_program(name, work, outputs={"out.dat": b"done"}).behavior,
        )
        m.fs.mkdir("c:/grid/wd")
        m.fs.write_file("c:/grid/wd/job.exe", f"#!uva-program:{name}\n".encode())

    def test_spawn_runs_to_exit(self):
        env, m = _machine()
        self._setup_job(m)
        process, code = _spawn(env, m)
        assert code == 0
        assert process.state == ProcessState.EXITED
        assert m.fs.read_file("c:/grid/wd/out.dat").to_bytes() == b"done"
        # 2 work units at speed 1.0 plus spawn cost.
        assert process.cpu_time == pytest.approx(2.0, rel=1e-6)
        assert env.now == pytest.approx(2.0 + m.params.proc_spawn_s, rel=1e-6)

    def test_faster_machine_finishes_sooner(self):
        env, m = _machine(speed=2.0)
        self._setup_job(m)
        _, _ = _spawn(env, m)
        assert env.now == pytest.approx(1.0 + m.params.proc_spawn_s, rel=1e-6)

    def test_bad_password_rejected(self):
        env, m = _machine()
        self._setup_job(m)
        def do(env):
            yield from m.procspawn.spawn("c:/grid/wd/job.exe", [], "griduser", "WRONG", "c:/grid/wd")
        with pytest.raises(SpawnError, match="authentication"):
            env.run(until=env.process(do(env)))

    def test_missing_binary_rejected(self):
        env, m = _machine()
        m.fs.mkdir("c:/grid/wd")
        def do(env):
            yield from m.procspawn.spawn("c:/grid/wd/nope.exe", [], "griduser", "pw", "c:/grid/wd")
        with pytest.raises(SpawnError, match="cannot read binary"):
            env.run(until=env.process(do(env)))

    def test_unregistered_program_rejected(self):
        env, m = _machine()
        m.fs.mkdir("c:/grid/wd")
        m.fs.write_file("c:/grid/wd/job.exe", b"#!uva-program:ghost\n")
        def do(env):
            yield from m.procspawn.spawn("c:/grid/wd/job.exe", [], "griduser", "pw", "c:/grid/wd")
        with pytest.raises(SpawnError, match="ghost"):
            env.run(until=env.process(do(env)))

    def test_non_executable_file_rejected(self):
        env, m = _machine()
        m.fs.mkdir("c:/grid/wd")
        m.fs.write_file("c:/grid/wd/job.exe", b"just some data")
        def do(env):
            yield from m.procspawn.spawn("c:/grid/wd/job.exe", [], "griduser", "pw", "c:/grid/wd")
        with pytest.raises(SpawnError, match="not a recognized"):
            env.run(until=env.process(do(env)))

    def test_missing_working_dir_rejected(self):
        env, m = _machine()
        def do(env):
            yield from m.procspawn.spawn("c:/x.exe", [], "griduser", "pw", "c:/ghost")
        with pytest.raises(SpawnError, match="working directory"):
            env.run(until=env.process(do(env)))

    def test_crashing_program_exits_nonzero(self):
        env, m = _machine()

        def crash(ctx):
            yield from ctx.compute(0.5)
            raise RuntimeError("segfault")

        m.programs.define("crasher", crash)
        m.fs.mkdir("c:/grid/wd")
        m.fs.write_file("c:/grid/wd/job.exe", b"#!uva-program:crasher\n")
        process, code = _spawn(env, m)
        assert code == 1
        assert process.state == ProcessState.EXITED

    def test_nonzero_exit_code_propagates(self):
        env, m = _machine()
        m.programs.register(make_compute_program("fail3", 0.1, exit_code=3))
        m.fs.mkdir("c:/grid/wd")
        m.fs.write_file("c:/grid/wd/job.exe", b"#!uva-program:fail3\n")
        _, code = _spawn(env, m)
        assert code == 3

    def test_kill_running_process(self):
        env, m = _machine()
        self._setup_job(m, work=100.0)
        holder = {}

        def do(env):
            p = yield from m.procspawn.spawn(
                "c:/grid/wd/job.exe", [], "griduser", "pw", "c:/grid/wd"
            )
            holder["p"] = p
            yield env.timeout(5.0)
            p.kill()
            code = yield p.done
            return code

        runner = env.process(do(env))
        env.run(until=runner)
        p = holder["p"]
        assert runner.value == -1
        assert p.state == ProcessState.KILLED
        assert p.cpu_time == pytest.approx(5.0, rel=1e-6)
        # Output never written.
        assert not m.fs.is_file("c:/grid/wd/out.dat")

    def test_kill_exited_process_is_noop(self):
        env, m = _machine()
        self._setup_job(m, work=0.1)
        process, code = _spawn(env, m)
        process.kill()
        assert process.state == ProcessState.EXITED and process.exit_code == code

    def test_stopped_service_refuses(self):
        env, m = _machine()
        m.procspawn.stop()
        def do(env):
            yield from m.procspawn.spawn("x", [], "griduser", "pw", "c:/grid")
        with pytest.raises(RuntimeError, match="not running"):
            env.run(until=env.process(do(env)))


class TestCpuSharing:
    def test_two_processes_share_one_core(self):
        env, m = _machine()
        m.programs.register(make_compute_program("burn", 4.0))
        m.fs.mkdir("c:/grid/wd")
        m.fs.write_file("c:/grid/wd/job.exe", b"#!uva-program:burn\n")

        finished = []

        def launch(env):
            p = yield from m.procspawn.spawn(
                "c:/grid/wd/job.exe", [], "griduser", "pw", "c:/grid/wd"
            )
            yield p.done
            finished.append(env.now)

        env.process(launch(env))
        env.process(launch(env))
        env.run()
        # Both need 4 units; sharing one core, both finish at ~8s (+spawn).
        assert finished[0] == pytest.approx(8.0 + m.params.proc_spawn_s, rel=1e-3)
        assert finished[1] == pytest.approx(finished[0], rel=1e-3)

    def test_two_cores_run_in_parallel(self):
        env, m = _machine(cores=2)
        m.programs.register(make_compute_program("burn", 4.0))
        m.fs.mkdir("c:/grid/wd")
        m.fs.write_file("c:/grid/wd/job.exe", b"#!uva-program:burn\n")
        finished = []

        def launch(env):
            p = yield from m.procspawn.spawn(
                "c:/grid/wd/job.exe", [], "griduser", "pw", "c:/grid/wd"
            )
            yield p.done
            finished.append(env.now)

        env.process(launch(env))
        env.process(launch(env))
        env.run()
        assert max(finished) == pytest.approx(4.0 + m.params.proc_spawn_s, rel=1e-3)

    def test_utilization_reflects_load(self):
        env, m = _machine()
        assert m.utilization() == 0.0
        m.programs.register(make_compute_program("burn", 10.0))
        m.fs.mkdir("c:/grid/wd")
        m.fs.write_file("c:/grid/wd/job.exe", b"#!uva-program:burn\n")

        def launch(env):
            yield from m.procspawn.spawn(
                "c:/grid/wd/job.exe", [], "griduser", "pw", "c:/grid/wd"
            )

        def probe(env):
            yield env.timeout(1.0)
            return m.utilization()

        env.process(launch(env))
        p = env.process(probe(env))
        util = env.run(until=p)
        assert util == 1.0
        env.run()
        assert m.utilization() == 0.0

    def test_cpu_seconds_delivered_tracked(self):
        env, m = _machine()
        m.programs.register(make_compute_program("burn", 3.0))
        m.fs.mkdir("c:/grid/wd")
        m.fs.write_file("c:/grid/wd/job.exe", b"#!uva-program:burn\n")
        _spawn(env, m)
        assert m.cpu.cpu_seconds_delivered == pytest.approx(3.0, rel=1e-6)

    def test_scheduler_validation(self):
        env = Environment()
        from repro.osim import CpuScheduler

        with pytest.raises(ValueError):
            CpuScheduler(env, cores=0)
        with pytest.raises(ValueError):
            CpuScheduler(env, speed=0)
        with pytest.raises(ValueError):
            CpuScheduler(env, speed=float("nan"))


class TestProgramRegistry:
    def test_duplicate_rejected(self):
        reg = ProgramRegistry()
        reg.define("p", lambda ctx: 0)
        with pytest.raises(ValueError):
            reg.define("p", lambda ctx: 0)

    def test_binary_content_roundtrip(self):
        reg = ProgramRegistry()
        prog = reg.define("analyzer", lambda ctx: 0)
        content = FileContent.from_bytes(prog.binary_content())
        assert reg.resolve_binary(content) is prog

    def test_unknown_binary(self):
        reg = ProgramRegistry()
        with pytest.raises(ValueError):
            reg.resolve_binary(FileContent.from_bytes(b"MZ\x90\x00"))
        with pytest.raises(KeyError):
            reg.resolve_binary(FileContent.from_bytes(b"#!uva-program:ghost\n"))


class TestIis:
    def test_routes_by_path(self):
        env, m = _machine()

        class App:
            def handle_soap(self, payload, ctx):
                yield env.timeout(0)
                return f"from-app:{payload}"

        m.iis.register_app("/ExecService", App())

        def call(env):
            reply = yield from m.network.request(
                "node1", "http://node1:80/ExecService", "ping"
            )
            return reply

        # Self-call via loopback through the fabric.
        p = env.process(call(env))
        env.run(until=p)
        assert p.value == "from-app:ping"
        assert m.iis.requests_served == 1

    def test_unknown_path_404(self):
        env, m = _machine()
        call = env.process(m.network.request("node1", "http://node1:80/Ghost", "x"))
        env.run(until=call)
        fault = SoapFault.from_element(SoapEnvelope.deserialize(call.value).body)
        assert fault.code == "soap:Client" and "no service at '/Ghost'" in fault.reason
        assert m.network.stats.faults == {"refused": 1}

    def test_duplicate_path_rejected(self):
        env, m = _machine()

        class App:
            def handle_soap(self, payload, ctx):
                yield env.timeout(0)

        m.iis.register_app("/A", App())
        with pytest.raises(ValueError):
            m.iis.register_app("A", App())

    def test_worker_pool_limits_concurrency(self):
        env = Environment()
        net = Network(env)
        m = Machine(net, "node1", params=MachineParams(iis_workers=4))
        m.users.add_user("griduser", "pw")
        in_flight = {"now": 0, "max": 0}

        class SlowApp:
            def handle_soap(self, payload, ctx):
                in_flight["now"] += 1
                in_flight["max"] = max(in_flight["max"], in_flight["now"])
                yield env.timeout(1.0)
                in_flight["now"] -= 1
                return "ok"

        m.iis.register_app("/Slow", SlowApp())
        client = m.network.add_host("client")

        def call(env):
            yield from m.network.request("client", "http://node1:80/Slow", "x")

        for _ in range(10):
            env.process(call(env))
        env.run()
        assert in_flight["max"] == m.params.iis_workers

    def test_app_type_checked(self):
        env, m = _machine()
        with pytest.raises(TypeError):
            m.iis.register_app("/X", object())
