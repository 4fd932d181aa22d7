"""Tests for wsrfcheck (``repro.analysis``).

Three layers: unit tests of the contract model, per-rule tests over the
seeded-violation fixtures in ``tests/analysis_fixtures/``, and the CLI,
whose run over ``src/repro`` is CI's gate: the real source tree must
analyze clean.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from repro.analysis import analyze_paths, build_model, rule_catalog
from repro.analysis.engine import Finding

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "analysis_fixtures"
GOLDEN = REPO_ROOT / "tests" / "analysis_golden.json"
RULE_CODES = [
    "DET001", "LOCK001", "SIM001", "WAL001",
    "WSRF001", "WSRF003", "WSRF005",
]


def analyze_fixtures(rules=None):
    return analyze_paths([str(FIXTURES)], rules=rules, root=REPO_ROOT)


# -- contract model -----------------------------------------------------------------


class TestContractModel:
    def _model(self, source, module="fixture", path="fixture.py"):
        return build_model([(module, path, ast.parse(source))])

    def test_web_method_signature_extraction(self):
        model = self._model(
            """
from repro.xmlx import NS

class S(ServiceSkeleton):
    SERVICE_NS = NS.UVACG

    @WebMethod(one_way=True)
    def Go(self, a, b=1, *, c, d=2):
        pass
"""
        )
        method = model.web_method("NS.UVACG", "Go")
        assert method is not None
        assert method.one_way is True
        assert set(method.params) == {"a", "b", "c", "d"}
        assert method.required == {"a", "c"}

    def test_service_ns_inherited_through_bases(self):
        model = self._model(
            """
from repro.xmlx import NS

class Base(ServiceSkeleton):
    SERVICE_NS = NS.WSRF_SG

    @WebMethod
    def Op(self):
        pass

class Child(Base):
    pass
"""
        )
        assert model.effective_ns("Child") == "NS.WSRF_SG"
        assert model.web_method("NS.WSRF_SG", "Op") is not None

    def test_default_namespace_is_uvacg(self):
        model = self._model(
            """
class S(ServiceSkeleton):
    @WebMethod
    def Op(self):
        pass
"""
        )
        assert model.effective_ns("S") == "NS.UVACG"

    def test_fault_closure_is_transitive(self):
        model = self._model(
            """
class A(BaseFault):
    pass

class B(A):
    pass

class C(Exception):
    pass
"""
        )
        assert "A" in model.fault_classes
        assert "B" in model.fault_classes
        assert "C" not in model.fault_classes

    def test_module_alias_resolution(self):
        model = self._model(
            """
from repro.xmlx import NS

UVA = NS.UVACG

class S(ServiceSkeleton):
    SERVICE_NS = UVA
"""
        )
        assert model.effective_ns("S") == "NS.UVACG"

    def test_real_tree_model_covers_known_services(self):
        report_files = [str(REPO_ROOT / "src" / "repro")]
        from repro.analysis.engine import collect_files, _module_name, _relative

        files = collect_files(report_files)
        modules = []
        for f in files:
            rel = _relative(f, REPO_ROOT)
            modules.append((_module_name(rel), rel, ast.parse(f.read_text())))
        model = build_model(modules)
        assert "ExecutionService" in model.service_classes
        assert "Gt4ExecutionService" in model.service_classes
        assert "AuthenticationFault" in model.fault_classes
        assert model.web_method("NS.UVACG", "Run") is not None
        report = model.web_method("NS.WSRF_SG", "ReportUtilization")
        assert report is not None and report.one_way is True


# -- per-rule fixture tests ---------------------------------------------------------


def findings_for(rule):
    report = analyze_fixtures(rules=[rule])
    return report.findings


class TestRulesFire:
    def test_wsrf001_proxy_drift(self):
        lines = {(f.path.rsplit("/", 1)[-1], f.line) for f in findings_for("WSRF001")}
        assert ("proxy_drift.py", 30) in lines  # unknown method
        assert ("proxy_drift.py", 35) in lines  # unknown argument
        assert ("proxy_drift.py", 40) in lines  # missing required argument
        assert ("proxy_drift.py", 45) in lines  # one-way mismatch

    def test_wsrf001_good_sites_are_clean(self):
        assert not any(
            f.symbol in ("good_call", "good_one_way")
            for f in findings_for("WSRF001")
        )

    def test_wsrf003_untyped_faults(self):
        messages = [f.message for f in findings_for("WSRF003")]
        assert any("ValueError" in m for m in messages)
        assert any("RuntimeError" in m for m in messages)
        # the typed QuotaFault raise is clean
        assert not any("QuotaFault" in m for m in messages)

    def test_wal001_write_ahead_ordering(self):
        findings = findings_for("WAL001")
        symbols = {f.symbol for f in findings}
        # fire_and_forget inside a ServiceSkeleton subclass fires...
        assert "EagerAnnouncer.Finish" in symbols
        # ...the outbox-routed send and module-level helpers are clean.
        assert "EagerAnnouncer.FinishSafely" not in symbols
        assert "relay" not in symbols
        assert all("send_after_persist" in f.message for f in findings)

    def test_det001_nondeterminism(self):
        findings = findings_for("DET001")
        symbols = {f.symbol for f in findings}
        assert symbols >= {
            "wall_clock_timestamp",
            "wall_clock_datetime",
            "wall_clock_perf_counter",
            "global_rng_choice",
            "numpy_global_draw",
            "unseeded_generator",
            "unseeded_constructors",
            "schedule_from_set",
        }
        assert "seeded_generator" not in symbols
        assert "schedule_sorted" not in symbols
        # a site outside every function is reported where it is
        assert [
            f.message.split(";")[0] for f in findings
            if f.path.endswith("nondeterminism.py") and f.symbol == ""
        ] == ["time.time() reads the wall clock"]

    def test_det001_seeded_constructors_are_clean(self):
        """A generator constructor is a source only without a seed, like
        ``default_rng()``: ``random.Random(42)`` and ``np.random.PCG64(7)``
        reproduce."""
        findings = findings_for("DET001")
        assert not any(f.symbol == "seeded_constructors" for f in findings)
        unseeded = sorted(
            f.message.split(";")[0]
            for f in findings
            if f.symbol == "unseeded_constructors"
        )
        assert unseeded == [
            "PCG64() without a seed is entropy-seeded",
            "Random() without a seed is entropy-seeded",
        ]

    def test_det001_suppression_pragma(self):
        report = analyze_fixtures(rules=["DET001"])
        # nondeterminism.py suppressed_wall_clock + det_chains.py
        # _accepted_wall_clock
        assert report.suppressed == 2
        assert not any(
            f.symbol == "suppressed_wall_clock" for f in report.findings
        )

    def test_sim001_blocking_calls(self):
        symbols = {f.symbol for f in findings_for("SIM001")}
        assert symbols == {"real_sleep", "real_socket", "real_file_read"}


class TestInterprocRulesFire:
    """The call-graph rules: WSRF005, DET001 and WAL001 through
    helpers, LOCK001."""

    def test_wsrf005_epr_escape(self):
        findings = findings_for("WSRF005")
        symbols = {f.symbol for f in findings}
        assert symbols >= {
            "remember_peer", "cache_in_registry",
            "stash_in_global", "stash_in_class_attr",
        }
        # the two module-level assignments report with no symbol
        module_level = [f for f in findings if f.symbol == ""]
        assert len(module_level) == 2  # SCHEDULER_EPR + BROKER_HANDLE
        assert "local_handle_ok" not in symbols

    def test_wsrf005_suppression(self):
        report = analyze_fixtures(rules=["WSRF005"])
        assert report.suppressed == 1
        assert not any(
            f.symbol == "accepted_registry_entry" for f in report.findings
        )

    def test_det001_taint_through_helpers(self):
        by_symbol = {
            f.symbol: f.message
            for f in findings_for("DET001")
            if "through helper calls" in f.message
        }
        assert set(by_symbol) == {
            "TimestampingService.Stamp", "start_jitter_process.jitter",
        }
        # the witness chain names the helper and the source
        assert "_wall_clock_tag -> time.time()" in by_symbol[
            "TimestampingService.Stamp"
        ]
        assert "detached process jitter" in by_symbol[
            "start_jitter_process.jitter"
        ]

    def test_det001_clean_and_suppressed_chains(self):
        symbols = {f.symbol for f in findings_for("DET001")}
        assert "SeededService.Sample" not in symbols  # deterministic helper
        # suppressing the source (ignore[DET001]) kills the taint
        assert "AcceptingService.Accepted" not in symbols

    def test_wal001_layered_and_port_type_sends(self):
        by_symbol = {f.symbol: f.message for f in findings_for("WAL001")}
        assert set(by_symbol) == {
            "EagerAnnouncer.Finish",  # in place, in a web method
            "DeferredAnnouncer.FinishLater.announce",  # in place, in a closure
            "DeferredAnnouncer._announce_now",  # in place, in a non-web method
            "LayeredAnnouncer.FinishLayered", "DemandSignalPortType.signal",
            "DeferredAnnouncer.FinishLater",
        }
        assert "relay -> fire_and_forget in relay" in by_symbol[
            "LayeredAnnouncer.FinishLayered"
        ]
        assert "port-type method" in by_symbol["DemandSignalPortType.signal"]

    def test_wal001_outbox_routed_chain_is_clean(self):
        findings = findings_for("WAL001")
        symbols = {f.symbol for f in findings}
        assert "LayeredSafeAnnouncer.FinishSafelyLayered" not in symbols
        # a send in the method itself is reported once, where it is
        assert [f.line for f in findings if f.symbol == "EagerAnnouncer.Finish"] == [27]

    def test_wal001_accepted_send_taints_no_caller(self, tmp_path):
        """As for DET001, a send accepted with an inline pragma stops the
        chain: the web method that reaches it is not flagged."""
        src = tmp_path / "accepted.py"
        send = "    fire_and_forget(env, client, epr, body)"
        source = (
            "def relay(env, client, epr, body):\n"
            f"{send}\n\n\n"
            "class S(ServiceSkeleton):\n"
            "    @WebMethod\n"
            "    def Go(self, epr, body):\n"
            "        relay(self.env, self.client, epr, body)\n"
        )
        src.write_text(source)
        flagged = analyze_paths([str(src)], rules=["WAL001"], root=tmp_path)
        assert [(f.symbol, f.line) for f in flagged.findings] == [("S.Go", 8)]
        src.write_text(source.replace(send, send + "  # wsrfcheck: ignore[WAL001]"))
        accepted = analyze_paths([str(src)], rules=["WAL001"], root=tmp_path)
        assert accepted.findings == []

    def test_lock001_unlocked_mutations(self):
        symbols = {f.symbol for f in findings_for("LOCK001")}
        assert symbols == {
            "start_unsafe_sweeper.sweeper",  # direct load-modify-save
            "start_unsafe_reaper.reaper",    # direct destroy
            "start_unsafe_watcher.watcher",  # save_resource, no lock
            "_sweep_one",                    # reached through a helper
        }

    def test_lock001_sees_save_resource(self):
        """The ES-watcher shape: a detached process writing fields back
        through the wrapper mutates the store like ``store.save``."""
        by_symbol = {f.symbol: f.message for f in findings_for("LOCK001")}
        assert by_symbol["start_unsafe_watcher.watcher"].startswith(
            "save_resource() runs with no resource Lock held"
        )

    def test_lock001_witness_chain(self):
        by_symbol = {f.symbol: f.message for f in findings_for("LOCK001")}
        assert "layered -> _sweep_one" in by_symbol["_sweep_one"]

    def test_lock001_locked_recovery_and_nonprocess_paths_clean(self):
        symbols = {f.symbol for f in findings_for("LOCK001")}
        assert not any(s.startswith("start_safe_sweeper") for s in symbols)
        assert "_locked_sweep" not in symbols  # call site below the acquire
        assert "start_recovery.restore" not in symbols  # recovery allowlist
        assert "plain_helper_not_a_process" not in symbols


# -- engine behavior ----------------------------------------------------------------


class TestEngine:
    def test_golden_report(self):
        report = analyze_fixtures()
        golden = json.loads(GOLDEN.read_text())
        assert report.to_json() == golden, (
            "fixture findings drifted from tests/analysis_golden.json; "
            "if the change is intended, regenerate with: PYTHONPATH=src "
            "python -m repro.analysis tests/analysis_fixtures "
            "--format json > tests/analysis_golden.json"
        )

    def test_fingerprint_is_line_independent(self):
        a = Finding(rule="R", path="p.py", line=10, message="m", symbol="s")
        b = Finding(rule="R", path="p.py", line=99, message="m", symbol="s")
        c = Finding(rule="R", path="p.py", line=10, message="other", symbol="s")
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_parse_error_reported_not_fatal(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = analyze_paths([str(bad)], root=tmp_path)
        assert len(report.parse_errors) == 1
        assert report.exit_code == 1

    def test_show_suppressed_audit_view(self):
        report = analyze_fixtures()
        audited = {f.symbol for f in report.suppressed_findings}
        assert "suppressed_wall_clock" in audited
        assert "accepted_registry_entry" in audited
        payload = report.to_json(show_suppressed=True)
        assert len(payload["suppressed_findings"]) == report.suppressed
        assert "(suppressed)" in report.render_text(show_suppressed=True)
        assert "suppressed_findings" not in report.to_json()

    def test_multi_rule_suppression_comment(self, tmp_path):
        src = tmp_path / "multi.py"
        src.write_text(
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()  # wsrfcheck: ignore[DET001, WSRF001]\n"
        )
        report = analyze_paths([str(src)], root=tmp_path)
        assert report.findings == []
        assert report.suppressed == 1

    def test_sarif_output(self):
        report = analyze_fixtures()
        doc = json.loads(report.render_sarif())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "wsrfcheck"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"WSRF005", "DET001", "WAL001", "LOCK001"} <= rule_ids
        assert len(run["results"]) == len(report.findings)
        first = run["results"][0]
        assert first["partialFingerprints"]["wsrfcheck/v1"] == (
            report.findings[0].fingerprint
        )
        assert first["locations"][0]["physicalLocation"]["region"][
            "startLine"
        ] == report.findings[0].line


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestCliExitMatrix:
    """Exit 0 = clean, 1 = findings or parse errors, 2 = usage errors."""

    def test_findings_exit_1_with_json(self):
        proc = run_cli(str(FIXTURES), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["files_analyzed"] == len(list(FIXTURES.rglob("*.py")))

    def test_clean_tree_exits_0(self):
        """CI's gate, run as CI runs it: the whole catalog over src/repro.
        A finding or a parse error exits 1 and prints itself here."""
        proc = run_cli("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_unknown_rule_exits_2(self):
        proc = run_cli("src/repro", "--rules", "WSRF001,NOPE001")
        assert proc.returncode == 2
        assert "unknown rule code(s): NOPE001" in proc.stderr

    def test_missing_path_exits_2(self):
        proc = run_cli("no/such/dir")
        assert proc.returncode == 2
        assert "no such file or directory" in proc.stderr

    def test_sarif_format_via_cli(self):
        proc = run_cli(str(FIXTURES), "--format", "sarif")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["runs"][0]["tool"]["driver"]["name"] == "wsrfcheck"

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        codes = [
            line.split()[0]
            for line in proc.stdout.splitlines()
            if line and not line.startswith(" ")
        ]
        assert codes == RULE_CODES


class TestCallGraph:
    """Targeted resolution cases the interprocedural rules lean on."""

    def _graph(self, source, module="m", path="m.py"):
        from repro.analysis.callgraph import build_callgraph

        tree = ast.parse(source)
        model = build_model([(module, path, tree)])
        return build_callgraph([(module, path, tree)], model)

    def test_self_call_resolves_inside_closure(self):
        graph = self._graph(
            """
class W:
    def tick(self):
        pass

    def start(self, env):
        def loop(env):
            while True:
                yield env.timeout(1.0)
                self.tick()
        return env.process(loop(env))
"""
        )
        edges = {(e.caller, e.callee) for e in graph.callees("m.W.start.loop")}
        assert ("m.W.start.loop", "m.W.tick") in edges

    def test_factory_return_type_infers_local(self):
        graph = self._graph(
            """
class Manager:
    def work(self):
        pass

def make_manager(wrapper):
    manager = Manager()
    return manager

def use(wrapper):
    manager = make_manager(wrapper)
    manager.work()
"""
        )
        edges = {(e.caller, e.callee) for e in graph.callees("m.use")}
        assert ("m.use", "m.Manager.work") in edges

    def test_ambiguous_bare_name_stays_unresolved(self):
        graph = self._graph(
            """
class A:
    def op(self):
        pass

class B:
    def op(self):
        pass

def use(x):
    x.op()
"""
        )
        assert graph.callees("m.use") == []


class TestShippedTreeIsClean:
    def test_rule_catalog_is_complete(self):
        assert sorted(rule_catalog()) == RULE_CODES
