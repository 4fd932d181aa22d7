"""What the differential ("run it twice and compare") tests share.

One copy of the store fingerprint and of the seeded Fig-3 testbed +
job-set builders, imported by test_perf_equivalence, test_restart,
test_federation, test_sanitizer, test_codec_fastpath and test_obs.
"""

from repro.db.resource_store import encode_state
from repro.gridapp import FileRef, JobSpec, Testbed
from repro.osim.programs import make_compute_program
from repro.xmlx import NS, QName

UVA = NS.UVACG

#: resource-state keys whose values are run-relative artifacts, not
#: semantics: simulated timestamps, and OS pids (allocated from a
#: process-global counter, so even two identical back-to-back runs get
#: different pids)
TIME_KEYS = {QName(UVA, "job_dispatched_at"), QName(UVA, "pid")}


def normalized_store_state(wrapper):
    """{rid: encoded state bytes} with timestamp-valued keys dropped."""
    out = {}
    for rid in wrapper.store.list_ids(wrapper.service_name):
        state = wrapper.store.load(wrapper.service_name, rid)
        state = {k: v for k, v in state.items() if k not in TIME_KEYS}
        out[rid] = encode_state(state)
    return out


def final_grid_state(tb, brokers=True):
    """Normalized state of every service store of the default site.

    ``brokers=False`` leaves the broker out: a federated run's
    subscription rows point consumers at different host names (root
    broker vs. central) by construction, and the zone broker
    additionally holds the root uplink — topology, not job-set
    semantics.
    """
    wrappers = {"Scheduler": tb.scheduler, "NodeInfo": tb.node_info}
    if brokers:
        wrappers["NotificationBroker"] = tb.broker
    for name, es in tb.es.items():
        wrappers[f"ExecService@{name}"] = es
    for name, fss in tb.fss.items():
        wrappers[f"FileSystem@{name}"] = fss
    return {name: normalized_store_state(w) for name, w in wrappers.items()}


def assembly_order(tb):
    """What a testbed (``observability=True``) deployed, in order: the
    hosts, the wrappers with their zone labels, the machines by the
    serial of the certificate the campus CA issued them."""
    machines = {w.machine.name: w.machine for w in tb.obs._wrappers}
    return (
        list(tb.network.hosts),
        [(w.machine.name, w.path, w.zone) for w in tb.obs._wrappers],
        sorted(machines, key=lambda name: machines[name].cert.serial),
    )


def timed_trace(tb):
    return [(e.at, e.step, e.actor, e.detail) for e in tb.trace.events]


def fig3_testbed(duration, outputs, n_machines=4, seed=11, **kwargs):
    """The seeded Fig-3 grid with one compute program, ``work``,
    registered: *duration* simulated seconds, writing *outputs*."""
    kwargs.setdefault("machine_speeds", [1.0] * n_machines)
    tb = Testbed(n_machines=n_machines, seed=seed, **kwargs)
    tb.programs.register(make_compute_program("work", duration, outputs=outputs))
    return tb


def fan_spec(client, tb, n_jobs, name="job{}", chain=False, program="work"):
    """A job set of *n_jobs* runs of *program*; with *chain*, job *i*
    stages job *i-1*'s ``out.dat``."""
    spec = client.new_job_set()
    exe = client.add_program_binary(tb.programs.get(program))
    for i in range(n_jobs):
        inputs = [FileRef(name.format(i - 1) + "://out.dat", "prev.dat")] if chain and i else []
        spec.add(JobSpec(name=name.format(i), executable=FileRef(exe, "job.exe"),
                         inputs=inputs, outputs=["out.dat"] if chain else []))
    return spec
