"""LOCK001 fixtures: detached processes mutating shared WS-Resource state.

The interprocedural successor of the old per-file SIM002: mutations are
flagged when they run on a call path from an ``env.process(...)`` root
with no resource Lock acquired anywhere along the chain — including
mutations buried in helpers the per-file rule could never see.
"""


def start_unsafe_sweeper(env, wrapper):
    def sweeper(env):
        while True:
            yield env.timeout(1.0)
            for rid in wrapper.resource_ids():
                state = wrapper.store.load(wrapper.service_name, rid)
                state["swept"] = True
                # LOCK001: load-modify-save without the resource lock.
                wrapper.store.save(wrapper.service_name, rid, state)

    return env.process(sweeper(env))


def start_unsafe_reaper(env, wrapper, rid):
    def reaper(env):
        yield env.timeout(5.0)
        # LOCK001: destroy without holding the resource lock.
        wrapper.destroy_resource(rid)

    return env.process(reaper(env))


def start_unsafe_watcher(env, wrapper, rid, process):
    def watcher(env):
        code = yield process.done
        job = wrapper.load_resource(rid)
        job.exit_code = code
        # LOCK001: the process-watcher shape, read and written by field
        # name through the wrapper, with no resource lock taken.
        wrapper.save_resource(rid, job)

    return env.process(watcher(env))


def start_layered_sweeper(env, wrapper):
    def layered(env):
        while True:
            yield env.timeout(1.0)
            for rid in wrapper.resource_ids():
                # The mutation hides one call down; the witness chain is
                # layered -> _sweep_one.
                _sweep_one(wrapper, rid)

    return env.process(layered(env))


def _sweep_one(wrapper, rid):
    state = wrapper.store.load(wrapper.service_name, rid)
    state["swept"] = True
    # LOCK001: reached from the layered root with no lock on the chain.
    wrapper.store.save(wrapper.service_name, rid, state)


def start_safe_sweeper(env, wrapper):
    def sweeper(env):
        while True:
            yield env.timeout(1.0)
            for rid in wrapper.resource_ids():
                lock = wrapper.resource_lock(rid)
                yield lock.acquire()
                try:
                    state = wrapper.store.load(wrapper.service_name, rid)
                    state["swept"] = True
                    # OK: the lock above covers the load-modify-save.
                    wrapper.store.save(wrapper.service_name, rid, state)
                finally:
                    lock.release()

    return env.process(sweeper(env))


def start_safe_layered_sweeper(env, wrapper):
    def guarded(env):
        while True:
            yield env.timeout(1.0)
            for rid in wrapper.resource_ids():
                lock = wrapper.resource_lock(rid)
                yield lock.acquire()
                try:
                    # OK: the call site sits below the acquire, so the
                    # helper enters the graph locked on this path.
                    _locked_sweep(wrapper, rid)
                finally:
                    lock.release()

    return env.process(guarded(env))


def _locked_sweep(wrapper, rid):
    state = wrapper.store.load(wrapper.service_name, rid)
    state["swept"] = True
    wrapper.store.save(wrapper.service_name, rid, state)


def start_recovery(env, wrapper):
    def restore(env):
        yield env.timeout(0.0)
        # OK: recovery allowlist — restore runs single-threaded before
        # concurrent dispatch starts (the old boot's locks are gone).
        for rid in wrapper.store.list_ids(wrapper.service_name):
            wrapper.store.save(wrapper.service_name, rid, {"recovered": True})

    return env.process(restore(env))


def plain_helper_not_a_process(wrapper, rid, state):
    # OK: not reachable from any env.process(...) root; invocation-path
    # code runs under the dispatcher's own resource lock.
    wrapper.store.save(wrapper.service_name, rid, state)
