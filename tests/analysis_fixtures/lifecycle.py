"""WSRF004 fixtures: resource handles used after being destroyed.

Destroys count interprocedurally — a helper whose body destroys its
parameter destroys it at every call site — and only *definite*
destruction flags (branch merge is intersection; reassignment clears).
The namespace argument is a parameter on purpose: these sites exercise
lifecycle tracking, not WSRF001's proxy-signature matching.
"""


def destroy_then_call(client, epr, ns):
    client.call(epr, ns, "Destroy")
    # WSRF004: the resource behind epr is gone; this raises
    # ResourceUnknownFault at runtime.
    return client.call(epr, ns, "GetStatus")


def destroy_then_load(wrapper, rid):
    wrapper.destroy_resource(rid)
    # WSRF004: loading a destroyed resource's row.
    return wrapper.store.load(wrapper.service_name, rid)


def destroy_then_load_resource(wrapper, rid):
    wrapper.destroy_resource(rid)
    # WSRF004: reading a destroyed resource's fields by name.
    return wrapper.load_resource(rid).status


def destroy_then_load_kept(wrapper, rid):
    wrapper.destroy_resource(rid)
    # WSRF004: the db_load stage's read of a destroyed resource's row.
    return wrapper.store.load_kept(wrapper.service_name, rid)


def double_destroy(wrapper, rid):
    wrapper.destroy_resource(rid)
    # WSRF004: a second destroy of the same handle.
    wrapper.destroy_resource(rid)


def _retire(wrapper, rid):
    # a destroyer helper: destroys its parameter
    wrapper.destroy_resource(rid)


def destroy_via_helper_then_use(wrapper, rid):
    _retire(wrapper, rid)
    # WSRF004: _retire() destroyed rid; the epr_for re-derivation hands
    # out a dangling handle.
    return wrapper.epr_for(rid)


def conditional_destroy_ok(wrapper, rid, done):
    if done:
        wrapper.destroy_resource(rid)
    # OK: only one branch destroys, so the handle may still be live.
    return wrapper.store.exists(wrapper.service_name, rid)


def reassign_after_destroy_ok(wrapper, rid):
    wrapper.destroy_resource(rid)
    rid = wrapper.create_resource()
    # OK: rid was rebound to a fresh resource after the destroy.
    wrapper.store.save(wrapper.service_name, rid, {})
    return rid


def destroy_last_ok(client, epr, ns):
    status = client.call(epr, ns, "GetStatus")
    # OK: the destroy is the final touch on the handle.
    client.call(epr, ns, "Destroy")
    return status
