"""A test-side log of the resource manager's four mutations.

The manager records its registers, grants, revocations and removals as
tracer instants only.  Determinism tests that compare two runs op by op
wrap the manager with :func:`record_manager_ops` instead.  Each record
carries the engine's event count next to the clock, so an op that moved
by a zero-delay event (same time, later in the queue) still shows.
"""


def record_manager_ops(manager, ops: list) -> list:
    """Append ``(env.now, env.event_count, op, node, lease_id, cores)``
    to ``ops`` for every registration, grant, revocation and removal
    ``manager`` performs from now on; returns ``ops``."""
    env = manager.env
    register_node, try_lease = manager.register_node, manager.try_lease
    revoke_lease, remove_node = manager.revoke_lease, manager.remove_node

    def recorded_register_node(node_name, cores, *args, **kwargs):
        registered = register_node(node_name, cores, *args, **kwargs)
        ops.append((env.now, env.event_count, "register_node", node_name,
                    None, cores))
        return registered

    def recorded_try_lease(client, *args, **kwargs):
        granted = try_lease(client, *args, **kwargs)
        if granted is not None:
            lease = granted[0]
            ops.append((env.now, env.event_count, "lease", lease.node_name,
                        lease.lease_id, lease.cores))
        return granted

    def recorded_revoke_lease(lease, *args, **kwargs):
        revoked = revoke_lease(lease, *args, **kwargs)
        if revoked:
            ops.append((env.now, env.event_count, "revoke_lease", lease.node_name,
                        lease.lease_id, lease.cores))
        return revoked

    def recorded_remove_node(node_name, *args, **kwargs):
        removed = remove_node(node_name, *args, **kwargs)
        if removed:
            ops.append((env.now, env.event_count, "remove_node", node_name,
                        None, None))
        return removed

    # ``lease`` grants through ``self.try_lease``, so it is covered too.
    manager.register_node = recorded_register_node
    manager.try_lease = recorded_try_lease
    manager.revoke_lease = recorded_revoke_lease
    manager.remove_node = recorded_remove_node
    return ops
