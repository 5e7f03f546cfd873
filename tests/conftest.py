"""Helpers shared by the test modules."""

import os

# The timing checks (criterion 4 and the bench tests) measure how the
# attention layers scale with length, so BLAS runs on one thread, as in
# perfbench. With two threads per process on a shared 2-core host, BLAS
# spins on descheduled threads: a 3 ms LE batch then takes 40 ms, and the
# fitted slopes measure the scheduler. This runs before numpy is imported;
# a value set in the environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (numpy reads the thread pins when it is imported)


def assert_views_of_one_buffer(store):
    """Every tensor is the C-order view of its slice of ``store.buffer``."""
    for name, shape, start in store.layout:
        view = store[name]
        assert view.shape == shape and view.flags.c_contiguous, name
        assert np.shares_memory(view, store.buffer), name
        assert view.ctypes.data == store.buffer[start:].ctypes.data, name
    assert sum(store[name].size for name in store.names()) == store.buffer.size


def count_nodes(root):
    """Nodes of the autodiff graph reachable from ``root``, root included."""
    return len(graph_nodes(root))


def graph_nodes(root):
    """Every node reachable from ``root`` through ``Node.parents``."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent, _ in stack.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())
