"""Helpers shared by the test modules."""


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
