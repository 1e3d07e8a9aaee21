"""Finding the nets a learner holds."""

import types

from marlab import ndiff


def reachable_dense_nets(root):
    """Every DenseNet reachable from root through attributes, lists, tuples and
    dict values, each once."""
    seen, nets, todo = set(), {}, [root]
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (type, types.ModuleType)):
            continue
        seen.add(id(x))
        if isinstance(x, ndiff.DenseNet):
            nets[id(x)] = x
        if isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
        elif hasattr(x, "__dict__"):
            todo.extend(vars(x).values())
    return list(nets.values())
