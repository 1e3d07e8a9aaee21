"""The benchmark's per-update counts trace functions by dotted name; each name must
still resolve, or a rename would silently zero its count."""

import ast
import importlib
import inspect
import pathlib

SPEC = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spec.py"


def _dict_literal(path, name):
    """The dict assigned to name at the top level of the file at path, read without importing it."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


def test_every_update_function_resolves_to_a_marlab_function():
    names = _dict_literal(SPEC, "UPDATE_FUNCTIONS")
    assert names
    for algo, dotted in names.items():
        module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"marlab.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        assert inspect.isfunction(obj), f"{algo}: marlab.{dotted} is not a function"
