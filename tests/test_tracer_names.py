"""The dotted function names the benchmark tracer reads must name functions it wraps.

`benchmark/tracing.py` wraps each function in a layer's `__all__`, plus the
callables in its `EXTRA`, and reads per-layer metrics by dotted name. A
renamed function would leave its metric reading 0 with no error.
"""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmark"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def names_read():
    """String literals of tracing.py shaped '<layer>.<name>[.<name>]', less the metric names."""
    pattern = re.compile(r"(%s)\.[A-Za-z_]\w*(\.[A-Za-z_]\w*)?$" % "|".join(tracing.LAYERS))
    tree = ast.parse((BENCH / "tracing.py").read_text())
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and pattern.match(node.value)}
    metrics = set(tracing.layer_metrics([tracing.OpProfile([])], 0.0, 0.0, 0.0, 0.0))
    return literals - metrics


def names_wrapped():
    names = set()
    for layer in tracing.LAYERS:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        names |= {f"{layer}.{attr}" for attr in mod.__all__
                  if inspect.isfunction(getattr(mod, attr))}
    for layer, cls_name, attr in tracing.EXTRA:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        if callable(vars(owner).get(attr)):
            names.add(".".join(part for part in (layer, cls_name, attr) if part))
    return names


def test_every_name_read_is_wrapped():
    read = names_read()
    assert {"cayley.cayley_forward_stiefel", "experiments.write_draws_csv",
            "densities.PullbackTarget.__call__"} <= read
    assert sorted(read - names_wrapped()) == []
