"""Every benchmark span target names an attribute that exists in ``tilq``.

The benchmark times the package by wrapping names listed in
``perfbench/spans.py``; a refactor that renames or deletes one of them
silently drops that layer's metrics.  The module is loaded by path and only
read: no wrapper is installed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def resolve(target):
    owner = importlib.import_module(f"tilq.{target[0]}")
    for name in target[1:]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return owner


def test_every_span_target_resolves():
    targets = [t for ts in load_spans().values() for t in ts]
    assert targets
    missing = [".".join(t) for t in targets if not callable(resolve(t))]
    assert missing == []
