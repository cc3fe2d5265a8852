"""The benchmark's span list must name functions that exist.

``perfbench --trace 1`` wraps every entry of ``perfbench/spans.py``'s
``TARGETS`` and stops with "span list is stale" when one is missing, so a
change that deletes or renames a listed function breaks the traced benchmark.
This test finds that in the unit suite. It reads ``spans.py`` by path and
compiles it in memory, so nothing under ``perfbench/`` is imported as a
package or written.
"""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_span_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    missing = []
    for name, module_name, attr_path in spans.TARGETS:
        try:
            spans._resolve(module_name, attr_path)
        except (AttributeError, ImportError) as exc:
            missing.append(f"{name}: {exc}")
    assert not missing, "\n".join(missing)
