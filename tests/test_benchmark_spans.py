"""The benchmark's traced runs wrap freelab functions by name.

`perfbench/tracing.py` lists them as (module, attribute, span) triples in
`TARGETS`; a rename in freelab would make a traced run fail, so every
triple must resolve.  The file is loaded by path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    targets = _span_targets()
    assert targets
    missing = [(modname, attr) for modname, attr, _ in targets
               if not callable(getattr(importlib.import_module(modname), attr, None))]
    assert missing == []
