"""The benchmark's traced runs wrap freelab functions by name.

`perfbench/tracing.py` lists them as (module, attribute, span) triples in
`TARGETS`; a rename in freelab would make a traced run fail, so every
triple must resolve.  The file is loaded by path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [(modname, attr) for modname, attr, _ in targets
               if not callable(getattr(importlib.import_module(modname), attr, None))]
    assert missing == []


def test_cli_parsing_keeps_its_build_spans():
    # the tracer wraps module attributes and plain dict values; a spec table
    # must reach each factory through the module when a spec is parsed
    tracing = _load_tracing()
    from freelab import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.parse_measure("translate:of=(arcsine:radius=1),a=0.3")
        cli.parse_potential("legendre:of=(quadratic:c=2)")
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert names.count("cli.parse") == 2
    assert names.count("measures.build") == 2  # the arcsine law, then its translate
    assert names.count("potentials.legendre") == 1
    assert tracing.installed_wrappers() == 0
