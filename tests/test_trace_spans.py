"""The layer trace of `perfbench/run.py --trace 1` wraps package functions
by (module, attribute) name; every name it lists must still resolve, or a
rename in the package breaks the traced run while every other test passes."""

import importlib
import importlib.util
import pathlib

SPANS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for span, targets in spans.SPANS.items():
        for module_name, attr in targets:
            obj = importlib.import_module("parasuper." + module_name)
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append("%s: parasuper.%s.%s" % (span, module_name, attr))
    assert not missing
