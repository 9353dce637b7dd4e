"""The benchmark's tracer installs on the library as it stands.

``perfbench/tracing.py`` wraps each traced function at every name the
library looks it up by, and refuses to install when one of those names is
gone or bound to something else.  So a library change that drops one of
them breaks every traced benchmark run; this test fails on it first.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    places = [(owner, attr) for owner_attrs, _ in tracing.TARGETS.values()
              for owner, attr in owner_attrs]
    before = [getattr(owner, attr) for owner, attr in places]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(places, before))
        sys = tracing.models.make_model("cat-map")
        tracing.models.local_arc(sys, sys.point(0.1, 0.2), "stable", 0.1)
        assert [span[0] for span in tracer.spans] == ["models.local_arc"]
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(places, before))
