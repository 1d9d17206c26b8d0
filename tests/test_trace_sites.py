"""Every function site that perfbench/tracing.py wraps still exists.

Whether each site is also called by its workloads is checked by the traced
benchmark run (``python3 perfbench/run.py --trace 1``).
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_site_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()  # raises AttributeError naming a missing site
    finally:
        tracer.uninstall()
