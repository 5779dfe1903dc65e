"""The benchmark's tracer still finds every library name it wraps.

``perfbench/spans.py`` wraps groupgeo's functions, methods and kernel
entry points by name, and ``perfbench/run.py --trace 1`` fails when one of
them is renamed or moved.  This installs the tracer around one small
``check_bounded`` run, as a traced benchmark pass does, and checks that
the spans were recorded and the originals put back.
"""

from pathlib import Path

from groupgeo import cayley, combing, distortion, garside, groups, words  # noqa: F401  (spans resolves them)
from groupgeo.experiments import get_group

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_records_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import METRICS, Tracer

    G = get_group("z2")
    plain = combing.check_bounded(combing.shortlex_bicombing(G, 2), G, 2)
    ball = cayley.ball
    tracer = Tracer()
    tracer.install()
    try:
        assert cayley.ball is not ball
        traced = combing.check_bounded(combing.shortlex_bicombing(G, 2), G, 2)
    finally:
        tracer.uninstall()
    assert cayley.ball is ball
    assert traced.to_json_dict() == plain.to_json_dict()
    assert tracer.calls["combing.check_bounded"] == 1
    assert tracer.calls["cayley.ball"] >= 1
    assert tracer.calls["kernel.all_pairs_bfs"] >= 1
    assert tracer.largest_ball[0] == len(cayley.ball(G, 2))
    metrics = tracer.metrics(0.0)
    assert set(metrics) == set(METRICS)
    assert metrics["cayley.ball.elements"] >= len(cayley.ball(G, 2))
