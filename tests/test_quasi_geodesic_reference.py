"""Quasi-geodesic constants by integer comparison against the Fraction loops,
and segments on packed rows against the element loop.

``_reference_constants`` is the loop pair ``check_quasi_geodesic`` ran
before its constants were kept as integer pairs: one ``Fraction`` per ratio
and per slack.  The library must give the same lambda, epsilon and
witnesses on every segment list.  ``_segments`` is the element loop, one
line and one distance per pair and segment; the row path must give the
same segment list, in the same order, and raise where it raises.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupgeo import cayley, combing, experiments
from groupgeo.errors import CapExceeded
from groupgeo.experiments import get_group, group_from_config

ZOO_RADII = {
    "braid3": 3, "bs12": 4, "free2": 4, "heis3": 4,
    "kleinfour": 3, "sl2z": 4, "z2": 5,
}


def _reference_constants(segments):
    lam = Fraction(1)
    lam_witness = None
    for span, d, p_idx, s, t in segments:
        for ratio in ((Fraction(span, d) if d else None), Fraction(d, span)):
            if ratio is not None and ratio > lam:
                lam = ratio
                lam_witness = (p_idx, s, t)
    eps = Fraction(0)
    eps_witness = None
    for span, d, p_idx, s, t in segments:
        for slack in (d - lam * span, Fraction(span, 1) / lam - d):
            if slack > eps:
                eps = slack
                eps_witness = (p_idx, s, t)
    return lam, lam_witness, eps, eps_witness


def _segments(sigma, sample):
    segments = []
    for p_idx, (x, y) in enumerate(sample):
        verts = sigma.line(x, y).vertices
        for s in range(len(verts)):
            for t in range(s + 1, len(verts)):
                segments.append((t - s, sigma.distance(verts[s], verts[t]), p_idx, s, t))
    return segments


def _detour(sigma, G):
    """Lines of sigma with a first step out along letter 0 and back, and
    every vertex after it doubled: segments with d = 0, d < span and ties."""
    multiply, out = G.model.multiply, G.letter_images[0]

    def rule(x, y):
        verts = sigma.line(x, y).vertices
        padded = [verts[0], multiply(verts[0], out)]
        for v in verts:
            padded.extend([v, v])
        return combing.DiscretePath(tuple(padded))

    return combing.Bicombing(group=G, rule=rule, distance_fn=sigma._distance)


def _assert_matches_reference(sigma, sample):
    report = combing.check_quasi_geodesic(sigma, sample)
    lam, lam_witness, eps, eps_witness = _reference_constants(_segments(sigma, sample))
    assert (report.lam, report.epsilon) == (lam, eps)
    assert report.witnesses == {"lambda": lam_witness, "epsilon": eps_witness}
    return report


@pytest.mark.parametrize("group", sorted(ZOO_RADII))
def test_zoo_matches_reference(group):
    G = get_group(group)
    radius = ZOO_RADII[group]
    sigma = combing.shortlex_bicombing(G, radius)
    ident = G.model.identity
    sample = [(ident, g) for g in sigma.index.elements]
    assert _assert_matches_reference(sigma, sample).lam == 1
    # detour lines start one letter out and back, so they stay in B(radius - 1)
    inner = [(ident, g) for g, d in zip(sigma.index.elements, sigma.index.depth.tolist())
             if d < radius]
    report = _assert_matches_reference(_detour(sigma, G), inner)
    assert report.lam > 1 and report.epsilon > 0


def _segment_lists(max_span):
    segment = st.tuples(
        st.integers(1, max_span),
        st.integers(0, max_span),
    )
    return st.lists(segment, min_size=1, max_size=40).map(
        lambda pairs: [(span, d, i, 0, span) for i, (span, d) in enumerate(pairs)]
    )


@given(segments=_segment_lists(6))
@settings(max_examples=300, deadline=None)
def test_small_spans_match_reference(segments):
    # small values make ties between ratios and between slacks common
    assert combing._quasi_geodesic_constants(segments) == _reference_constants(segments)


@given(segments=_segment_lists(2 ** 70))
@settings(max_examples=200, deadline=None)
def test_large_spans_match_reference(segments):
    assert combing._quasi_geodesic_constants(segments) == _reference_constants(segments)


def test_ties_keep_the_first_witness():
    # d / span = 2 twice: the second segment does not strictly raise lambda,
    # and its first slack ties the first segment's at epsilon = 0
    segments = [(1, 2, 0, 0, 1), (2, 4, 1, 0, 2), (3, 0, 2, 0, 3)]
    assert combing._quasi_geodesic_constants(segments) == _reference_constants(segments)
    assert combing._quasi_geodesic_constants(segments)[1] == (0, 0, 1)


# acceptance criterion 5's radii
CRITERION5_RADII = {
    "braid3": 4, "bs12": 5, "free2": 5, "heis3": 5, "kleinfour": 3, "sl2z": 5, "z2": 6,
}


def _elements(idx, pairs):
    elements = idx.elements
    return [(elements[x], elements[y]) for x, y in pairs.tolist()]


def _element_segments(sigma, pairs):
    return _segments(sigma, _elements(sigma.index, pairs))


def _raises(measure):
    try:
        measure()
    except CapExceeded:
        return True
    return False


def _report_pairs(idx):
    return np.column_stack((np.zeros(len(idx), dtype=np.intp), np.arange(len(idx))))


def _seeded_pairs(idx, seed, count=200):
    """Seeded vertex pairs (x, y) with x != 1, some of whose lines leave
    the ball."""
    rng = random.Random(seed)
    return np.array([[rng.randrange(1, len(idx)), rng.randrange(len(idx))] for _ in range(count)],
                    dtype=np.intp)


class TestSegmentsOnRows:
    """The row path of ``check_quasi_geodesic`` measures the element loop's
    segments, and runs only where it can."""

    @pytest.mark.parametrize("name", sorted(CRITERION5_RADII))
    def test_every_zoo_ball_is_packed(self, name):
        G = get_group(name)
        assert G.model.batch_action() is not None
        idx = cayley.ball(G, CRITERION5_RADII[name])
        assert isinstance(idx._layers, cayley._PackedLayers)
        idx.graph_csr()
        assert isinstance(idx._layers, cayley._PackedLayers)

    @pytest.mark.parametrize("name", sorted(CRITERION5_RADII))
    def test_rows_give_the_element_loop_segments(self, name):
        sigma = combing.shortlex_bicombing(get_group(name), CRITERION5_RADII[name])
        idx = sigma.index
        seeded = _seeded_pairs(idx, name)
        inside = experiments._quotients_in_ball(idx, seeded[:, 0], seeded[:, 1])
        for pairs in (_report_pairs(idx), seeded[inside]):
            segments = combing._segments_on_rows(sigma, pairs)
            assert segments == _element_segments(sigma, pairs)
            assert (combing.check_quasi_geodesic(sigma, pairs).to_json_dict()
                    == combing.check_quasi_geodesic(sigma, _elements(idx, pairs)).to_json_dict())
        # B(3) is the whole of kleinfour; elsewhere some lines leave the ball
        assert inside.all() == (name == "kleinfour")

    @pytest.mark.parametrize("name", sorted(set(CRITERION5_RADII) - {"kleinfour"}))
    def test_a_line_leaving_the_ball_raises_at_the_same_pair(self, name):
        sigma = combing.shortlex_bicombing(get_group(name), CRITERION5_RADII[name])
        idx = sigma.index
        pairs = _seeded_pairs(idx, name, count=40)
        for pair in pairs:
            on_rows = _raises(lambda: combing._segments_on_rows(sigma, pair[None]))
            assert on_rows == _raises(lambda: _element_segments(sigma, pair[None]))
        assert _raises(lambda: _element_segments(sigma, pairs))
        with pytest.raises(CapExceeded, match=f"beyond the combing cap {sigma.cap}$"):
            combing.check_quasi_geodesic(sigma, pairs)

    def test_a_segment_leaving_the_ball_raises(self, monkeypatch):
        sigma = combing.shortlex_bicombing(get_group("heis3"), 5)
        pairs = _report_pairs(sigma.index)
        lookup = cayley.BallIndex.vertices_of
        calls = []

        def lost(self, rows):
            # the second lookup is the segments': one of them leaves
            found = lookup(self, rows)
            calls.append(len(rows))
            if len(calls) == 2:
                found[len(found) // 2] = -1
            return found

        monkeypatch.setattr(cayley.BallIndex, "vertices_of", lost)
        with pytest.raises(CapExceeded, match=f"beyond the combing cap {sigma.cap}$"):
            combing._segments_on_rows(sigma, pairs)
        assert calls[0] == len(pairs)

    def test_small_blocks_give_the_same_segments(self, monkeypatch):
        # free2's B(5) in blocks of 100 // 36 + 1 = 3 lines
        sigma = combing.shortlex_bicombing(get_group("free2"), 5)
        pairs = _report_pairs(sigma.index)
        whole = combing._segments_on_rows(sigma, pairs)
        monkeypatch.setattr(combing, "_SEGMENT_BLOCK", 100)
        assert combing._segments_on_rows(sigma, pairs) == whole == _element_segments(sigma, pairs)

    def test_a_proof_failing_in_a_later_block_runs_the_element_loop(self, monkeypatch):
        # free2's B(5) in blocks of 3 lines: u's product comes first, then
        # one product per block, and the second block's has no proof
        sigma = combing.shortlex_bicombing(get_group("free2"), 5)
        idx = sigma.index
        pairs = _report_pairs(idx)
        want_segments = _element_segments(sigma, pairs)
        want = combing.check_quasi_geodesic(sigma, _elements(idx, pairs)).to_json_dict()
        batch = idx.rows()[0]
        multiply, calls = batch.multiply, []

        def second_block_fails(A, B):
            calls.append(len(A))
            if len(calls) == 3:
                raise OverflowError("no proof")
            return multiply(A, B)

        measured = []
        constants = combing._quasi_geodesic_constants
        monkeypatch.setattr(combing, "_SEGMENT_BLOCK", 100)
        monkeypatch.setattr(batch, "multiply", second_block_fails)
        monkeypatch.setattr(combing, "_quasi_geodesic_constants",
                            lambda segments: measured.append(segments) or constants(segments))
        assert combing.check_quasi_geodesic(sigma, pairs).to_json_dict() == want
        assert calls[0] == len(pairs) and len(calls) == 3
        # the element loop measured every pair once: nothing of block 1 is kept
        assert measured == [want_segments]

    def test_products_without_a_proof_run_the_element_loop(self):
        # a's image has an entry of 2^62 - 1: B(1) is packed, and the inverse
        # of x = a has no int64 proof
        G = group_from_config({
            "kind": "matrix", "dim": 2, "alphabet": ["a", "b"],
            "marking": {"a": [["1", str(2 ** 62 - 1)], ["0", "1"]], "b": [["1", "0"], ["1", "1"]]},
        })
        sigma = combing.shortlex_bicombing(G, 1)
        report = _report_pairs(sigma.index)
        assert combing._segments_on_rows(sigma, report) is not None
        pairs = np.concatenate((report, report[:, ::-1]))
        assert isinstance(sigma.index._layers, cayley._PackedLayers)
        with pytest.raises(OverflowError):
            combing._segments_on_rows(sigma, pairs)
        report = combing.check_quasi_geodesic(sigma, pairs)
        assert (report.lam, report.epsilon) == (1, 0)
        assert report.to_json_dict() == combing.check_quasi_geodesic(
            sigma, _elements(sigma.index, pairs)).to_json_dict()

    def test_other_bicombings_and_unpacked_balls_run_the_element_loop(self):
        G = group_from_config({"kind": "braid", "strands": 3})
        sigma = combing.shortlex_bicombing(G, 3)
        pairs = _report_pairs(sigma.index)
        assert combing._segments_on_rows(sigma, pairs) is None
        assert combing.check_quasi_geodesic(sigma, pairs).lam == 1
        inner = combing.shortlex_bicombing(get_group("sl2z"), 4)
        other = combing.Bicombing(group=inner.group, rule=inner.line, distance_fn=inner._distance)
        other.index = inner.index
        assert combing._segments_on_rows(other, _report_pairs(inner.index)) is None
