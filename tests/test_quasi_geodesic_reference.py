"""Quasi-geodesic constants by integer comparison against the Fraction loops.

``_reference_constants`` is the loop pair ``check_quasi_geodesic`` ran
before its constants were kept as integer pairs: one ``Fraction`` per ratio
and per slack.  The library must give the same lambda, epsilon and
witnesses on every segment list.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupgeo import combing
from groupgeo.experiments import get_group

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
