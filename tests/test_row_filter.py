"""Packed-row screens for subgroup member scans.

A subgroup oracle's ``row_filter`` is a necessary condition for ``contains``
on the ball's int64 rows; ``BallIndex.select`` decodes only the rows that
pass it.  These tests check the superset property, that profiles and
quasi-convexity constants are the same with the screen on and off, that
rejected rows are never decoded, and that unpacked balls ignore it.
"""

import numpy as np
import pytest

from groupgeo import cayley, combing, distortion
from groupgeo.experiments import (
    _bs12_axis_exponent,
    _bs12_axis_rows,
    _heis_center_exponent,
    _heis_center_rows,
    _suite_cases,
    get_group,
    group_from_config,
)


def _suite_subgroup(name):
    case = next(c for c in _suite_cases() if c["name"] == name)
    G = get_group(case["group"])
    return G, case["subgroup"](G), case["n_max"]


def _unfiltered(G, H):
    return distortion.CyclicExact(G, H.generator, H.exponent_of)


def _count_unpacked_rows(G, monkeypatch):
    """Wrap ``unpack`` of G's batch action class; the list holds the row
    count of each call."""
    calls = []
    cls = type(G.model.batch_action())
    unpack = cls.unpack

    def counted(self, rows):
        calls.append(len(rows))
        return unpack(self, rows)

    monkeypatch.setattr(cls, "unpack", counted)
    return calls


SCREENS = {
    "bs12": (_bs12_axis_rows, _bs12_axis_exponent),
    "heis3": (_heis_center_rows, _heis_center_exponent),
}


@pytest.mark.parametrize("group", sorted(SCREENS))
@pytest.mark.parametrize("radius", [0, 1, 4, 7])
def test_filter_passes_every_member(group, radius):
    G = get_group(group)
    row_filter, exponent_of = SCREENS[group]
    idx = cayley.ball(G, radius)
    mask = row_filter(idx.rows()[1])
    members = [v for v, g in enumerate(idx.elements) if exponent_of(g) is not None]
    assert members
    assert mask[members].all()


@pytest.mark.parametrize("name, n", [("a-in-bs12", 12), ("center-in-heis3", 16)])
def test_profile_same_with_and_without_filter(name, n):
    G, H, _ = _suite_subgroup(name)
    assert H.row_filter is not None
    plain = _unfiltered(G, H)
    assert plain.row_filter is None
    screened = distortion.distortion_profile(G, H, n)
    full = distortion.distortion_profile(G, plain, n)
    # entry equality covers delta, exact, witness_key, witness_word and dH
    assert screened.entries == full.entries


@pytest.mark.parametrize("name, members", [("a-in-bs12", 457), ("center-in-heis3", 73)])
def test_profile_decodes_only_rows_that_pass(name, members, monkeypatch):
    G, H, n_max = _suite_subgroup(name)
    calls = _count_unpacked_rows(G, monkeypatch)
    distortion.distortion_profile(G, H, n_max)
    idx = cayley.ball(G, n_max)
    passing = int(np.count_nonzero(H.row_filter(idx.rows()[1])))
    assert passing == members
    assert len(idx) > 100 * members
    assert calls == [members]


def test_quasiconvexity_scan_uses_the_filter(monkeypatch):
    G, H, _ = _suite_subgroup("center-in-heis3")
    sigma = combing.shortlex_bicombing(G, 4)
    calls = _count_unpacked_rows(G, monkeypatch)
    screened = combing.quasiconvexity_constant(sigma, H, 4)
    passing = int(np.count_nonzero(H.row_filter(sigma.index.rows()[1])))
    assert calls == [passing]
    full = combing.quasiconvexity_constant(sigma, _unfiltered(G, H), 4)
    assert (screened.k, screened.witnesses) == (full.k, full.witnesses)


def _reject_all(rows):
    raise AssertionError("an unpacked ball must not call the row filter")


UNPACKED_CONFIGS = {
    # braid3's zoo marking is packed; a braid config keeps Garside normal forms
    "braid3": {"kind": "braid", "strands": 3},
    # a product has a batch only when every factor has one
    "product_braid": {"kind": "product", "factors": [
        {"kind": "free", "alphabet": ["x"]}, {"kind": "braid", "strands": 3},
    ]},
}


@pytest.mark.parametrize("group", sorted(UNPACKED_CONFIGS))
def test_unpacked_ball_ignores_filter(group):
    G = group_from_config(UNPACKED_CONFIGS[group])
    idx = cayley.ball(G, 3)
    assert G.model.batch_action() is None
    vertices, elements = idx.select(_reject_all)
    assert list(vertices) == list(range(len(idx)))
    assert elements is idx.elements


def test_fallen_back_ball_ignores_filter():
    # a's image has an entry of 2^62 - 1: layer 1 is packed, layer 2 has no
    # int64 proof and the ball moves to Python integers
    G = group_from_config({
        "kind": "matrix", "dim": 2, "alphabet": ["a", "b"],
        "marking": {"a": [["1", str(2 ** 62 - 1)], ["0", "1"]], "b": [["1", "0"], ["1", "1"]]},
    })
    assert G.model.batch_action() is not None
    idx = cayley.ball(G, 2)
    assert isinstance(idx._layers, cayley._ElementLayers)
    vertices, elements = idx.select(_reject_all)
    assert list(vertices) == list(range(len(idx)))
    assert elements is idx.elements


def test_filter_that_passes_nothing(monkeypatch):
    G = get_group("heis3")
    idx = cayley.ball(G, 5)
    calls = _count_unpacked_rows(G, monkeypatch)
    vertices, elements = idx.select(lambda rows: np.zeros(len(rows), dtype=bool))
    assert (list(vertices), list(elements)) == ([], [])
    assert calls == [0]
