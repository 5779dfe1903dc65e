"""The library takes no thread count and no growth-classifier tuning.

Enumeration runs on one thread, so ``threads`` changed nothing and is gone
from every library signature; only the CLI still accepts ``--threads``, and
ignores it.  The growth margin and the stability window are module constants.
The combing checks that read a shortlex bicombing's ball enumerate none, so
they take no element cap.
"""

import inspect

import pytest

from groupgeo import cayley, combing, distortion, experiments

ENUMERATING = [
    cayley.ball,
    cayley.growth_series,
    combing.ShortlexBicombing.__init__,
    combing.shortlex_bicombing,
    combing.check_bounded,
    combing.quasiconvexity_constant,
    combing.centralizer_ball,
    combing.centralizer_quasiconvexity_report,
    distortion.distortion_profile,
    experiments.run_klein_check,
    experiments.run_distortion_suite,
    experiments.run_combing_report,
]


@pytest.mark.parametrize("fn", ENUMERATING, ids=lambda fn: fn.__qualname__)
def test_takes_no_thread_count(fn):
    assert "threads" not in inspect.signature(fn).parameters


@pytest.mark.parametrize("fn", [distortion.classify_growth, distortion.undistorted_check])
def test_verdicts_take_only_the_profile(fn):
    assert list(inspect.signature(fn).parameters) == ["p"]


@pytest.mark.parametrize("fn", [
    combing.check_bounded,
    combing.quasiconvexity_constant,
    combing.centralizer_quasiconvexity_report,
], ids=lambda fn: fn.__qualname__)
def test_ball_reading_checks_take_no_element_cap(fn):
    assert "max_elements" not in inspect.signature(fn).parameters
