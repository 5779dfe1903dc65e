"""The library takes no thread count and no growth-classifier tuning.

Enumeration runs on one thread, so ``threads`` changed nothing and is gone
from every library signature; only the CLI still accepts ``--threads``, and
ignores it.  The growth margin and the stability window are module constants.
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
