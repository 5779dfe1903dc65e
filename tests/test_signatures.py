"""The library takes no thread count and no growth-classifier tuning.

Enumeration runs on one thread, so ``threads`` changed nothing and is gone
from every library signature; only the CLI still accepts ``--threads``, and
ignores it.  The growth margin and the stability window are module constants.
The element cap is set where the ball is built: ``cayley.ball`` and the four
entry points that the CLI's ``--max-elements`` reaches take it, and every
callable that would only hand it on to ``ball`` does not.  A caller that
wants a capped bicombing or conjugator search passes a capped ball as
``index``.  The combing checks that read a shortlex bicombing's ball
enumerate none, so they take no element cap either.
"""

import inspect

import pytest

from groupgeo import cayley, combing, distortion, experiments, groups

ENUMERATING = [
    cayley.ball,
    cayley.growth_series,
    combing.ShortlexBicombing.__init__,
    combing.shortlex_bicombing,
    combing.check_bounded,
    combing.quasiconvexity_constant,
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


@pytest.mark.parametrize("fn", [
    cayley.ball,
    distortion.distortion_profile,
    experiments.run_klein_check,
    experiments.run_distortion_suite,
    experiments.run_combing_report,
], ids=lambda fn: fn.__qualname__)
def test_cap_is_set_where_the_ball_is_built(fn):
    assert "max_elements" in inspect.signature(fn).parameters


@pytest.mark.parametrize("fn", [
    cayley.word_length_of,
    cayley.distance,
    cayley.geodesic_shortlex,
    cayley.growth_series,
    combing.ShortlexBicombing.__init__,
    combing.shortlex_bicombing,
    combing.conjugator_search,
    combing._ball_of,
    distortion.HomImage.__init__,
    distortion.EnumeratedWithCap.__init__,
    groups.injectivity_on_ball,
], ids=lambda fn: fn.__qualname__)
def test_forwarders_take_no_element_cap(fn):
    assert "max_elements" not in inspect.signature(fn).parameters
