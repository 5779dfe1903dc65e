"""Byte-identity of the library's printed outputs.

Each case renders one output (a ball CSV, a combing report's constants
table and k2 witness, a distortion profile CSV, the klein-check tables,
the ``centralizer`` command's stdout) and
compares its sha256 digest with a pinned value.  A change that is meant to
leave every output as it was, such as a faster product or a new
enumeration loop, must keep these digests.  A change that alters an output
on purpose updates the digest and says which output changed and why.
The combing digests are checked once more on the numpy fallback kernel.

Print the current digests with ``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupgeo
from groupgeo import cayley, cli, distortion, experiments

BALL_RADIUS = 5
# acceptance criterion 5's combing radii
COMBING_RADII = {
    "braid3": 4, "bs12": 5, "free2": 5, "heis3": 5,
    "kleinfour": 3, "sl2z": 5, "z2": 6,
}
PROFILE_N_MAX = 12
KLEIN_RADIUS = 8
# the centralizer command's arguments: free2 as CSV, heis3 as JSON
CENTRALIZER_ARGS = {
    "free2": ["--radius", "8", "--element", "x y"],
    "heis3": ["--radius", "5", "--element", "a b a^-1 b^-1", "--format", "json"],
}

GOLDEN = {
    "ball:braid3": "c6ebcff72d3e89159a717775bcb3c0e6085ec321013e6b451687232920e70e5a",
    "ball:bs12": "2702371d1a282f55fec132df8e23a3f9706c19efdc6a3e9c9dbf98cb30d6b7d7",
    "ball:free2": "57a7d7892a1db6c32cb85bcad09cb50443660f729af00a058d6f4d751447e38b",
    "ball:heis3": "b48bb1d09ca6e88af3e756c3a42da99fdac999e6f9ecc3ddb27b326293f44c76",
    "ball:kleinfour": "3b31aaca3065cbc0b6b4a3ce512f398d62d4d5a8f7338e1de45161d43c521dce",
    "ball:sl2z": "a7d5c9a34c02c72091954a34a8601690639f7bdf476f3a24baad077ee700d74f",
    "ball:z2": "8962130209354fa6d212dce7429a0b9d195c27dbe752a4b5e259c49c2efb8d1f",
    "combing:braid3": "80055f6d0d6a622cac9ebce49e0a9fbce2a7e713a13d9063c333c60a35277408",
    "combing:bs12": "4d49eeb35d39835ad45f78b95dd5df4ef348d7730bf55f1b90029a9362c43222",
    "combing:free2": "b89cb85388bc4457b25ceff1031326db8738783ae1c4402e237a93ac0a47ecea",
    "combing:heis3": "ca7ace44c9e11e11934fcbd75aba9164fe2a000b8f2e212574ff5b58f7d20ad1",
    "combing:kleinfour": "7de62c13838e7d8b836a0dc0d7ab3a0b5bf86a2829182ea9b913fa1b425b2a76",
    "combing:sl2z": "c22d433ac5a63fca923ccd4eae27a3f573d0a1adc8bbfe5adb36792545965164",
    "combing:z2": "cb3fc4c59dbe3559bf58940b6890afb84daa62e51dca6978ad0cb25d48763a4c",
    "profile:center-in-heis3": "b92bf4d281fd0506d81b9c857d915affbdf7761720528828d83f86d51da09fa7",
    "profile:a-in-bs12": "c756f14218f1f3f4e32cc69c7e39f59751fbd3246d50145bbf27e772c7087d1c",
    "klein-check": "0be837c4abd9ff35d559a71bd0376caced07055741acbdbcb0efc3c616b39e53",
    "centralizer:free2": "988d362ca7cb8fcc040ad903627f62a582552eb32afab95bf18e7a3a8e91cfa3",
    "centralizer:heis3": "d8384278f89241d68b7079c57f0e7f59c02f3febe0f4e8454bec71abf95b7341",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _ball_text(group: str) -> str:
    buf = io.StringIO()
    cayley.ball(experiments.get_group(group), BALL_RADIUS).write_csv(buf)
    return buf.getvalue()


def _combing_text(group: str) -> str:
    report = experiments.run_combing_report(group, COMBING_RADII[group])
    return report.tables["constants"] + json.dumps(report.witnesses["k2_pair"])


def _profile_text(case_name: str) -> str:
    case = next(c for c in experiments._suite_cases() if c["name"] == case_name)
    G = experiments.get_group(case["group"])
    profile = distortion.distortion_profile(
        G, case["subgroup"](G), PROFILE_N_MAX, subgroup_name=case_name
    )
    buf = io.StringIO()
    profile.write_csv(buf)
    return buf.getvalue()


def _klein_text() -> str:
    report = experiments.run_klein_check(KLEIN_RADIUS)
    return json.dumps(report.tables, sort_keys=True)


def _centralizer_text(group: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["centralizer", "--group", group, *CENTRALIZER_ARGS[group]]) == 0
    return buf.getvalue()


def _render(name: str) -> str:
    kind, _, arg = name.partition(":")
    if kind == "ball":
        return _ball_text(arg)
    if kind == "combing":
        return _combing_text(arg)
    if kind == "profile":
        return _profile_text(arg)
    if kind == "centralizer":
        return _centralizer_text(arg)
    return _klein_text()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(name):
    assert _digest(_render(name)) == GOLDEN[name]


def test_combing_digests_on_the_fallback_kernel():
    """The combing reports run the all-pairs BFS; render them again in a
    child process that selects the numpy fallback."""
    paths = [str(Path(groupgeo.__file__).parents[1]), str(Path(__file__).parent)]
    code = (
        "import json, sys; sys.path[:0] = json.loads(sys.argv[1]);"
        "import test_golden_outputs as g; from groupgeo._kernel import HAVE_COMPILED;"
        "print(json.dumps([HAVE_COMPILED, {n: g._digest(g._render(n))"
        " for n in g.GOLDEN if n.startswith('combing:')}]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(paths)],
        env={**os.environ, "GROUPGEO_PURE_PYTHON": "1"},
        capture_output=True, text=True, check=True,
    )
    compiled, digests = json.loads(out.stdout)
    assert compiled is False
    assert digests == {n: d for n, d in GOLDEN.items() if n.startswith("combing:")}


if __name__ == "__main__":
    for name in GOLDEN:
        print(f'    "{name}": "{_digest(_render(name))}",')
