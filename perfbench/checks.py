"""Answers the benchmark expects, computed apart from groupgeo.

Every function here takes plain data read from groupgeo's outputs (report
fields, CSV tables, distance matrices, ball elements) and returns a list of
problems, empty when the output is right.  Nothing is compared with a stored
copy of earlier output: the expected values are closed forms, brute-force
numpy evaluations, scipy shortest paths on a graph built here, or words
re-evaluated with the integer arithmetic below.  This module does not import
groupgeo.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

import numpy as np

# --------------------------------------------------------------------------
# words and their evaluation in each group, written out here
# --------------------------------------------------------------------------


def parse_word(text: str) -> list[tuple[str, int]]:
    """groupgeo's word serialization: space-separated letters, ``^-1`` for an
    inverse, ``1`` for the empty word."""
    text = text.strip()
    if text in ("", "1"):
        return []
    out = []
    for tok in text.split():
        if tok.endswith("^-1"):
            out.append((tok[:-3], -1))
        else:
            out.append((tok, 1))
    return out


def z2_point(word) -> tuple[int, int]:
    """Z^2 = <x, y | [x, y]> as integer coordinates."""
    x = y = 0
    for name, sign in word:
        if name == "x":
            x += sign
        elif name == "y":
            y += sign
        else:
            raise ValueError(f"letter {name!r} is not in z2")
    return x, y


def free_reduce(word) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for name, sign in word:
        if out and out[-1] == (name, -sign):
            out.pop()
        else:
            out.append((name, sign))
    return out


def free_inverse(word) -> list[tuple[str, int]]:
    return [(name, -sign) for name, sign in reversed(word)]


def bs12_map(word) -> tuple[Fraction, Fraction]:
    """BS(1,2) = <a, t | t a t^-1 = a^2> as affine maps v -> s*v + b, with
    a: v -> v + 1 and t: v -> 2v.  A word is the composition of its letters,
    the rightmost applied first; that is the order in which the relator
    t a t^-1 = a^2 holds."""
    letters = {
        ("a", 1): (Fraction(1), Fraction(1)),
        ("a", -1): (Fraction(1), Fraction(-1)),
        ("t", 1): (Fraction(2), Fraction(0)),
        ("t", -1): (Fraction(1, 2), Fraction(0)),
    }
    s, b = Fraction(1), Fraction(0)
    for letter in word:
        s2, b2 = letters[letter]
        # (f o g)(v) = s*(s2*v + b2) + b
        s, b = s * s2, s * b2 + b
    return s, b


def heis3_matrix(word) -> list[list[int]]:
    """The integral Heisenberg group: a word is the left-to-right product of
    unitriangular 3x3 matrices, a = I + E12 and b = I + E23."""
    letters = {
        ("a", 1): ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
        ("a", -1): ((1, -1, 0), (0, 1, 0), (0, 0, 1)),
        ("b", 1): ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
        ("b", -1): ((1, 0, 0), (0, 1, -1), (0, 0, 1)),
    }
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for letter in word:
        g = letters[letter]
        m = [[sum(m[i][k] * g[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return m


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# --------------------------------------------------------------------------
# bounded-defect: k2, its witness and the all-pairs distance matrix
# --------------------------------------------------------------------------


def z2_k2_closed_form(radius: int) -> tuple[int, tuple[str, str]]:
    """k2 of the shortlex bicombing of Z^2 over common-basepoint line pairs
    in the ball of even radius R: R/2, first reached by the lines to y^(R/2)
    and to x^(R/2) y^(R/2)."""
    if radius % 2:
        raise ValueError("the closed form holds at even radius")
    h = radius // 2
    ys = " ".join(["y"] * h) or "1"
    xy = " ".join(["x"] * h + ["y"] * h) or "1"
    return h, (ys, xy)


def _z2_shortlex_word(x: int, y: int) -> list[tuple[str, int]]:
    # letter order x < x^-1 < y < y^-1: the shortlex-least geodesic spells
    # the whole x part before the y part
    return [("x", 1 if x > 0 else -1)] * abs(x) + [("y", 1 if y > 0 else -1)] * abs(y)


def _letter_rank(letter) -> int:
    name, sign = letter
    return 2 * ("x", "y").index(name) + (0 if sign > 0 else 1)


def z2_k2_brute_force(radius: int) -> tuple[int, tuple[str, str]]:
    """The same constant by brute force: every pair of shortlex geodesics
    from the identity in the radius-R ball of Z^2, distances by the l1 norm,
    the least pair taken in shortlex order of the line endpoints."""
    points = [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if abs(x) + abs(y) <= radius
    ]
    words = [_z2_shortlex_word(x, y) for x, y in points]
    order = sorted(range(len(points)), key=lambda i: (len(words[i]), [_letter_rank(l) for l in words[i]]))
    words = [words[i] for i in order]
    n = len(words)
    # pos[a, t] = point of line a at time t, held at the endpoint after it ends
    pos = np.zeros((n, radius + 1, 2), dtype=np.int64)
    for a, w in enumerate(words):
        x = y = 0
        for t in range(radius + 1):
            if 0 < t <= len(w):
                name, sign = w[t - 1]
                if name == "x":
                    x += sign
                else:
                    y += sign
            pos[a, t] = (x, y)
    apart = np.abs(pos[:, None, :, :] - pos[None, :, :, :]).sum(axis=3).max(axis=2)
    ends = np.abs(pos[:, None, -1, :] - pos[None, :, -1, :]).sum(axis=2)
    defect = apart - ends
    flat = int(defect.argmax())
    a, b = divmod(flat, n)

    def fmt(w):
        return " ".join(name + ("^-1" if s < 0 else "") for name, s in w) or "1"

    return int(defect.flat[flat]), (fmt(words[a]), fmt(words[b]))


def check_z2_bounded(radius: int, k2, witness) -> list[str]:
    want_k2, want_witness = z2_k2_closed_form(radius)
    problems = []
    if k2 != want_k2:
        problems.append(f"z2 r={radius}: k2 = {k2}, expected {want_k2}")
    if tuple(witness) != want_witness:
        problems.append(f"z2 r={radius}: k2 witness {tuple(witness)}, expected {want_witness}")
    return problems


def check_free2_bounded(radius: int, k2, witness) -> list[str]:
    # geodesics from a common point of a tree never separate by more than
    # their endpoints do, so the defect is 0 and the least pair is (1, 1)
    problems = []
    if k2 != 0:
        problems.append(f"free2 r={radius}: k2 = {k2}, expected 0")
    if tuple(witness) != ("1", "1"):
        problems.append(f"free2 r={radius}: k2 witness {tuple(witness)}, expected ('1', '1')")
    return problems


def z2_ball_size(radius: int) -> int:
    return 2 * radius * radius + 2 * radius + 1


def free2_ball_size(radius: int) -> int:
    return 2 * 3 ** radius - 1


def z2_coords(elements) -> np.ndarray:
    """(x, y) of each z2 element, read from groupgeo's representation: a pair
    of rank-1 free words, code 0 for the generator and 1 for its inverse."""
    return np.array(
        [[sum(1 if c == 0 else -1 for c in part) for part in g] for g in elements],
        dtype=np.int64,
    )


def check_z2_distances(radius: int, coords: np.ndarray, dist: np.ndarray, chunk: int = 256) -> list[str]:
    """``coords[i]`` is the (x, y) point of vertex i, read from the ball's
    elements; the Cayley-graph distance inside the ball is the l1 distance.
    Compared in row chunks so that the check holds little memory."""
    n = len(coords)
    problems = []
    if n != z2_ball_size(radius):
        problems.append(f"z2 r={radius}: {n} vertices, expected {z2_ball_size(radius)}")
    if len({tuple(p) for p in coords.tolist()}) != n or int(np.abs(coords).sum(axis=1).max()) > radius:
        problems.append(f"z2 r={radius}: vertices are not the distinct points of the l1 ball")
    if dist.shape != (n, n):
        return problems + [f"z2 r={radius}: distance matrix shape {dist.shape}, expected {(n, n)}"]
    for start in range(0, n, chunk):
        want = np.abs(coords[start:start + chunk, None, :] - coords[None, :, :]).sum(axis=2)
        bad = np.nonzero((dist[start:start + chunk] != want).any(axis=1))[0]
        if len(bad):
            problems.append(f"z2 r={radius}: distance row {start + int(bad[0])} differs from the l1 distance")
            break
    return problems


def check_free2_vertices(radius: int, words: list[tuple]) -> list[str]:
    """``words[i]`` is vertex i as a tuple of letter codes (2g for a
    generator, 2g+1 for its inverse): every reduced word of length <= radius,
    each once."""
    problems = []
    if len(words) != free2_ball_size(radius) or len(set(words)) != len(words):
        problems.append(f"free2 r={radius}: {len(words)} vertices, expected {free2_ball_size(radius)} distinct")
    for w in words:
        if len(w) > radius or any(c not in (0, 1, 2, 3) for c in w) or any(a == b ^ 1 for a, b in zip(w, w[1:])):
            problems.append(f"free2 r={radius}: vertex {w} is not a reduced word in the ball")
            break
    return problems


def check_free2_rows(words: list[tuple], rows: np.ndarray, dist_rows: np.ndarray) -> list[str]:
    """Rows ``rows`` of the distance matrix against scipy's unweighted
    shortest paths on the ball's tree, built here from the words: each
    nonempty word is joined to the word without its last letter."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    index = {w: i for i, w in enumerate(words)}
    child = [i for i, w in enumerate(words) if w]
    parent = [index[words[i][:-1]] for i in child]
    n = len(words)
    graph = coo_matrix((np.ones(len(child)), (child, parent)), shape=(n, n)).tocsr()
    want = shortest_path(graph, directed=False, unweighted=True, indices=rows)
    bad = np.nonzero((dist_rows.astype(np.float64) != want).any(axis=1))[0]
    if len(bad):
        return [f"free2: distance row {int(rows[bad[0]])} differs from scipy shortest_path"]
    return []


# --------------------------------------------------------------------------
# distortion-suite
# --------------------------------------------------------------------------

# the known growth of each built-in subgroup's distortion
DISTORTION_VERDICTS = {
    "z-in-z2": "linear",
    "a-in-bs12": "exponential",
    "center-in-heis3": "polynomial(2)",
    "diagonal-in-z2": "linear",
    "self-free2": "linear",
}


def _subgroup_exponent(case: str, word) -> int | None:
    """|m| when the word evaluates to the m-th power of the subgroup's
    generator (for self-free2: the reduced length), else None."""
    if case == "z-in-z2":
        x, y = z2_point(word)
        return abs(x) if y == 0 else None
    if case == "diagonal-in-z2":
        x, y = z2_point(word)
        return abs(x) if x == y else None
    if case == "a-in-bs12":
        s, b = bs12_map(word)
        return abs(int(b)) if s == 1 and b.denominator == 1 else None
    if case == "center-in-heis3":
        m = heis3_matrix(word)
        central = m[0][1] == 0 and m[1][2] == 0
        return abs(m[0][2]) if central else None
    if case == "self-free2":
        return len(free_reduce(word))
    raise ValueError(f"unknown distortion case {case!r}")


def check_distortion_case(case: str, observed: str, profile_csv: str) -> list[str]:
    """Verdict, closed forms or lower bounds for delta, monotonicity, and a
    re-evaluation of every witness word."""
    problems = []
    if observed != DISTORTION_VERDICTS[case]:
        problems.append(f"{case}: verdict {observed!r}, expected {DISTORTION_VERDICTS[case]!r}")
    rows = _csv_rows(profile_csv)
    if [int(r["n"]) for r in rows] != list(range(1, len(rows) + 1)) or len(rows) < 4:
        return problems + [f"{case}: profile rows are not n = 1..n_max"]
    delta = {int(r["n"]): int(r["delta"]) for r in rows}
    if any(r["exact"] != "exact" for r in rows):
        problems.append(f"{case}: a profile entry is flagged as a lower bound")
    if any(delta[n + 1] < delta[n] for n in range(1, len(rows))):
        problems.append(f"{case}: delta decreases")
    for n, d in delta.items():
        if case in ("z-in-z2", "self-free2") and d != n:
            problems.append(f"{case}: delta({n}) = {d}, expected {n}")
        if case == "diagonal-in-z2" and d != n // 2:
            problems.append(f"{case}: delta({n}) = {d}, expected {n // 2}")
        # a^(2^k) = t^k a t^-k has length 2k + 1
        if case == "a-in-bs12" and n % 2 and d < 2 ** ((n - 1) // 2):
            problems.append(f"{case}: delta({n}) = {d} < 2^{(n - 1) // 2}")
        # [a^k, b^k] = z^(k^2) has length 4k
        if case == "center-in-heis3" and n % 4 == 0 and d < (n // 4) ** 2:
            problems.append(f"{case}: delta({n}) = {d} < {(n // 4) ** 2}")
    for r in rows:
        n, d = int(r["n"]), int(r["delta"])
        word = parse_word(r["witness_word"])
        if len(word) > n:
            problems.append(f"{case}: witness of delta({n}) has {len(word)} letters")
        if _subgroup_exponent(case, word) != d or int(r["dH"]) != d:
            problems.append(f"{case}: witness {r['witness_word']!r} does not evaluate to an element of length {d} in the subgroup")
    return problems


# --------------------------------------------------------------------------
# combing-zoo
# --------------------------------------------------------------------------

# closed-form ball sizes, where the growth series is elementary
BALL_SIZE = {
    "free2": free2_ball_size,
    "z2": z2_ball_size,
    "kleinfour": lambda radius: 4,
}


def check_combing_report(group: str, radius: int, observed: str, constants_csv: str) -> list[str]:
    """Shortlex lines are geodesics, so lambda = 1 and epsilon = 0, and the
    bicombing is equivariant by construction; one line per ball element."""
    values = {r["constant"]: r["value"] for r in _csv_rows(constants_csv)}
    problems = []
    if observed != "geodesic_equivariant":
        problems.append(f"combing {group}: verdict {observed!r}")
    for key, want in (("lambda", "1"), ("epsilon", "0"), ("equivariant", "True")):
        if values.get(key) != want:
            problems.append(f"combing {group}: {key} = {values.get(key)!r}, expected {want!r}")
    if group in BALL_SIZE and values.get("lines") != str(BALL_SIZE[group](radius)):
        problems.append(f"combing {group}: {values.get('lines')} lines, expected {BALL_SIZE[group](radius)}")
    if group == "free2" and values.get("k2") != "0":
        problems.append(f"combing free2: k2 = {values.get('k2')}, expected 0")
    if group == "z2" and radius % 2 == 0 and values.get("k2") != str(radius // 2):
        problems.append(f"combing z2: k2 = {values.get('k2')}, expected {radius // 2}")
    return problems


def check_free2_centralizer(radius: int, k, psi_max_length: int, conjugators: list[dict]) -> list[str]:
    """Centralizer of a = x y in free2 over the radius-R ball: its members are
    the powers (x y)^j with 2|j| <= R; the combing line to (x y)^j leaves the
    subgroup by one letter at odd times, so k = 1; and every conjugator psi,
    re-evaluated here, sends gamma = v^-1 a v back to a with |psi| <= 1."""
    a = [("x", 1), ("y", 1)]
    problems = []
    if k != 1:
        problems.append(f"centralizer: k = {k}, expected 1")
    if psi_max_length > 1:
        problems.append(f"centralizer: psi_max_length = {psi_max_length}, expected <= 1")
    members = {}
    for row in conjugators:
        members.setdefault(row["member"], []).append(int(row["t"]))
    powers = {}
    for j in range(-(radius // 2), radius // 2 + 1):
        w = a * j if j >= 0 else free_inverse(a) * -j
        powers[" ".join(n + ("^-1" if s < 0 else "") for n, s in w) or "1"] = len(w)
    if set(members) != set(powers):
        problems.append(f"centralizer: members {sorted(members)}, expected the powers of x y")
    for member, times in members.items():
        if member in powers and sorted(times) != list(range(powers[member] + 1)):
            problems.append(f"centralizer: member {member!r} has times {sorted(times)}")
    for row in conjugators:
        v = parse_word(row["member"])[: int(row["t"])]
        gamma = free_inverse(v) + a + v
        psi = parse_word(row["psi"])
        if len(psi) > 1 or free_reduce(psi + gamma + free_inverse(psi)) != a:
            problems.append(f"centralizer: psi {row['psi']!r} does not conjugate gamma at {row['member']!r}, t={row['t']} back to x y")
            break
    return problems
