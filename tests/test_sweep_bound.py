"""The n+1 sweep bound is attained: instances on which separate-box spends
exactly n+1 containment sweeps, and whose certificates verify.

Every scalar is k/12; each instance is listed by its numerators k.  The
instances were found by a seeded hill-climb with n generators: it moves one
bound or one generator coordinate and keeps the move when the sweep count
does not drop (for the hemispace instances, the sweep count plus one half
when the outcome is hemispace).
"""
import json

import pytest

from maxminsep.cli import main
from maxminsep.oracle import MAX_GRID_POINTS

from test_cli import write_instance

# (lower, upper, generators, stages of the trace)
SEMISPACE_AT_N_PLUS_1 = [
    ([3, 5], [11, 9], [[1, 3], [9, 1]], [1, 3, 3]),
    ([6, 4, 6], [7, 10, 6], [[0, 1, 3], [0, 8, 1], [2, 2, 9]], [1, 3, 3, 3]),
    (
        [8, 7, 7, 5],
        [8, 7, 10, 6],
        [[5, 9, 10, 2], [7, 11, 10, 9], [1, 0, 10, 11], [1, 1, 6, 3]],
        [1, 3, 3, 3, 3],
    ),
    (
        [4, 6, 6, 9, 5],
        [8, 10, 11, 9, 5],
        [[3, 6, 3, 8, 6], [3, 8, 0, 3, 11], [2, 5, 5, 2, 0], [11, 4, 0, 11, 11], [1, 10, 12, 3, 4]],
        [1, 3, 3, 3, 3, 3],
    ),
    (
        [6, 3, 11, 6, 4, 5],
        [10, 6, 11, 8, 11, 6],
        [
            [1, 5, 4, 8, 12, 12], [6, 9, 5, 9, 7, 3], [6, 6, 2, 9, 1, 3],
            [3, 1, 7, 2, 0, 1], [8, 6, 8, 2, 5, 7], [5, 1, 6, 9, 9, 11],
        ],
        [1, 3, 3, 3, 3, 3, 3],
    ),
    (
        [6, 11, 3, 6, 9, 5, 9],
        [9, 11, 6, 11, 11, 8, 10],
        [
            [7, 12, 3, 10, 10, 12, 10], [4, 6, 0, 0, 7, 3, 8], [5, 3, 5, 7, 1, 12, 2],
            [3, 10, 6, 0, 3, 10, 12], [2, 9, 3, 9, 9, 3, 5], [1, 1, 3, 9, 6, 12, 4],
            [0, 2, 4, 3, 10, 2, 10],
        ],
        [1, 3, 3, 3, 3, 3, 3, 3],
    ),
    (
        [4, 11, 8, 9, 10, 6, 8, 6],
        [9, 11, 9, 9, 10, 11, 11, 11],
        [
            [10, 2, 6, 7, 2, 3, 2, 5], [2, 2, 1, 8, 3, 3, 2, 1], [11, 6, 9, 9, 8, 5, 4, 3],
            [2, 7, 12, 6, 12, 10, 5, 5], [10, 2, 7, 1, 10, 3, 12, 11], [4, 1, 11, 8, 5, 11, 8, 4],
            [12, 5, 3, 0, 9, 0, 6, 3], [8, 3, 5, 3, 12, 2, 7, 4],
        ],
        [1, 3, 3, 3, 3, 3, 3, 3, 3],
    ),
]

# the hemispace fallback's own sweep is the (n+1)-th
HEMISPACE_AT_N_PLUS_1 = [
    ([7, 4], [9, 12], [[12, 0], [12, 10]], [2, 3, 4]),
    ([4, 5, 6], [10, 12, 6], [[1, 0, 10], [0, 7, 12], [11, 5, 1]], [2, 3, 3, 4]),
    (
        [8, 6, 8, 5],
        [10, 6, 9, 12],
        [[11, 0, 5, 4], [10, 11, 4, 4], [4, 10, 1, 6], [4, 3, 12, 8]],
        [2, 3, 3, 3, 4],
    ),
    (
        [5, 7, 5, 6, 9],
        [10, 12, 5, 12, 9],
        [[5, 12, 7, 5, 10], [4, 5, 4, 5, 10], [4, 2, 2, 9, 11], [5, 7, 2, 5, 10], [9, 12, 10, 7, 7]],
        [2, 3, 3, 3, 3, 4],
    ),
    (
        [4, 6, 7, 3, 5, 8],
        [10, 8, 7, 11, 12, 9],
        [
            [4, 6, 10, 7, 7, 11], [3, 3, 9, 0, 2, 12], [2, 1, 6, 1, 2, 11],
            [7, 10, 7, 2, 7, 3], [5, 10, 9, 5, 4, 2], [3, 3, 5, 12, 7, 1],
        ],
        [2, 3, 3, 3, 3, 3, 4],
    ),
    (
        [6, 8, 8, 4, 6, 4, 5],
        [12, 8, 8, 5, 8, 6, 10],
        [
            [7, 4, 9, 0, 5, 1, 9], [10, 1, 11, 5, 12, 2, 3], [2, 4, 6, 7, 12, 2, 11],
            [3, 9, 7, 2, 5, 3, 2], [1, 6, 11, 12, 5, 10, 12], [4, 1, 10, 9, 5, 3, 11],
            [1, 11, 8, 11, 12, 2, 11],
        ],
        [2, 3, 3, 3, 3, 3, 3, 4],
    ),
    (
        [6, 7, 2, 5, 6, 5, 5, 1],
        [7, 7, 5, 7, 6, 12, 10, 8],
        [
            [5, 9, 0, 3, 5, 2, 3, 0], [4, 11, 6, 8, 3, 7, 4, 7], [3, 6, 0, 5, 7, 4, 10, 7],
            [9, 12, 4, 9, 5, 4, 5, 0], [6, 2, 6, 3, 11, 12, 7, 0], [12, 5, 5, 7, 9, 10, 11, 5],
            [8, 7, 0, 11, 8, 6, 6, 3], [7, 8, 12, 6, 0, 2, 7, 7],
        ],
        [2, 3, 3, 3, 3, 3, 3, 3, 4],
    ),
]


def twelfths(ks):
    return [f"{k}/12" for k in ks]


def instance(lower, upper, gens):
    """The instance at the finest grid of denominator at most 12 that the
    referee's guard admits in its dimension."""
    n = len(lower)
    grid = max(d for d in range(1, 13) if (d + 1) ** n <= MAX_GRID_POINTS)
    return {
        "dimension": n,
        "box": {"lower": twelfths(lower), "upper": twelfths(upper)},
        "sets": {"C": [twelfths(v) for v in gens]},
        "options": {"grid": grid},
    }


def separate_and_verify(tmp_path, capsys, data, *extra):
    cert_path = tmp_path / "cert.json"
    assert main(["separate-box", "-i", write_instance(tmp_path, data), "-o", str(cert_path), *extra]) == 0
    capsys.readouterr()
    assert main(["verify", "-i", str(cert_path)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    return json.loads(cert_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("extra", [(), ("--no-fallback",)])
@pytest.mark.parametrize(
    "lower, upper, gens, stages", SEMISPACE_AT_N_PLUS_1, ids=[f"n{len(case[0])}" for case in SEMISPACE_AT_N_PLUS_1]
)
def test_semispace_spends_n_plus_1_sweeps(tmp_path, capsys, lower, upper, gens, stages, extra):
    cert = separate_and_verify(tmp_path, capsys, instance(lower, upper, gens), *extra)
    n = len(lower)
    assert cert["outcome"] == "semispace"
    assert cert["oracle_calls"] == len(cert["trace"]) == n + 1
    assert [entry["stage"] for entry in cert["trace"]] == stages


@pytest.mark.parametrize(
    "lower, upper, gens, stages", HEMISPACE_AT_N_PLUS_1, ids=[f"n{len(case[0])}" for case in HEMISPACE_AT_N_PLUS_1]
)
def test_hemispace_spends_n_plus_1_sweeps(tmp_path, capsys, lower, upper, gens, stages):
    cert = separate_and_verify(tmp_path, capsys, instance(lower, upper, gens))
    assert cert["outcome"] == "hemispace"
    assert cert["oracle_calls"] == len(cert["trace"]) == len(lower) + 1
    assert [entry["stage"] for entry in cert["trace"]] == stages
