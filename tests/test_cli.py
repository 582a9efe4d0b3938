import json
import os
import random
import subprocess
import sys

import pytest

import degmatch
from degmatch import (
    DegreeSequence,
    Matching,
    degree_sequences,
    lovasz_pm_check,
    perfect_matchings,
    realize_matching,
    realize_matching_oracle,
)
from degmatch.cli import run

from oracles import gnp_sequence


def test_check_graphic_pass(capsys):
    assert run(["check-graphic", "3,3,2,2"]) == 0
    assert "graphic: pass" in capsys.readouterr().out


def test_check_graphic_fail_shows_first_k(capsys):
    assert run(["check-graphic", "3,3,3,1"]) == 1
    out = capsys.readouterr().out
    assert "fails at k=2: 6 > 5" in out


def test_check_mplus_negative_prints_sides(capsys):
    assert run(["check-mplus", "3,2,2,1"]) == 1
    out = capsys.readouterr().out
    assert "fails at k=1: 3 > 2" in out


def test_check_pm(capsys):
    assert run(["check-pm", "3,2,2,1"]) == 0
    assert run(["check-pm", "2,1,1,1,1"]) == 1


def test_realize_mplus_trivial(capsys):
    assert run(["realize-mplus", "1,1,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "1-2,3-4"


def test_realize_mplus_failing_sequence(capsys):
    assert run(["realize-mplus", "3,2,2,1"]) == 1


def test_realize_switchwise(capsys):
    assert run(["realize", "1-4,2-3", "2,2,2,2"]) == 0
    out = capsys.readouterr().out.strip()
    assert "1-4" in out and "2-3" in out


def test_realize_oracle_flag(capsys):
    # STAR fails on both sequences, so realize answers through the oracle
    assert run(["realize", "1-4,2-3", "3,2,2,1"]) == 0
    assert run(["realize", "1-2,3-4", "2,2,1,1"]) == 1


def test_realize_exit_code_matches_oracle_up_to_n6(capsys):
    for n in (2, 4, 6):
        for seq in degree_sequences(n):
            text = ",".join(map(str, seq))
            for m in perfect_matchings(n):
                expected = 1 if realize_matching_oracle(seq, m) is None else 0
                assert run(["realize", str(m), text]) == expected, (str(m), text)


def test_realize_exit_code_matches_oracle_sampled_n8_to_n14(capsys):
    # uniform draws alone are mostly "no"; every other draw is a G(n, p)
    # sequence (uniform if a vertex is isolated), which brings the "yes"
    # share above a third
    rng = random.Random(14)
    answers = []
    for n in (8, 10, 12, 14):
        for i in range(60):
            seq = gnp_sequence(rng, n, rng.uniform(0.3, 0.9)) if i % 2 else None
            if seq is None:
                seq = DegreeSequence(
                    tuple(sorted((rng.randint(1, n - 1) for _ in range(n)), reverse=True))
                )
            labels = rng.sample(range(1, n + 1), n)
            m = Matching(n, zip(labels[0::2], labels[1::2]))
            expected = 1 if realize_matching_oracle(seq, m) is None else 0
            assert (realize_matching(seq, m) is None) == bool(expected)
            text = ",".join(map(str, seq))
            assert run(["realize", str(m), text]) == expected, (str(m), text)
            answers.append(expected)
    assert answers.count(0) * 3 >= len(answers)


@pytest.mark.parametrize(
    "argv, label",
    [
        (["realize", "1-2,3-4", "2,2,1,1"], "matching"),
        (["hfactor-realize", "2", "5,5,2,2,2,2"], "h-factor(2)"),
        (["disjoint-pms", "2", "5,5,2,2,2,2"], "disjoint-pms(2)"),
    ],
)
def test_json_negatives(capsys, argv, label):
    assert run(["--json", *argv]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"schema": 1, "check": label, "verdict": False}


def test_switch_path(capsys):
    assert run(["switch-path", "1-4,2-3", "--to", "plus"]) == 0
    assert "1 switches" in capsys.readouterr().out


def test_preorder_table(capsys):
    assert run(["preorder", "4"]) == 0
    out = capsys.readouterr().out
    assert "3 matchings, 6 feasible sequences" in out
    assert "(3,2,2,1) realizes 1: 1-4,2-3" in out


def test_preorder_conjectures_and_dot(tmp_path, capsys):
    dot = tmp_path / "hasse.dot"
    assert run(["preorder", "4", "--dot", str(dot), "--check-conjectures"]) == 0
    out = capsys.readouterr().out
    assert "antisymmetry holds: True" in out
    assert dot.read_text().startswith("digraph preorder")


def test_tightness_json_round_trip(capsys):
    assert run(["--json", "tightness", "22"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d_star"] == 19 and payload["k_star"] == 15
    assert payload["fails_star_at_k_star"] is True
    assert payload["star_first_fail_k"] == 15


def test_bound(capsys):
    assert run(["bound", "2,2,2,2"]) == 0
    assert run(["bound", "3,3,3,3"]) == 1


def test_hfactor_check(capsys):
    assert run(["hfactor-check", "2", "2,2,2,2,2,2"]) == 0
    assert run(["hfactor-check", "2", "5,5,2,2,2,2"]) == 1


def test_hfactor_realize(capsys):
    assert run(["hfactor-realize", "3", "3,3,3,3"]) == 0
    assert run(["hfactor-realize", "2", "5,5,2,2,2,2"]) == 1


def test_disjoint_pms(capsys):
    assert run(["disjoint-pms", "2", "2,2,2,2,2,2"]) == 0
    out = capsys.readouterr().out
    assert out.count("matching:") == 2


def test_disjoint_pms_negative(capsys):
    assert run(["disjoint-pms", "2", "5,5,2,2,2,2"]) == 1
    assert run(["disjoint-pms", "1", "2,2,2"]) == 1  # odd n
    assert run(["disjoint-pms", "2", "2,2,1,1"]) == 1  # a degree below h
    assert run(["disjoint-pms", "1", "3,1,1,1"]) == 1  # no perfect matching


def _disjoint_union_degrees(n, *edge_sets):
    """Degree vector of the union, asserting the edge sets are pairwise disjoint."""
    deg = [0] * n
    seen = set()
    for edges in edge_sets:
        for u, v in edges:
            assert (u, v) not in seen
            seen.add((u, v))
            deg[u - 1] += 1
            deg[v - 1] += 1
    return tuple(deg)


@pytest.mark.parametrize(
    "h, sequence, witness",
    [
        # K_{3,3} is the union of three disjoint perfect matchings
        pytest.param(
            "3",
            "3,3,3,3,3,3",
            [[(1, 4), (2, 5), (3, 6)], [(1, 5), (2, 6), (3, 4)], [(1, 6), (2, 4), (3, 5)]],
            id="3-3,3,3,3,3,3-witness1",
        ),
    ],
)
def test_disjoint_pms_undecided_is_not_negative(capsys, h, sequence, witness):
    degrees = tuple(int(x) for x in sequence.split(","))
    assert _disjoint_union_degrees(len(degrees), *witness) == degrees
    assert run(["disjoint-pms", h, sequence]) == 2
    assert "undecided" in capsys.readouterr().err


def test_disjoint_pms_h1_is_exact(capsys):
    # (3,2,2,1) fails STAR, so the canonical 1-factor route does not apply;
    # 1-2,1-3,1-4,2-3 realizes it and contains the nested matching 1-4,2-3
    assert run(["--json", "disjoint-pms", "1", "3,2,2,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matchings"] == ["1-4,2-3"]
    assert _disjoint_union_degrees(4, payload["realization"]) == (3, 2, 2, 1)
    assert {(1, 4), (2, 3)} <= {tuple(e) for e in payload["realization"]}
    for n in (2, 4, 6):
        for seq in degree_sequences(n):
            expected = 0 if lovasz_pm_check(seq) else 1
            assert run(["disjoint-pms", "1", ",".join(map(str, seq))]) == expected


@pytest.mark.parametrize("h, sequence", [("0", "2,2,2"), ("0", "2,2,2,2"), ("-1", "2,2,2,2")])
def test_disjoint_pms_h_below_1_is_usage_error(capsys, h, sequence):
    assert run(["disjoint-pms", h, sequence]) == 2
    assert "h must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check-graphic", "3,3,2,2"], 0),
        (["check-graphic", "3,3,3,1"], 1),
        (["frobnicate"], 2),
    ],
)
def test_python_m_degmatch_exit_codes(argv, code):
    src = os.path.dirname(os.path.dirname(degmatch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "degmatch", *argv], env=env, capture_output=True, timeout=60
    )
    assert done.returncode == code, done.stderr


def test_pack(capsys):
    assert run(["pack", "1,1,1,1", "1,1,1,1"]) == 0
    assert capsys.readouterr().out.startswith("hypothesis 2*max1*max2 < n: True\n")
    assert run(["pack", "3,3,3,3", "3,3,3,3"]) == 1
    assert "no packing exists" in capsys.readouterr().out


def test_pack_inconclusive_miss_exits_2(capsys):
    g1 = [(1, 2), (1, 4), (2, 5), (3, 4), (3, 5)]
    g2 = [(1, 3), (1, 5), (2, 3), (2, 4)]
    assert _disjoint_union_degrees(5, g1) == (2, 2, 2, 2, 2)
    assert _disjoint_union_degrees(5, g2) == (2, 2, 2, 1, 1)
    _disjoint_union_degrees(5, g1, g2)  # the two realizations pack
    assert run(["pack", "2,2,2,2,2", "2,2,2,1,1"]) == 2
    assert "inconclusive" in capsys.readouterr().out


def test_pack_json(capsys):
    assert run(["--json", "pack", "2,2,2,2,2,2,2,2,2", "2,2,2,2,2,2,2,2,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["success"] is True
    assert len(payload["edges1"]) == 9 and len(payload["edges2"]) == 9


def test_export_graph(capsys):
    assert run(["export-graph", "2,2,2"]) == 0
    assert capsys.readouterr().out == "3\n1 2\n1 3\n2 3\n"


def test_export_graph_non_graphic_is_negative(capsys):
    assert run(["export-graph", "3,3,1,1"]) == 1
    captured = capsys.readouterr()
    assert "graphic: fail" in captured.out
    assert "fails at k=2: 6 > 4" in captured.out
    assert captured.err == ""
    assert run(["export-graph", "3,3,2,2,1"]) == 1  # odd degree sum
    assert "degree sum is odd" in capsys.readouterr().out


def test_export_graph_non_graphic_json(capsys):
    assert run(["--json", "export-graph", "3,3,1,1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["check"], payload["family"], payload["verdict"]) == ("graphic", "EG", False)
    assert payload["first_fail_k"] == 2 and payload["failing_ks"] == [2]


@pytest.mark.parametrize(
    "sequence, code",
    [("3,3,2,2", 0), ("3,3,1,1", 1), ("3,3,x", 2)],
)
def test_export_graph_text_and_json_forms(capsys, sequence, code):
    assert run(["export-graph", sequence]) == code
    text = capsys.readouterr()
    assert run(["--json", "export-graph", sequence]) == code
    as_json = capsys.readouterr()
    if code == 0:
        assert text.out == "4\n1 2\n1 3\n1 4\n2 3\n2 4\n"
        assert json.loads(as_json.out) == {
            "schema": 1,
            "n": 4,
            "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]],
        }
    elif code == 1:
        assert text.out.startswith("graphic: fail\n")
        payload = json.loads(as_json.out)
        assert (payload["schema"], payload["check"], payload["verdict"]) == (1, "graphic", False)
    else:
        assert text.out == as_json.out == ""
        assert text.err.startswith("error:") and as_json.err.startswith("error:")


def test_check_json_schema(capsys):
    assert run(["--json", "check-mplus", "2,2,2,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["verdict"] is True
    assert len(payload["rows"]) == 4


def test_invalid_input_is_usage_error(capsys):
    assert run(["check-graphic", "4,3,2,1"]) == 2  # first entry exceeds n-1
    assert "error:" in capsys.readouterr().err
    for argv in (
        ["check-graphic", "3,a,2"],
        ["switch-path", "1-x", "--to", "plus"],
        ["realize", "1-2,3-4", "2,2,x,1"],
        ["export-graph", "3,3,x"],
    ):
        assert run(argv) == 2  # non-integer token
        assert "error:" in capsys.readouterr().err


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    dot = tmp_path / "missing" / "x.dot"
    assert run(["preorder", "4", "--dot", str(dot)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_command():
    assert run(["frobnicate"]) == 2


@pytest.mark.slow
def test_verify_paper_quick(capsys):
    assert run(["verify-paper", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "14/14 criteria passed" in out
    assert out.count("PASS") == 14
