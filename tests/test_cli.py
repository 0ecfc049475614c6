import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import SIGN_MUTATION, WEIGHT_MUTATION, engine_mutant

from hsplab import characters, coset, groups, lab, perm, profile, qfs, radical
from hsplab.cli import build_parser, main
from hsplab.errors import LimitExceeded, ParseError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def strip_wall_time(text: str) -> str:
    return re.sub(r'^\s*"wall_time_s": [0-9.e-]+,?$', "", text, flags=re.M)


def test_analyze_cyclic(capsys):
    code, out, _ = run_cli(capsys, "analyze", "cyclic:2@3")
    assert code == 0
    rep = json.loads(out)
    assert rep["dh"] == "1/3"
    assert rep["thm1_bounds"]["lower"] == "1/6"
    assert rep["thm1_bounds"]["upper"]["decimal"].startswith("0.57735026918962576")
    assert rep["thm1_bounds"]["sandwich_ok"] is True
    assert rep["verdict"]["log_base"] == 2
    assert rep["minimal_degree"] == 2


def test_analyze_refuses_disagreeing_routes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "analyze", "block:3x2")
    assert code == 0 and json.loads(out)["routes_agree"] is True
    dh = json.loads(out)["dh"]
    real = qfs.dh_exact
    monkeypatch.setattr(
        qfs, "dh_exact", lambda n, prof: real(n, prof) + Fraction(1, math.factorial(n))
    )
    code, out, err = run_cli(capsys, "analyze", "block:3x2")
    assert code == 1 and out == ""
    skewed = Fraction(dh) + Fraction(1, 720)
    assert "routes disagree" in err
    assert f"{skewed.numerator}/{skewed.denominator}" in err and dh in err


@pytest.mark.parametrize(
    "argv", [("compare", "gl32-point", "gl32-plane"), ("coset", "gl32", "gl32-point")]
)
def test_class_map_built_once_per_group(argv, capsys, monkeypatch):
    def fresh_catalog():
        for group in (
            groups.gl32_group, groups.gl32_point_stabilizer, groups.gl32_plane_stabilizer
        ):
            group.cache_clear()

    # reference report: the class map rebuilt on every use
    monkeypatch.setattr(
        coset, "element_class_map", lambda G, limit=perm.ENUMERATION_LIMIT: perm._build_class_map(G)
    )
    fresh_catalog()
    code, rebuilt, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.undo()

    builds = []
    real = perm._build_class_map
    monkeypatch.setattr(perm, "_build_class_map", lambda G: builds.append(G) or real(G))
    fresh_catalog()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(builds) == 1
    assert strip_wall_time(out) == strip_wall_time(rebuilt)


def test_class_map_checks_the_bound_on_every_call():
    G = groups.gl32_group()
    perm.element_class_map(G)
    with pytest.raises(LimitExceeded):
        perm.element_class_map(G, limit=100)


def test_analyze_block_group(capsys):
    code, out, _ = run_cli(capsys, "analyze", "block:4x2")
    assert code == 0
    rep = json.loads(out)
    assert rep["support_census"] == {"4": "6", "6": "8", "8": "9"}
    assert rep["subgroup_order"] == "24"


def test_analyze_full_distribution(capsys):
    code, out, _ = run_cli(capsys, "analyze", "cyclic:3@3", "--full-distribution")
    rep = json.loads(out)
    dist = {tuple(e["partition"]): e["prob"] for e in rep["distribution"]}
    assert dist == {(3,): "1/2", (2, 1): "0/1", (1, 1, 1): "1/2"}
    # a tie for the largest mass goes to the larger partition
    summary = rep["distribution_summary"]
    assert summary["max_prob_partition"] == [3] and summary["max_prob"] == "1/2"


def test_analyze_group_file(tmp_path, capsys):
    path = tmp_path / "h.grp"
    path.write_text("# a transposition\ndegree 3\n(1 2)\n")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["dh"] == "1/3"
    assert rep["source"] == {
        "spec": str(path),
        "kind": "file",
        "digest": hashlib.sha256(path.read_bytes()).hexdigest(),
        "degree": 3,
        "order": "2",
    }


def test_a_file_named_like_a_catalog_entry_is_read_as_a_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("gl32").write_text("degree 3\n(1 2)\n")
    code, out, err = run_cli(capsys, "analyze", "gl32")
    assert code == 0, err
    source = json.loads(out)["source"]
    assert (source["spec"], source["kind"], source["degree"]) == ("gl32", "file", 3)


_FANO_FILES = {
    "gl32.grp": "degree 7\n(2 3)(6 7)\n(1 2 4)(3 6 5)\n",
    "point.grp": "degree 7\n(2 3)(6 7)\n(4 6)(5 7)\n(4 7)(5 6)\n(2 6 5)(3 7 4)\n",
    "plane.grp": "degree 7\n(2 3)(6 7)\n(1 2)(4 6 7 5)\n",
}


def _file_block(path: Path, order: str) -> dict:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"spec": str(path), "kind": "file", "digest": digest, "degree": 7, "order": order}


@pytest.mark.parametrize("with_parent", [True, False], ids=["file-parent", "no-parent"])
def test_compare_group_files(with_parent, tmp_path, capsys):
    for name, text in _FANO_FILES.items():
        (tmp_path / name).write_text(text)
    point, plane, parent = (tmp_path / name for name in ("point.grp", "plane.grp", "gl32.grp"))
    argv = ["compare", str(point), str(plane)] + (["--parent", str(parent)] if with_parent else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    rep = json.loads(out)
    assert rep["a"] == _file_block(point, "24") and rep["b"] == _file_block(plane, "24")
    if with_parent:  # GL(3,2) holds both stabilizers, which are Gassmann-equivalent
        assert rep["parent"] == _file_block(parent, "168")
        assert rep["gassmann"]["perm_chars_equal"] is True
    else:  # a file implies no parent
        assert rep["parent"] == {"spec": "symmetric:7", "degree": 7, "order": "5040"}


def test_analyze_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "block:3x2")
    _, out2, _ = run_cli(capsys, "analyze", "block:3x2")
    assert strip_wall_time(out1) == strip_wall_time(out2)


def test_analyze_trivial_rejected(capsys):
    code, _, err = run_cli(capsys, "analyze", "symmetric:1")
    assert code == 4 and "trivial" in err


def test_analyze_degree_limit(capsys):
    code, _, err = run_cli(capsys, "analyze", "symmetric:41")
    assert code == 3 and "degree" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("symmetric:48", "degree 48 exceeds the character-analysis limit 40"),
        ("young:40+8", "degree 48 exceeds the character-analysis limit 40"),
        ("block:30x2", "degree 60 exceeds the character-analysis limit 40"),
    ],
)
def test_analyze_refuses_over_limit_catalog_input_before_building(
    spec, message, capsys, monkeypatch
):
    # the degree comes from the name: neither the census nor a chain is built
    def unbuildable(*args, **kwargs):
        raise AssertionError("built a profile or a group of a refused input")

    monkeypatch.setattr(lab, "symmetric_profile", unbuildable)
    monkeypatch.setattr(lab, "block_group_profile", unbuildable)
    monkeypatch.setattr(perm.PermGroup, "__init__", unbuildable)
    code, out, err = run_cli(capsys, "analyze", spec)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


def test_sweep_refuses_before_computing_any_row(capsys, monkeypatch):
    def unbuildable(*args, **kwargs):
        raise AssertionError("computed a row of a refused sweep")

    monkeypatch.setattr(qfs, "class_sums", unbuildable)
    monkeypatch.setattr(lab, "symmetric_profile", unbuildable)
    monkeypatch.setattr(perm.PermGroup, "__init__", unbuildable)
    code, out, err = run_cli(capsys, "sweep", "--family", "young", "--start", "38", "--end", "44")
    assert code == 3 and out == ""
    assert err == "error: sweep row young:39+2: degree 41 exceeds limit 40\n"


def test_sweep_resolves_no_row_past_the_first_over_the_degree_limit(capsys, monkeypatch):
    resolved = []
    real = lab.resolve_catalog
    monkeypatch.setattr(lab, "resolve_catalog", lambda spec: resolved.append(spec) or real(spec))
    code, out, err = run_cli(capsys, "sweep", "--family", "cyclic", "--start", "2", "--end", "100000")
    assert code == 3 and out == ""
    assert err == "error: sweep row cyclic:41@41: degree 41 exceeds limit 40\n"
    assert len(resolved) <= 40 and resolved[-1] == "cyclic:41@41"


@pytest.fixture
def default_int_digits():
    """CPython's default limit on int-to-str conversion, 4300 digits."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["compare", "symmetric:2000", "symmetric:2000"],
            "group order of 5736 digits exceeds the enumeration bound 1000000",
        ),
        (
            ["coset", "symmetric:2000", "cyclic:2@2000"],
            "index of 5736 digits exceeds the coset table bound 100000",
        ),
        (
            ["compare", "cyclic:2@2000", "cyclic:2@2000"],
            "index of 5736 digits exceeds the coset table bound 100000",
        ),
        (
            ["analyze", "symmetric:2000", "--degree-limit", "3000"],
            "group order of 5736 digits exceeds the enumeration bound 1000000",
        ),
    ],
    ids=["compare-census", "coset-index", "compare-index", "analyze-census"],
)
def test_an_order_past_the_int_to_str_limit_is_refused_by_its_size(
    argv, message, capsys, default_int_digits
):
    # 2000! has 5736 decimal digits, more than str() converts by default
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


_LONG_NUMBER = "9" * 5000


@pytest.mark.parametrize(
    "spec",
    [
        f"cyclic:{_LONG_NUMBER}@3",
        f"young:2+{_LONG_NUMBER}",
        f"block:2x{_LONG_NUMBER}",
        f"alternating:{_LONG_NUMBER}",
        f"symmetric:{_LONG_NUMBER}",
    ],
    ids=["cyclic", "young", "block", "alternating", "symmetric"],
)
def test_a_catalog_number_past_the_int_conversion_limit_is_a_parse_error(
    spec, capsys, default_int_digits
):
    with pytest.raises(ParseError) as refused:
        lab.resolve_catalog(spec)
    assert str(refused.value) == "a catalog number has more than 4300 digits"
    code, out, err = run_cli(capsys, "analyze", spec)
    assert (code, out, err) == (2, "", "error: a catalog number has more than 4300 digits\n")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("cyclic:5@3", "cyclic:5@3: need 1 <= k <= n"),
        ("young:0+2", "young:0+2: parts must be positive"),
        ("block:1x2", "block:1x2: need m >= 2 and r >= 1"),
        ("symmetric:0", "symmetric:0: degree must be positive"),
        # no catalog family matches these
        ("cyclic:5", "'cyclic:5' is neither an existing group file nor a catalog name"),
        (f"bogus:{_LONG_NUMBER}", f"'bogus:{_LONG_NUMBER}' is neither an existing group file "
         "nor a catalog name"),
    ],
    ids=["cyclic", "young", "block", "symmetric", "no-family", "no-family-long"],
)
def test_a_catalog_family_refuses_a_name_in_its_own_words(spec, message, capsys):
    code, out, err = run_cli(capsys, "analyze", spec)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("degree", ["9" * 30, "3000000000", "1000001", "32001"])
@pytest.mark.parametrize("command", ["analyze", "coset"])
def test_a_group_file_over_the_degree_bound_is_refused_before_it_is_read(
    degree, command, tmp_path, capsys, monkeypatch
):
    def unbuildable(*args, **kwargs):
        raise AssertionError("parsed a generator of a refused group file")

    monkeypatch.setattr(perm, "parse_cycles", unbuildable)
    path = tmp_path / "huge.grp"
    path.write_text(f"degree {degree}\n(1 2)\n")
    code, out, err = run_cli(capsys, command, *[str(path)] * (1 if command == "analyze" else 2))
    assert (code, out) == (3, "")
    assert err == f"error: degree {degree} exceeds the group degree bound 32000\n"


def test_a_group_file_at_the_degree_bound_is_read():
    assert perm.parse_group_file("degree 32000\n").degree == profile.GROUP_DEGREE_LIMIT == 32000


def test_a_group_file_degree_past_the_int_conversion_limit_is_a_parse_error(
    tmp_path, capsys, default_int_digits
):
    path = tmp_path / "huge.grp"
    path.write_text(f"degree {_LONG_NUMBER}\n(1 2)\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == "error: the group file's degree has more than 4300 digits\n"


def test_a_count_is_printed_in_full_while_the_interpreter_can(default_int_digits):
    for count, shown in [
        (10**4299, str(10**4299)),
        (10**4300 - 1, str(10**4300 - 1)),
        (10**4300, "of 4301 digits"),
        (10**4301 - 1, "of 4301 digits"),
        (10**4301, "of 4302 digits"),
        (2**20000, "of 6021 digits"),
    ]:
        with pytest.raises(LimitExceeded) as exc:
            profile.check_index(count, 5)
        assert str(exc.value) == f"index {shown} exceeds the coset table bound 5"


_BIG_A120 = math.factorial(120) // 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["coset", "symmetric:120", "cyclic:2@120"],
            f"index {_BIG_A120} exceeds the coset table bound 100000",
        ),
        (
            ["analyze", "alternating:120", "--degree-limit", "300"],
            f"group order {_BIG_A120} exceeds the enumeration bound 1000000",
        ),
        (
            ["compare", "symmetric:50", "symmetric:50"],
            f"group order {math.factorial(50)} exceeds the enumeration bound 1000000",
        ),
        (
            ["compare", "symmetric:9", "cyclic:2@9"],
            "index 181440 exceeds the coset table bound 100000",
        ),
    ],
    ids=["coset-index", "analyze-enumeration", "compare-census", "compare-index"],
)
def test_over_limit_catalog_orders_are_refused_before_building(
    argv, message, capsys, monkeypatch
):
    # the closed-form catalog orders decide the enumeration and index bounds
    def unbuildable(*args, **kwargs):
        raise AssertionError("built a group of a refused input")

    monkeypatch.setattr(perm.PermGroup, "__init__", unbuildable)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["coset", "alternating:9", "cyclic:2@9", "--index-limit", "1000"],
        ["compare", "cyclic:2@9", "cyclic:2@9", "--parent", "alternating:9", "--index-limit", "1000"],
    ],
    ids=["coset", "compare"],
)
def test_index_refusal_comes_before_the_subgroup_check(argv, capsys):
    # (1 2) is not in A_9, but |A_9 : <(1 2)>| = 90720 is refused from the orders
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "error: index 90720 exceeds the coset table bound 1000\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["coset", "young:2+2", "cyclic:3@4", "--index-limit", "0"], "H is not a subgroup of G"),
        (["coset", "symmetric:5", "cyclic:2@6", "--index-limit", "0"], "G and H act on different degrees"),
        (
            ["compare", "cyclic:3@4", "cyclic:3@4", "--parent", "young:2+2", "--index-limit", "0"],
            "H and K must be subgroups of G",
        ),
    ],
    ids=["coset-order", "coset-degree", "compare-order"],
)
def test_no_index_refusal_when_h_cannot_be_a_subgroup(argv, message, capsys):
    # 3 does not divide 4 (or the degrees differ), so the index bound is not
    # consulted and the precondition is reported as before
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    assert err == f"error: {message}\n"


def test_unknown_source(capsys):
    for argv in (
        ["analyze", "nonsense"],
        ["compare", "gl32", "nonsense"],
        ["coset", "nonsense", "gl32-point"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: 'nonsense' is neither an existing group file nor a catalog name\n"


def test_compare_gl32_pair(capsys):
    code, out, _ = run_cli(capsys, "compare", "gl32-point", "gl32-plane")
    assert code == 0
    rep = json.loads(out)
    assert rep["gassmann"]["class_counts_equal"] is True
    assert rep["gassmann"]["perm_chars_equal"] is True
    assert rep["gassmann"]["conjugate"] is False
    assert rep["sn_profile_distance"] == "0/1"
    assert rep["distance_zero"] is True


def test_compare_in_s3(capsys):
    code, out, _ = run_cli(capsys, "compare", "cyclic:2@3", "alternating:3")
    rep = json.loads(out)
    assert rep["sn_profile_distance"] == "4/3"
    assert rep["parent"]["spec"] == "symmetric:3"


def _write_v4_files(path):
    # V_4 and two of its order-2 subgroups, conjugate in S_4 but not in V_4
    for name, gens in (("h", ["(1 2)(3 4)"]), ("k", ["(1 3)(2 4)"]), ("v4", ["(1 2)(3 4)", "(1 3)(2 4)"])):
        (path / f"{name}.grp").write_text("\n".join(["degree 4", *gens]) + "\n", encoding="utf-8")


def test_compare_under_a_parent_other_than_sn_reads_distance_zero_from_d(
    capsys, monkeypatch, tmp_path
):
    _write_v4_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "compare", "h.grp", "k.grp", "--parent", "v4.grp")
    rep = json.loads(out)
    assert code == 0 and rep["gassmann"]["class_counts_equal"] is False
    assert (rep["sn_profile_distance"], rep["distance_zero"]) == ("0/1", True)
    # no route computes D(H, K) here: the verdict is null, not false
    code, out, _ = run_cli(
        capsys, "compare", "h.grp", "k.grp", "--parent", "v4.grp", "--degree-limit", "3"
    )
    rep = json.loads(out)
    assert code == 0 and (rep["sn_profile_distance"], rep["distance_zero"]) == (None, None)


def test_compare_exits_1_when_equal_class_counts_meet_a_nonzero_distance(capsys, monkeypatch):
    # gl32-point and gl32-plane meet every class of GL(3,2) equally, so they
    # meet every class of S_7 equally; the mutant says D(H, K) = 1/5040
    monkeypatch.setattr(qfs, "d_between", lambda n, a, b: Fraction(1, math.factorial(n)))
    code, out, err = run_cli(capsys, "compare", "gl32-point", "gl32-plane")
    assert (code, out) == (1, "")
    assert err == "error: H and K meet every class of G equally, yet D(H, K) = 1/5040\n"


def test_compare_containment_failure(capsys):
    code, _, err = run_cli(
        capsys, "compare", "cyclic:2@4", "cyclic:2@4", "--parent", "alternating:4"
    )
    assert code == 4 and "subgroup" in err


def test_coset_cmd(capsys):
    code, out, _ = run_cli(capsys, "coset", "symmetric:4", "young:3+1")
    assert code == 0
    rep = json.loads(out)
    assert rep["index"] == 4
    assert rep["rank_subdegrees"]["rank"] == 2
    assert rep["rank_subdegrees"]["subdegrees"] == [1, 3]
    assert rep["fixpoint_bounds"]["bound_i"] == rep["fixpoint_bounds"]["bound_ii"]
    assert rep["class_identity_holds"] is True


@pytest.mark.parametrize(
    "argv", [("coset", "symmetric:6", "young:3+3"), ("coset", "alternating:6", "cyclic:3@6")]
)
def test_rank_report_built_once_per_coset_job(argv, capsys, monkeypatch):
    # reference report: the rank report rebuilt on every use
    monkeypatch.setattr(coset, "rank_subdegrees", coset._build_rank_report)
    code, rebuilt, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.undo()

    builds = []
    real = coset._build_rank_report
    monkeypatch.setattr(coset, "_build_rank_report", lambda ca: builds.append(ca) or real(ca))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(builds) == 1
    assert strip_wall_time(out) == strip_wall_time(rebuilt)
    assert "fixpoint_bounds" in json.loads(out)


def test_sweep_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "cyclic", "--start", "3", "--end", "6")
    assert code == 0
    rep = json.loads(out)
    assert [row["n"] for row in rep["rows"]] == [3, 4, 5, 6]
    assert rep["rows"][0]["dh"] == "4/3"

    code, out, _ = run_cli(
        capsys, "sweep", "--family", "block", "--r", "2", "--start", "2", "--end", "4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name,n,order,min_degree,dh")
    assert lines[1].split(",")[:5] == ["block:2x2", "4", "2", "4", "1/2"]
    assert len(lines) == 4


def test_sweep_empty_range(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "cyclic", "--start", "5", "--end", "4")
    assert code == 0
    assert json.loads(out)["rows"] == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "block", "--r", "-2", "--start", "2", "--end", "3"], "--r must be at least 1, got -2"),
        (["--family", "block", "--r", "0", "--start", "3", "--end", "2"], "--r must be at least 1, got 0"),
        (
            ["--family", "young", "--fixed-part", "0", "--start", "2", "--end", "3"],
            "--fixed-part must be at least 1, got 0",
        ),
        (["--family", "cyclic", "--start", "-1", "--end", "2"], "--start must be at least 0, got -1"),
    ],
)
def test_sweep_refuses_a_flag_that_names_no_catalog_entry(argv, message, capsys, monkeypatch):
    monkeypatch.setattr(lab, "resolve_catalog", None)  # no row may run
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_young_family(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "young", "--fixed-part", "2", "--start", "4", "--end", "6"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["name"] for r in rows] == ["young:2+2", "young:3+2", "young:4+2"]


def test_sweep_is_deterministic(capsys):
    args = ["sweep", "--family", "block", "--r", "2", "--start", "2", "--end", "5"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert strip_wall_time(out1) == strip_wall_time(out2)


def test_check_suites(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "orthogonality", "--max-n", "6")
    assert code == 0 and json.loads(out)["all_passed"] is True
    code, out, _ = run_cli(capsys, "check", "--suite", "sandwich", "--max-n", "12")
    assert code == 0 and json.loads(out)["all_passed"] is True
    code, out, _ = run_cli(
        capsys, "check", "--suite", "frobenius", "--actions", "5", "--seed", "3"
    )
    assert code == 0 and json.loads(out)["all_passed"] is True


@pytest.mark.parametrize(
    "suite, max_n, message",
    [
        ("orthogonality", "13", "full-table orthogonality check is capped at n=12"),
        ("sandwich", "41", "class-size sandwich check is capped at n=40"),
    ],
)
def test_check_refuses_a_max_n_over_its_cap_before_any_work(
    suite, max_n, message, capsys, monkeypatch
):
    def unrun(*args, **kwargs):
        raise AssertionError("ran a check of a refused suite")

    monkeypatch.setattr(characters, "orthogonality_check", unrun)
    monkeypatch.setattr(lab, "class_sandwich_check", unrun)
    code, out, err = run_cli(capsys, "check", "--suite", suite, "--max-n", max_n)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "suite, flag, value",
    [("orthogonality", "--max-n", "0"), ("sandwich", "--max-n", "-1"), ("frobenius", "--actions", "-2")],
)
def test_check_refuses_a_count_below_one(suite, flag, value, capsys):
    code, out, err = run_cli(capsys, "check", "--suite", suite, flag, value)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be at least 1, got {value}\n"


@pytest.mark.parametrize("suite, max_n", [("orthogonality", 12), ("sandwich", 40)])
def test_check_accepts_a_max_n_at_its_cap(suite, max_n, capsys, monkeypatch):
    # the README examples; the checks are stubbed, so nothing large runs
    calls = []

    def stub(n, limit=None):
        calls.append((n, limit))
        return SimpleNamespace(passed=True, num_types=0, failure=None)

    monkeypatch.setattr(characters, "orthogonality_check", stub)
    monkeypatch.setattr(lab, "class_sandwich_check", stub)
    code, out, _ = run_cli(capsys, "check", "--suite", suite, "--max-n", str(max_n))
    assert code == 0 and json.loads(out)["all_passed"] is True
    limit = 40 if suite == "sandwich" else None  # sandwich: the --degree-limit
    assert calls == [(n, limit) for n in range(1, max_n + 1)]


def test_the_frobenius_suite_skips_a_draw_over_the_order_limit(capsys):
    # GL(3,2)'s class map (168 elements) and every census of more than 100
    # elements are over the bound: those draws are skipped, as over-index ones are
    code, out, err = run_cli(
        capsys, "check", "--suite", "frobenius", "--actions", "5", "--order-limit", "100"
    )
    assert code == 0, err
    rep = json.loads(out)
    assert rep["actions"] == 5 and rep["all_passed"] is True


def test_the_frobenius_suite_refuses_to_pass_with_fewer_actions_than_asked(capsys):
    # no coset table fits an index limit of 0, so every draw is skipped
    code, out, err = run_cli(
        capsys, "check", "--suite", "frobenius", "--actions", "3", "--index-limit", "0"
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: only 0 of 3 actions fit --order-limit 1000000 and --index-limit 0 in 300 draws\n"
    )


def test_compare_refuses_a_parent_class_map_over_the_order_limit(capsys, monkeypatch):
    def unbuildable(*args, **kwargs):
        raise AssertionError("built a group of a refused input")

    monkeypatch.setattr(perm.PermGroup, "__init__", unbuildable)
    code, out, err = run_cli(capsys, "compare", "gl32-point", "gl32-plane", "--order-limit", "100")
    assert code == 3 and out == ""
    assert err == "error: group order 168 exceeds the enumeration bound 100\n"


@pytest.mark.parametrize(
    "pair", [("young:4+2", "young:2+4"), ("gl32-point", "gl32-plane")], ids=["sn", "gl32"]
)
def test_compare_holds_every_enumeration_to_the_order_limit(pair, capsys, monkeypatch):
    # the catalog builds gl32-plane by scanning the 168 elements of GL(3,2)
    # once per process, whatever the job; build it before recording
    groups.gl32_plane_stabilizer()
    limits = []
    real = profile.check_enumeration

    def recording(order, limit=profile.ENUMERATION_LIMIT):
        limits.append(limit)
        real(order, limit)

    for module in (profile, perm, coset, lab):
        monkeypatch.setattr(module, "check_enumeration", recording)
    code, out, err = run_cli(capsys, "compare", *pair, "--order-limit", "5000")
    assert code == 0, err
    assert len(limits) >= 4 and set(limits) == {5000}
    assert json.loads(out)["gassmann"]["conjugate"] is not None


# sha256 of whole reports, wall_time_s removed.  These pin every byte of the
# reports; a change that alters one must update its digest on purpose.
_REPORT_DIGESTS = {
    "analyze block:7x3 --full-distribution": "0754df1623c8837c469f03d98a5610c734be35319963c79692f3c62b7baf90f0",
    "analyze young:15+2": "6706c9c3b16c201e7b9d4f2326b7cb8d57e88b2b106794780ff65224a4b62b2a",
    "analyze symmetric:9 --full-distribution": "a931c770b268d5174f992b6b7e23159a7f8bf8748ebff25def0b1572d3271490",
    "sweep --family block --r 2 --start 2 --end 8": "5d1c110ac8f490742cb82961a8f04a9dc8c238e77712718bb8a1a9658867bf1c",
    "sweep --family cyclic --start 2 --end 10 --format csv": "53fe597b57fdf2e7c90a6ea40e1bfce4d24a65b97282090cd170851ffd1aa137",
    "compare young:4+2 young:2+4": "4bbd1635efc738581fcedae9a7783e0e0e8af776cc403c1b664a7043b79cdc3d",
    "compare gl32-point gl32-plane": "0b9811015b1069a889b877aed5113e193ed6c6d9055c99cb584319468fb595f9",
    "coset symmetric:6 young:3+3": "37b73f948c3bb3d67b47ff0199e058a1df1c199c0fb21e955fef0770c6131f40",
    "coset alternating:6 cyclic:3@6": "7dd925c4071a1143a627d6fdd3787616dfad6932f13158f0d7f4a25b71b99eea",
    "coset gl32 gl32-point": "c01f28fa867501d13df37b31a2315b7fb8efd7a32dcbc08749e0063d8c78c3f7",
    "coset symmetric:8 young:4+4": "56c67274b649941b8d6cc7b414527e94d1d5769f57f9d08d3214b871ec3923b2",
    "compare young:3+3 block:2x3": "2f5bc1583d0b7715eb66320dba9f03aaf9c5cc45da3a76bdc75e07f73bcc2165",
    "compare symmetric:5 alternating:5": "557d95906f0ec6e543cf99246e41a51fa70aed5eb07b7a1381a093c4860e9401",
    "check --suite frobenius --actions 8 --seed 7": "24e30a122a840a7cbe348661c6c0cc60e06c9290bf6beb27216f301fc0b40326",
    "analyze block:12x1": "23f029934c46f3481fcef86881d692a28a35632e49d09f8899a5647fb886558a",
}


@pytest.mark.parametrize("job", list(_REPORT_DIGESTS))
def test_reports_match_their_pinned_digests(job, capsys):
    code, out, err = run_cli(capsys, *job.split())
    assert code == 0, err
    assert hashlib.sha256(strip_wall_time(out).encode()).hexdigest() == _REPORT_DIGESTS[job]


def test_failed_invariant_exits_1_and_fails_the_frobenius_check(capsys, monkeypatch):
    real = coset.fix_in_X
    monkeypatch.setattr(coset, "fix_in_X", lambda ca, g: real(ca, g) + 1)
    code, out, err = run_cli(capsys, "coset", "symmetric:4", "young:3+1")
    assert code == 1 and out == ""
    assert "Frobenius identity violated" in err
    code, out, err = run_cli(
        capsys, "check", "--suite", "frobenius", "--actions", "5", "--seed", "3"
    )
    rep = json.loads(out)  # the report is still printed
    assert code == 1 and rep["all_passed"] is False and len(rep["failures"]) == 5
    assert err == "error: the frobenius suite did not pass\n"


def test_frobenius_check_does_not_read_the_induced_images(capsys, monkeypatch):
    # identity images give S_4 on the cosets of S_3 rank 4; the class table says 2
    monkeypatch.setattr(
        coset.CosetAction, "induced_image", lambda self, g: np.arange(self.index, dtype=np.int32)
    )
    code, out, err = run_cli(capsys, "coset", "symmetric:4", "young:3+1")
    assert code == 1 and out == ""
    assert "Frobenius identity violated" in err


def test_a_false_class_identity_exits_1(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "coset", "symmetric:5", "young:3+2")
    assert code == 0 and json.loads(out)["class_identity_holds"] is True
    # the 5-cycles miss H, so one more fixed coset on them leaves the
    # Frobenius total alone: only the class identity sees it
    real = coset.fix_in_X
    five_cycle = perm.parse_cycles("(1 2 3 4 5)", 5)
    monkeypatch.setattr(coset, "fix_in_X", lambda ca, g: real(ca, g) + np.array_equal(g, five_cycle))
    code, out, err = run_cli(capsys, "coset", "symmetric:5", "young:3+2")
    assert (code, out) == (1, "")
    assert err == (
        "error: class identity violated: fix_X(C)|C| and |H cap C||X| disagree on a class C of G\n"
    )


@pytest.mark.parametrize(
    "argv", [("analyze", "young:3+2"), ("sweep", "--family", "block", "--start", "2", "--end", "3")]
)
def test_a_false_theorem_1_sandwich_exits_1(argv, capsys, monkeypatch):
    real = qfs._bounds_report
    monkeypatch.setattr(
        qfs, "_bounds_report", lambda *a: real(*a)._replace(sandwich_ok=False)
    )
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: Theorem 1 violated: D_H = ") and err.count("\n") == 1


@pytest.mark.parametrize("bound", ["lower", "upper"])
def test_a_d_h_outside_the_corollary_bracket_exits_1(bound, capsys, monkeypatch):
    # the mutant moves one side of the corollary's bracket past D_H = 1/2
    real = qfs.cmin_bounds
    moved = {"lower": Fraction(1), "upper": radical.SqrtSum.from_terms([(1, 4, 1)])}

    def mutant(n, prof):
        out = real(n, prof)
        return out._replace(report=out.report._replace(**{bound: moved[bound]}))

    monkeypatch.setattr(qfs, "cmin_bounds", mutant)
    code, out, err = run_cli(capsys, "analyze", "block:2x2")
    assert (code, out) == (1, "")
    assert err == (
        "error: corollary violated: D_H = 1/2 is not in the bracket "
        "1/(|H||C_min|) < D_H <= (|H|-1)|C_min|^(-1/2)\n"
    )


def test_an_inconsistent_gassmann_report_exits_1(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "compare", "gl32-point", "gl32-plane")
    assert code == 0 and json.loads(out)["gassmann"]["consistent"] is True
    # one more fixed coset on the first action's non-identity classes: its
    # permutation character moves, its class counts do not
    real, first = coset.fix_in_X, {}

    def mutant(ca, g):
        moves = bool((g != np.arange(g.shape[0])).any())
        return real(ca, g) + (first.setdefault("action", ca) is ca and moves)

    monkeypatch.setattr(coset, "fix_in_X", mutant)
    code, out, err = run_cli(capsys, "compare", "gl32-point", "gl32-plane")
    assert (code, out) == (1, "")
    assert err == (
        "error: Gassmann conditions disagree: class_counts_equal=true, perm_chars_equal=false\n"
    )


def test_disagreeing_distance_routes_exit_1(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "compare", "young:4+2", "young:2+4")
    assert code == 0 and json.loads(out)["sn_profile_distance"] == "0/1"
    # the profile route reads young:3+3 for the first side; the class tables
    # still give D(H, K) = 0
    real, swapped = lab.profile_of, lab.resolve("young:3+3").profile

    def mutant(entry, limit):
        return swapped if entry.name == "young:4+2" else real(entry, limit)

    monkeypatch.setattr(lab, "profile_of", mutant)
    code, out, err = run_cli(capsys, "compare", "young:4+2", "young:2+4")
    assert (code, out) == (1, "")
    assert err.startswith("error: D(H, K) routes disagree: 0/1 from the class tables, ")
    assert err.endswith(" from the profiles\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("symmetric:300", "young:299+1"),
            f"group order {math.factorial(299)} exceeds the enumeration bound 1000000",
        ),
        (
            ("alternating:10", "cyclic:5@10", "--index-limit", "1000000"),
            "group order 1814400 exceeds the enumeration bound 1000000",
        ),
        # young:5+5 is not in A_10, which the orders alone cannot tell
        (("alternating:10", "young:5+5"), "group order 1814400 exceeds the enumeration bound 1000000"),
    ],
    ids=["census", "class-map", "class-map-before-the-subgroup-check"],
)
def test_coset_refuses_its_class_table_from_the_orders_before_any_chain(
    argv, message, capsys, monkeypatch
):
    def unbuildable(*args, **kwargs):
        raise AssertionError("built a chain of a refused job")

    monkeypatch.setattr(perm, "_schreier_sims", unbuildable)
    code, out, err = run_cli(capsys, "coset", *argv)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, order, limit",
    [
        (("symmetric:9", "young:7+2", "--order-limit", "1000"), 10080, 1000),
        (("symmetric:12", "young:10+2"), 7257600, 1000000),
    ],
    ids=["s9", "s12"],
)
def test_coset_refuses_h_over_the_census_bound_before_any_orbit_work(
    argv, order, limit, capsys, monkeypatch
):
    def unreachable(self, g):
        raise AssertionError("computed an induced image of a refused job")

    monkeypatch.setattr(coset.CosetAction, "induced_image", unreachable)
    code, out, err = run_cli(capsys, "coset", *argv)
    assert code == 3 and out == ""
    assert err == f"error: group order {order} exceeds the enumeration bound {limit}\n"


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_an_unreadable_group_file_is_a_parse_error(kind, tmp_path, capsys):
    if kind == "directory":
        path, message = tmp_path, f"cannot read group file {str(tmp_path)!r}: Is a directory"
    else:
        path = tmp_path / "h.grp"
        path.write_bytes(b"\xffdegree 3\n(1 2)\n")
        message = f"group file {str(path)!r} is not UTF-8 text: invalid start byte at byte 0"
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv", [("analyze", "cyclic:0@3"), ("coset", "symmetric:3", "cyclic:0@3")]
)
def test_a_cyclic_subgroup_of_order_0_is_refused(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: cyclic:0@3: need 1 <= k <= n\n"


_C_JOBS = [("analyze", "block:3x2"), ("coset", "symmetric:4", "young:3+1")]


@pytest.mark.parametrize(
    "c, shown", [("nan", "nan"), ("inf", "inf"), ("1e400", "inf"), ("-inf", "-inf")]
)
@pytest.mark.parametrize("job", _C_JOBS, ids=lambda job: job[0])
def test_a_non_finite_c_is_refused(job, c, shown, capsys):
    code, out, err = run_cli(capsys, *job, f"--c={c}")
    assert (code, out, err) == (2, "", f"error: --c must be a finite number, got {shown}\n")


@pytest.mark.parametrize(
    "argv, power",
    [
        (("analyze", "block:3x2", "--c=-1e3"), "(log2 720)^1000.0"),
        (("analyze", "block:3x2", "--c=-400"), "(log2 720)^400.0"),
        (("coset", "symmetric:4", "young:2+2", "--c=1e3"), "(log2 24)^1000.0"),
    ],
)
def test_a_c_whose_threshold_overflows_a_double_is_refused(argv, power, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: --c: {power} is beyond the range of a double\n")


@pytest.mark.parametrize("job", _C_JOBS, ids=lambda job: job[0])
def test_a_report_with_a_finite_c_is_strict_json(job, capsys):
    def non_json(name):
        raise ValueError(f"{name} is not JSON (RFC 8259)")

    code, out, _ = run_cli(capsys, *job, "--c", "2.5")
    assert code == 0
    rep = json.loads(out, parse_constant=non_json)
    verdict = rep["verdict"] if job[0] == "analyze" else rep["avg_subdegree"]
    assert verdict["c"] == 2.5


@pytest.mark.parametrize("job", _C_JOBS, ids=lambda job: job[0])
def test_the_c_help_shows_how_to_write_a_negative_value(job, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    with pytest.raises(SystemExit):
        main([job[0], "-h"])
    assert "write a negative value as --c=-1e-3\n" in capsys.readouterr().out
    code, out, _ = run_cli(capsys, *job, "--c=-1e-3")
    verdict = json.loads(out)["verdict" if job[0] == "analyze" else "avg_subdegree"]
    assert (code, verdict["c"]) == (0, -1e-3)
    # argparse takes a value in e-notation after a space for a flag
    with pytest.raises(SystemExit) as refused:
        main([*job, "--c", "-1e-3"])
    assert refused.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --c: expected one argument\n")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "cyclic:2@3", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["dh"] == "1/3"


# Each subcommand takes the limit flags that it reads, and no others.
_LIMITS_READ = {
    ("analyze", "block:3x2"): ("degree", "order"),
    ("compare", "young:2+2", "young:2+2"): ("degree", "order", "index"),
    ("coset", "symmetric:5", "young:3+2"): ("order", "index"),
    ("sweep", "--family", "cyclic", "--start", "2", "--end", "3"): ("degree", "order"),
    ("check", "--suite", "frobenius"): ("degree", "order", "index"),
}


@pytest.mark.parametrize("argv", list(_LIMITS_READ), ids=lambda argv: argv[0])
def test_a_subcommand_takes_only_the_limits_it_reads(argv, capsys):
    read = _LIMITS_READ[argv]
    flags = [arg for name in read for arg in (f"--{name}-limit", "7")]
    args = build_parser(argv[0]).parse_args([*argv, *flags])
    assert {k: v for k, v in vars(args).items() if k.endswith("_limit")} == {
        f"{name}_limit": 7 for name in read
    }
    for name in {"degree", "order", "index"} - set(read):
        with pytest.raises(SystemExit) as refused:
            main([*argv, f"--{name}-limit", "5"])
        out, err = capsys.readouterr()
        assert (refused.value.code, out) == (2, "")
        assert err.endswith(f"hsplab: error: unrecognized arguments: --{name}-limit 5\n")


# A job builds only its own subcommand's parser; what it prints must not
# show it.  Each argv ends in argparse's exit, with help or an error.
_PARSER_CASES = [
    *([cmd, "-h"] for cmd in ("analyze", "compare", "coset", "sweep", "check")),
    ["analyze"],
    ["compare", "young:2+2"],
    ["sweep", "--family", "block", "--start", "2"],
    ["check"],
    ["sweep", "--family", "bogus", "--start", "2", "--end", "3"],
    ["check", "--suite", "bogus"],
    ["analyze", "block:3x2", "--c", "one"],
    ["-h"],
    [],
    ["bogus"],
    ["--bogus", "analyze", "block:3x2"],
    ["analyze", "block:3x2", "--bogus"],
]


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=" ".join)
def test_each_job_parses_and_prints_as_the_full_parser_does(argv, capsys):
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    want = (full.value.code, *capsys.readouterr())
    with pytest.raises(SystemExit) as job:
        main(argv)
    assert (job.value.code, *capsys.readouterr()) == want
    assert want[1] or want[2]  # help or an error was printed


# The analytic path (catalog profiles through the character engine) imports
# no numpy: each child runs with numpy blocked and must print the report of an
# unrestricted run.  The child inherits this environment, so it finds hsplab
# the same way this process did.
_NUMPY_BLOCKED = "import sys\nsys.modules['numpy'] = None\n"


def _child(prelude: str, argv: list, target: str = "hsplab.cli:main") -> subprocess.CompletedProcess:
    """A fresh process that runs `prelude`, then calls `target` on argv the
    way a console script calls its target."""
    module, func = target.split(":")
    code = (
        f"{prelude}import sys\nsys.argv[1:] = {argv!r}\n"
        f"from {module} import {func}\nsys.exit({func}())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ}, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "block:4x2"],
        ["analyze", "young:5+3"],
        ["sweep", "--family", "block", "--r", "2", "--start", "2", "--end", "5"],
        ["check", "--suite", "sandwich", "--max-n", "8"],
        ["check", "--suite", "orthogonality", "--max-n", "6"],
    ],
)
def test_analytic_cli_runs_without_numpy(argv):
    blocked = _child(_NUMPY_BLOCKED, argv)
    assert blocked.returncode == 0, blocked.stderr
    free = _child("", argv)
    assert free.returncode == 0, free.stderr
    assert strip_wall_time(blocked.stdout) == strip_wall_time(free.stdout)


def test_importing_the_package_and_cli_loads_no_numpy():
    code = "import sys\nimport hsplab, hsplab.cli\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# What a job loads: its own subcommand's module and no other's, never the
# library-only paper checks; the analytic jobs none of the group layer, the
# `check` suites or csv; the Frobenius suite none of the analytic stack
# (`lab`, `qfs`, `radical`); no job OpenSSL (hashlib: the input digests come from
# the built-in sha256).  `random` is not asserted on: a `site` hook may import
# it before hsplab runs.
_SUBCOMMANDS = ("analyze", "compare", "coset", "sweep", "check")
_ANALYTIC_UNUSED = ["numpy", "csv", "hsplab.perm", "hsplab.groups", "hsplab.checks"]
_HASHLIB = ["hashlib", "_hashlib"]


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["analyze", "block:4x2"], _ANALYTIC_UNUSED + _HASHLIB),
        (["sweep", "--family", "block", "--r", "2", "--start", "2", "--end", "5"],
         _ANALYTIC_UNUSED + _HASHLIB),
        (["check", "--suite", "frobenius", "--actions", "2", "--seed", "1"],
         _HASHLIB + ["hsplab.lab", "hsplab.qfs", "hsplab.radical"]),
        (["analyze", "gl32"], _HASHLIB),
        (["coset", "gl32", "gl32-point"], _HASHLIB),
        (["compare", "gl32-point", "gl32-plane"], _HASHLIB),
        (["analyze", "@point.grp"], _HASHLIB),
        (["coset", "@gl32.grp", "@point.grp"], _HASHLIB),
        (["compare", "@point.grp", "@plane.grp", "--parent", "@gl32.grp"], _HASHLIB),
    ],
    ids=[
        "analyze", "sweep", "check-frobenius", "analyze-group", "coset", "compare",
        "analyze-file", "coset-files", "compare-files",
    ],
)
def test_a_job_loads_only_what_its_subcommand_runs(argv, unused, tmp_path):
    for name, text in _FANO_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]  # files
    own = f"hsplab.commands.{argv[0]}"
    unused = [
        *unused, "hsplab.paper", *(f"hsplab.commands.{name}" for name in _SUBCOMMANDS)
    ]
    unused.remove(own)
    code = (
        "import contextlib, io, sys\nfrom hsplab.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    code = main({argv!r})\n"
        f"print(code, {own!r} in sys.modules, sorted(m for m in {unused!r} if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 True []"


def test_importing_the_cli_loads_the_character_layer_and_no_subcommand():
    # an in-process replay reads the character cache before its first job
    code = (
        "import sys\nimport hsplab.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('hsplab.c')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['hsplab.characters', 'hsplab.cli']"


def _import_cli_child(env: dict) -> subprocess.CompletedProcess:
    code = (
        "import os, sys\nimport hsplab, hsplab.cli\n"
        "print(sorted(m for m in ('dataclasses', 'numpy') if m in sys.modules))\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_importing_the_cli_loads_no_dataclasses_and_pins_openblas_to_one_thread():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = _import_cli_child(env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "1"]


def test_a_user_openblas_thread_count_wins():
    proc = _import_cli_child({**os.environ, "OPENBLAS_NUM_THREADS": "3"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "3"]


def test_the_library_leaves_the_openblas_thread_count_alone():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code = "import os\nimport hsplab.coset, hsplab.lab\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"


# ---------------------------------------------------------------------------
# the process entry: run() ends a job with os._exit, past the interpreter's
# teardown; what a job prints, writes and exits with stays as main's
# ---------------------------------------------------------------------------

def _cli_child(argv: list, text: bool = True, **env: str) -> subprocess.CompletedProcess:
    """`python -m hsplab.cli argv` in a fresh process, with `env` added to ours."""
    return subprocess.run(
        [sys.executable, "-m", "hsplab.cli", *argv],
        env={**os.environ, **env}, capture_output=True, text=text,
    )


def test_console_script_entry_point():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = re.search(r'^hsplab = "(.+)"$', pyproject.read_text(), re.M)[1]
    assert target == "hsplab.cli:run"
    proc = _child("", ["analyze", "cyclic:2@3"], target)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dh"] == "1/3"


@pytest.mark.parametrize("job", list(_REPORT_DIGESTS))
def test_a_child_process_prints_the_pinned_report(job):
    proc = _cli_child(job.split(), text=False)  # bytes: the CSV report ends its lines in \r\n
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    report = strip_wall_time(proc.stdout.decode())
    assert hashlib.sha256(report.encode()).hexdigest() == _REPORT_DIGESTS[job]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze"], 2),  # argparse: a missing argument
        (["analyze", "bogus:3"], 2),
        (["analyze", "symmetric:48"], 3),
        (["analyze", "cyclic:1@3"], 4),
        (["-h"], 0),
        (["sweep", "-h"], 0),
    ],
    ids=["missing-argument", "unknown-name", "over-limit", "precondition", "help", "sweep-help"],
)
def test_a_child_process_exits_and_prints_as_main_does(argv, code, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    want = (status, *capsys.readouterr())
    assert status == code and (want[1] or want[2])
    proc = _cli_child(argv, COLUMNS="80")
    assert (proc.returncode, proc.stdout, proc.stderr) == want


def test_a_child_process_writes_the_whole_output_file(tmp_path):
    argv = ["analyze", "block:7x3", "--full-distribution", "--output"]
    assert main([*argv, str(tmp_path / "main.json")]) == 0
    proc = _cli_child([*argv, str(tmp_path / "child.json")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    child, lib = (
        strip_wall_time((tmp_path / name).read_text(encoding="utf-8"))
        for name in ("child.json", "main.json")
    )
    assert child == lib and len(lib) > 8192  # more than one buffer's worth


# A job whose stdout pipe has no reader.  Unbuffered, the report's write
# raises in main: a traceback and exit 1.  Buffered, the write succeeds and
# the flush fails, so run() leaves it to the interpreter, which reports
# "Exception ignored" and exits 120.
@pytest.mark.parametrize(
    "unbuffered, code, head",
    [(True, 1, "Traceback (most recent call last):\n"), (False, 120, "Exception ignored in: ")],
    ids=["unbuffered", "buffered"],
)
def test_a_closed_stdout_pipe_ends_as_under_a_plain_exit(unbuffered, code, head):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # before the child starts: no write to the pipe can succeed
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hsplab.cli", "analyze", "cyclic:2@3"],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(head)
    assert proc.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


def test_cprofile_still_prints_its_stats():
    # cProfile runs the module in a namespace of its own, so run() returns
    # the status and the interpreter exits after cProfile's report
    plain = _cli_child(["analyze", "young:5+3"])
    profiled = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "hsplab.cli", "analyze", "young:5+3"],
        env={**os.environ}, capture_output=True, text=True,
    )
    assert profiled.returncode == 0, profiled.stderr
    assert " function calls " in profiled.stdout, "cProfile printed no stats"
    lines = profiled.stdout.splitlines(keepends=True)
    cut = next(i for i, line in enumerate(lines) if " function calls " in line)
    assert strip_wall_time("".join(lines[:cut])) == strip_wall_time(plain.stdout)
    stats = "".join(lines[cut:])
    assert "Ordered by: " in stats and "cli.py" in stats and "(run)" in stats


# A module-global object whose __del__ says so, and an atexit handler, both
# set up before the entry runs.  The plain exit of main is the control: there
# the interpreter's finalisation calls __del__.
_MARKERS = (
    "import atexit, os, sys\n"
    "class Marker:\n"
    "    def __del__(self):\n"
    "        os.write(2, b'finalised\\n')\n"
    "marker = Marker()\n"
    "atexit.register(os.write, 2, b'atexit ran\\n')\n"
    "sys.argv[1:] = ['analyze', 'cyclic:2@3']\n"
)


@pytest.mark.parametrize(
    "entry, stderr",
    [
        ("from hsplab.cli import run\nsys.exit(run())", "atexit ran\n"),
        ("import runpy\nrunpy._run_module_as_main('hsplab.cli')", "atexit ran\n"),  # python -m
        ("from hsplab.cli import main\nsys.exit(main())", "atexit ran\nfinalised\n"),
    ],
    ids=["script", "module", "plain-exit"],
)
def test_the_entry_runs_atexit_handlers_and_skips_finalisation(entry, stderr):
    proc = subprocess.run(
        [sys.executable, "-c", _MARKERS + entry], env={**os.environ}, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, stderr)
    assert json.loads(proc.stdout)["dh"] == "1/3"


# The process entry runs the job with the cyclic garbage collector off;
# `main`, which the library and the tests call, leaves it alone.


def test_the_process_entry_runs_the_job_without_the_collector():
    code = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('collector enabled:', gc.isenabled()))\n"
        "sys.argv[1:] = ['analyze', 'cyclic:2@3']\n"
        "from hsplab.cli import run\nsys.exit(run())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ}, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report, _, tail = proc.stdout.rpartition("}\n")
    assert json.loads(report + "}")["dh"] == "1/3"
    assert tail == "collector enabled: False\n"


def test_main_leaves_the_collector_enabled(capsys):
    assert gc.isenabled()
    assert run_cli(capsys, "analyze", "cyclic:2@3")[0] == 0
    assert gc.isenabled()


def _unreachable_after(argv: list) -> int:
    """The objects that one `main` job in a fresh process, run with the
    collector off, leaves unreachable: what a job under `run` never frees."""
    code = (
        "import contextlib, gc, io\ngc.disable()\nfrom hsplab.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    code = main({argv!r})\n"
        "print(code, gc.collect())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    status, count = map(int, proc.stdout.split())
    assert status == 0
    return count


# (a small input, a large one) of one subcommand; the large coset is the
# order-40320 action of S_8 on the 5040 cosets of C_8
@pytest.mark.parametrize(
    "small, large",
    [
        (["analyze", "young:3+2"], ["analyze", "young:20+20"]),
        (["sweep", "--family", "young", "--start", "3", "--end", "5"],
         ["sweep", "--family", "young", "--start", "3", "--end", "16"]),
        (["coset", "symmetric:5", "young:3+2"], ["coset", "symmetric:8", "cyclic:8@8"]),
    ],
    ids=["analyze", "sweep", "coset"],
)
def test_a_job_without_the_collector_leaves_garbage_that_does_not_grow_with_its_input(
    small, large
):
    assert abs(_unreachable_after(large) - _unreachable_after(small)) <= 10


# ---------------------------------------------------------------------------
# the class-sum certificate turns a wrong engine into exit 1
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_class_sums():
    characters.clear_character_cache()
    yield
    characters.clear_character_cache()


@pytest.mark.parametrize(
    "mutation, argv",
    [
        (SIGN_MUTATION, ("analyze", "block:3x2")),
        (SIGN_MUTATION, ("sweep", "--family", "block", "--r", "2", "--start", "2", "--end", "4")),
        (WEIGHT_MUTATION, ("analyze", "young:3+2")),
        (WEIGHT_MUTATION, ("analyze", "symmetric:6")),
        (WEIGHT_MUTATION, ("sweep", "--family", "young", "--start", "4", "--end", "6")),
    ],
    ids=["sign-analyze", "sign-sweep", "weight-analyze", "weight-analyze-sn", "weight-sweep"],
)
def test_mutated_engine_exits_1_naming_the_identity(
    mutation, argv, capsys, monkeypatch, fresh_class_sums
):
    monkeypatch.setattr(characters, mutation[0], engine_mutant(*mutation))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert re.fullmatch(r"error: class-sum certificate \([ab]\) sum_lam .* fails at n=\d+: .*\n", err)


def test_weight_mutation_leaves_census_profiles_alone(capsys, monkeypatch, fresh_class_sums):
    # block groups are not products of symmetric groups: their engine walk
    # has p_k edges only, so an h_a weight cannot change their numbers
    argv = ("sweep", "--family", "block", "--r", "2", "--start", "2", "--end", "4")
    honest = strip_wall_time(run_cli(capsys, *argv)[1])
    characters.clear_character_cache()
    monkeypatch.setattr(characters, WEIGHT_MUTATION[0], engine_mutant(*WEIGHT_MUTATION))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and strip_wall_time(out) == honest
    rows = json.loads(out)["rows"]
    assert [r["dh"] for r in rows] == ["1/2", "2/5", "3299/10080"]


def test_certificate_runs_under_python_O():
    # the mutated engine, in a child that strips assert statements
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "from conftest import SIGN_MUTATION, engine_mutant\n"
        "from hsplab import characters\n"
        "from hsplab.cli import main\n"
        "print(__debug__)\n"
        "characters._engine = engine_mutant(*SIGN_MUTATION)\n"
        "sys.exit(main(['analyze', 'block:3x2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env={**os.environ}, capture_output=True, text=True
    )
    assert proc.stdout.strip() == "False", proc.stderr
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: class-sum certificate (")


# ---------------------------------------------------------------------------
# coset holds its class maps to --order-limit
# ---------------------------------------------------------------------------


def record_enumeration_limits(monkeypatch) -> list:
    limits = []
    real = profile.check_enumeration

    def recording(order, limit=profile.ENUMERATION_LIMIT):
        limits.append(limit)
        real(order, limit)

    for module in (profile, perm, coset, lab):
        monkeypatch.setattr(module, "check_enumeration", recording)
    return limits


@pytest.mark.parametrize(
    "argv",
    [
        ("coset", "gl32", "gl32-point"),
        ("coset", "symmetric:6", "young:3+3"),
        ("check", "--suite", "frobenius", "--actions", "3", "--seed", "5"),
    ],
    ids=["gl32", "sn", "frobenius"],
)
def test_coset_holds_every_enumeration_to_the_order_limit(argv, capsys, monkeypatch):
    groups.gl32_plane_stabilizer()  # the catalog's one-off scan, outside the record
    limits = record_enumeration_limits(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--order-limit", "50000")
    assert code == 0, err
    assert limits and set(limits) == {50000}


def test_coset_refuses_a_class_map_over_the_order_limit(capsys):
    code, out, err = run_cli(capsys, "coset", "gl32", "gl32-point", "--order-limit", "100")
    assert code == 3 and out == ""
    assert err == "error: group order 168 exceeds the enumeration bound 100\n"
