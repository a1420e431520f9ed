import json

import pytest

from qschur import module_tools
from qschur.cli import main
from qschur.linalg import Matrix
from qschur.scalars import ScalarContext
from qschur.uq_rep import UqModule


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_drinfeld_single_segment(capsys):
    code, out, _ = run(capsys, "drinfeld", "--n", "3", "--segments", "1@0:2")
    assert code == 0
    assert "P_2(u) = u + (-1)" in out


def test_drinfeld_two_centers(capsys):
    code, out, _ = run(capsys, "drinfeld", "--n", "2", "--segments", "1@0:1,1@4:1",
                       "--json")
    assert code == 0
    data = json.loads(out)
    # P_1 = (u-1)(u-q^-2) = u^2 - (1+q^-2) u + q^-2
    p1 = data["polynomials"][0]
    assert len(p1) == 3
    assert p1[2] == "1"
    assert data["polynomials"][1] == ["1"]


def test_bad_segment_spec_exits_2(capsys):
    code, _, err = run(capsys, "build", "--n", "2", "--segments", "1@0:0")
    assert code == 2
    assert "length" in err


def test_malformed_spec_position(capsys):
    code, _, err = run(capsys, "drinfeld", "--n", "2", "--segments", "1@0:2,zz")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("command,spec", [
    ("drinfeld", "1@4000:1"),
    ("build", "1@4000:1"),
    ("drinfeld", "1@99999999:1"),  # would hang computing (5/3)^299999997
    ("drinfeld", "1@2000:1,1@-2000:1"),  # each fits, their quotient does not
])
def test_huge_rational_center_exits_2(capsys, command, spec):
    code, _, err = run(capsys, command, "--n", "2", "--segments", spec,
                       "--backend", "rational:5/3")
    assert code == 2
    assert "digits" in err and "position" in err


@pytest.mark.parametrize("backend", ["symbolic", "rational:5/3"])
def test_huge_center_coefficients_exit_2(capsys, backend):
    c = "1" + "0" * 3000
    code, _, err = run(capsys, "drinfeld", "--n", "2", "--segments", f"{c}@0:1,{c}@4:1",
                       "--backend", backend)
    assert code == 2
    assert "digits" in err


def test_large_centers_below_the_digit_limit(capsys):
    code, out, _ = run(capsys, "drinfeld", "--n", "2", "--segments", "1@2000:1",
                       "--backend", "rational:5/3")
    assert code == 0 and out.startswith("P_1(u) = u + ")
    # the symbolic backend keeps the power as an exponent of t
    code, out, _ = run(capsys, "drinfeld", "--n", "2", "--segments", "1@4000:1")
    assert code == 0 and "q^-2000" in out


def test_relations_pass(capsys):
    code, out, _ = run(capsys, "relations", "--n", "2", "--segments", "1@0:2")
    assert code == 0
    assert "PASS" in out


def test_relations_json(capsys):
    code, out, _ = run(capsys, "relations", "--n", "2", "--segments", "1@0:1",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert all(r["pass"] for r in data["relations"])


def test_build_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "--n", "2", "--segments", "1@0:2")
    assert code == 0
    path = tmp_path / "mod.json"
    path.write_text(out)
    code, out1, _ = run(capsys, "relations", "--n", "2", "--module-file", str(path))
    assert code == 0
    code, out2, _ = run(capsys, "relations", "--n", "2", "--segments", "1@0:2")
    assert code == 0
    assert out1 == out2  # identical reports after re-ingestion


def test_check_single(capsys):
    code, out, _ = run(capsys, "check", "eq-12", "--n", "2", "--ell", "2,3")
    assert code == 0
    assert "PASS eq-12" in out


def test_check_thm76_example(capsys):
    code, out, _ = run(capsys, "check", "thm-7.6", "--n", "3", "--segments", "1@0:2")
    assert code == 0


def test_check_unknown_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["relations", "--n", "2,3", "--segments", "1@0:1"],
    ["character", "--n", "2,3", "--segments", "1@0:1"],
])
def test_single_rank_command_refuses_a_rank_list(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "one rank" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["drinfeld", "--n", "0", "--segments", "1@0:1"],
    ["build", "--n", "-2", "--segments", "1@0:1"],
    ["check", "thm-4.2", "--n", "1", "--ell", "0"],
    ["check", "prop-4.1", "--ell", "-1"],
    ["check", "prop-4.1", "--n", "2,0"],
], ids=["drinfeld-n0", "build-n-negative", "check-ell0", "check-ell-negative", "check-n-list-0"])
def test_sizes_below_one_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "sizes must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ["build", "--ell", "2", "--n", "2", "--segments", "1@0:1"],
    ["relations", "--ell", "2", "--segments", "1@0:1"],
    ["drinfeld", "--seed", "1", "--segments", "1@0:1"],
    ["build", "--json", "--segments", "1@0:1"],
    ["relations", "--seed", "1", "--segments", "1@0:1"],
    ["build", "--seed", "1", "--segments", "1@0:1"],
    ["character", "--seed", "1", "--segments", "1@0:1"],
    ["isomorphic", "--seed", "1", "a.json", "b.json"],
])
def test_flags_a_command_never_reads_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_character(capsys):
    code, out, _ = run(capsys, "character", "--n", "2", "--segments", "1@0:2",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 3
    assert sum(m for _, m in data["character"]) == 3


def test_isomorphic_self(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "--n", "2", "--segments", "1@0:2")
    f = tmp_path / "a.json"
    data = json.loads(out)
    f.write_text(json.dumps(data["F"]))
    code, out, _ = run(capsys, "isomorphic", "--n", "2", str(f), str(f))
    assert code == 0
    assert "isomorphic" in out


def test_isomorphic_distinct_parameters(tmp_path, capsys):
    files = []
    for i, spec in enumerate(["1@0:2", "1@2:2"]):
        code, out, _ = run(capsys, "build", "--n", "2", "--segments", spec)
        f = tmp_path / f"m{i}.json"
        f.write_text(json.dumps(json.loads(out)["F"]))
        files.append(str(f))
    code, out, _ = run(capsys, "isomorphic", "--n", "2", *files)
    assert code == 1
    assert "not isomorphic" in out


def test_isomorphic_mixed_species_exits_2(tmp_path, capsys):
    # a Hecke descriptor against a U_q descriptor: no traceback, a usage error
    code, out, _ = run(capsys, "build", "--n", "2", "--segments", "1@0:2")
    data = json.loads(out)
    files = []
    for key in ("V_a", "F"):
        f = tmp_path / f"{key}.json"
        f.write_text(json.dumps(data[key]))
        files.append(str(f))
    code, _, err = run(capsys, "isomorphic", "--n", "2", *files)
    assert code == 2
    assert "different algebras" in err


def test_isomorphic_exhausted_search_is_undecided(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(module_tools, "ISO_MAX_TRIES", 4)
    scalar_y = {"algebra": "Hhat", "ell": 1, "dim": 2, "generators": {
        "y1": [[0, 0, "3"], [1, 1, "3"]], "y1inv": [[0, 0, "1/3"], [1, 1, "1/3"]]}}
    files = []
    for name in ("a.json", "b.json"):
        f = tmp_path / name
        f.write_text(json.dumps(scalar_y))
        files.append(str(f))
    code, out, err = run(capsys, "isomorphic", "--n", "2", *files)
    assert code == 1
    assert out == ""
    assert err.startswith("undecided: ") and err.count("\n") == 1


def test_large_ell_needs_force(capsys):
    code, _, err = run(capsys, "build", "--n", "1", "--segments", "1@0:1,2@0:1")
    assert code == 2
    assert "--force" in err
    code, out, _ = run(capsys, "build", "--n", "1", "--segments", "1@0:1,2@0:1",
                       "--force")
    assert code == 0


def test_specialized_backend(capsys):
    code, out, _ = run(capsys, "relations", "--n", "2", "--segments", "1@0:2",
                       "--backend", "rational:5/3")
    assert code == 0
    assert "PASS" in out


def test_relations_accepts_affine_descriptor_directly(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "--n", "2", "--segments", "1@0:2")
    f = tmp_path / "F.json"
    f.write_text(json.dumps(json.loads(out)["F"]))
    code, out, _ = run(capsys, "relations", "--n", "2", "--module-file", str(f))
    assert code == 0
    assert "PASS" in out


def test_exit_codes_stable_across_backends(capsys):
    for cid in ("eq-12", "prop-3.4c"):
        codes = []
        for backend in ("symbolic", "rational:5/3"):
            code, _, _ = run(capsys, "check", cid, "--n", "2", "--ell", "2",
                             "--backend", backend)
            codes.append(code)
        assert codes == [0, 0], (cid, codes)


def test_check_refuses_segments_longer_than_rank(capsys):
    # thm-7.6 would skip the list and pass on zero cases
    code, out, err = run(capsys, "check", "thm-7.6", "--n", "2", "--segments", "1@0:3")
    assert code == 2
    assert "total segment length 3 exceeds n=2" in err
    assert "PASS" not in out


def test_check_with_no_cases_does_not_pass():
    from qschur.checks import RunConfig, run_check

    r = run_check("thm-7.6", RunConfig(n_values=[2], segments_spec="1@0:3"))
    assert r.details == []
    assert not r.passed


@pytest.mark.parametrize("argv", [
    ("lemma-6.4", "--n", "4"),             # lemma-6.4 admits only n <= 3
    ("prop-4.7", "--n", "1", "--ell", "1"),  # prop-4.7 admits n >= 2, 2 <= ell <= 3
])
def test_check_at_inadmissible_sizes_runs_no_case(capsys, argv):
    # the check must not substitute sizes nobody asked for
    code, out, _ = run(capsys, "check", *argv)
    assert code == 1
    assert "PASS" not in out
    assert "(0 cases" in out


def _descriptor(capsys, tmp_path, edit, part="V_a"):
    """A `build` descriptor (V_a: Hecke side, F: quantum side) after edit(descriptor)."""
    code, out, _ = run(capsys, "build", "--n", "2", "--segments", "1@0:2")
    assert code == 0
    data = json.loads(out)[part]
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return str(path)


def _edit_generators(**changes):
    return lambda d: d["generators"].update(changes)


def _drop(name):
    return lambda d: d["generators"].pop(name)


@pytest.mark.parametrize("part,edit", [
    ("V_a", _edit_generators(y1=[[0, 0, "t^x"]])),
    ("V_a", _edit_generators(y1=[[0, 0, 6]])),
    ("V_a", _edit_generators(y1=[[0, 0, "1/0"]])),
    ("V_a", _edit_generators(y1=[[0, 1, "1"]])),
    ("V_a", _drop("y1inv")),
    ("F", _drop("x+1")),
    ("F", _drop("x-0")),
    ("F", _drop("t2")),
    ("F", lambda d: d.update(weights=d["weights"][:-1])),
    ("F", lambda d: d.update(weights=[w + [0] for w in d["weights"]])),
    ("F", lambda d: d.update(weights=d["weights"][1:] + d["weights"][:1])),
    ("F", lambda d: d.update(n=1)),
    ("F", lambda d: d.update(n=0)),
    ("V_a", lambda d: d.update(ell=0)),
    ("V_a", lambda d: d.update(dim=-1, generators={k: [] for k in d["generators"]})),
], ids=["bad-scalar", "scalar-not-a-string", "zero-denominator", "index-outside-dim",
     "missing-generator", "uq-missing-generator", "uq-partial-loop-generators",
     "uq-partial-torus", "uq-short-weights", "uq-weight-length", "uq-permuted-weights",
     "uq-rank-mismatch", "uq-rank-zero", "ell-zero", "negative-dim"])
@pytest.mark.parametrize("command", ["relations", "isomorphic"])
def test_malformed_descriptor_exits_2(tmp_path, capsys, part, edit, command):
    path = _descriptor(capsys, tmp_path, edit, part)
    files = ["--module-file", path] if command == "relations" else [path, path]
    code, _, err = run(capsys, command, "--n", "2", *files)
    assert code == 2
    assert f"bad module descriptor in {path}" in err


def test_relabelled_weights_give_no_isomorphism_verdict(tmp_path, capsys):
    # the same matrices under a rotated weights list (the same multiset):
    # the labels disagree with the k_i, so the copy is refused, not compared
    code, out, _ = run(capsys, "build", "--n", "2", "--segments", "1@0:2")
    assert code == 0
    data = json.loads(out)["F"]
    good, rotated = tmp_path / "good.json", tmp_path / "rotated.json"
    good.write_text(json.dumps(data))
    data["weights"] = data["weights"][1:] + data["weights"][:1]
    rotated.write_text(json.dumps(data))
    code, out, err = run(capsys, "isomorphic", "--n", "2", str(good), str(rotated))
    assert code == 2
    assert "isomorphic" not in out
    assert f"bad module descriptor in {rotated}: " in err
    code, out, _ = run(capsys, "isomorphic", "--n", "2", str(good), str(good))
    assert code == 0 and "not isomorphic" not in out


def _add_generator(name):
    return lambda d: d["generators"].update({name: []})


@pytest.mark.parametrize("part,edit,reason", [
    ("V_a", lambda d: d.update(ell=1), "['s1', 'y2', 'y2inv'] are not defined"),
    ("V_a", lambda d: d.update(algebra="H"), "are not defined for H"),
    ("F", _add_generator("x+3"), "['x+3'] are not defined at n=2"),
    ("F", _add_generator("t4"), "['t4'] are not defined at n=2"),
    ("V_a", lambda d: d.update(dim=1.5), "dim must be an integer, got 1.5"),
    ("V_a", lambda d: d.update(ell=2.0), "ell must be an integer, got 2.0"),
    ("F", lambda d: d.update(dim="3"), "dim must be an integer, got '3'"),
    ("F", lambda d: d.update(n=True), "n must be an integer, got True"),
    ("F", lambda d: d.update(weights=[[str(c) for c in w] for w in d["weights"]]),
     "a weight entry must be an integer"),
    ("F", lambda d: d["weights"][0].__setitem__(0, 0.5), "a weight entry must be an integer"),
    ("V_a", lambda d: d.update(labels=["a", "b"]), "labels must be a list of 1"),
    ("V_a", lambda d: d.update(labels="a"), "labels must be a list of 1"),
    ("V_a", _edit_generators(s1=[[0.9, 0, "-1"]]), "a row index must be an integer"),
    ("F", _edit_generators(k0=[[0, "1", "1"]]), "a column index must be an integer"),
    ("V_a", lambda d: d["generators"]["s1"].append([0, 0, "5"]), "entry (0, 0) is given twice"),
], ids=["size-drops-generators", "finite-with-y", "uq-generator-beyond-n",
     "uq-torus-beyond-n", "fractional-dim", "float-ell", "string-dim", "bool-n",
     "string-weights", "fractional-weight", "labels-length", "labels-not-a-list",
     "fractional-row-index", "string-column-index", "repeated-position"])
@pytest.mark.parametrize("command", ["relations", "isomorphic"])
def test_descriptor_rules_exit_2(tmp_path, capsys, part, edit, reason, command):
    path = _descriptor(capsys, tmp_path, edit, part)
    files = ["--module-file", path] if command == "relations" else [path, path]
    code, out, err = run(capsys, command, "--n", "2", *files)
    assert code == 2
    assert "PASS" not in out
    assert f"bad module descriptor in {path}: " in err and reason in err


def test_descriptor_failing_its_relations_reports(tmp_path, capsys):
    path = _descriptor(capsys, tmp_path, _edit_generators(y1inv=[[0, 0, "2"]]))
    code, out, _ = run(capsys, "relations", "--n", "2", "--module-file", path)
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("perturb,code,summary", [
    (False, 0, "PASS: 57/57 relations"),
    (True, 1, "FAIL: 53/57 relations"),
])
def test_relations_on_a_descriptor_with_non_diagonal_k(tmp_path, capsys, perturb, code,
                                                       summary):
    # F of 1@0:2 conjugated by the unitriangular P of all ones on and above
    # the diagonal: its k_i are not diagonal, so its Cartan relations are
    # matrix products, and it must print the report of the unconjugated F,
    # whose diagonal k_i are checked entrywise (conjugation moves only the
    # witnesses); perturb adds 1 at (0, 0) of k_1 on both
    _, out, _ = run(capsys, "build", "--n", "2", "--segments", "1@0:2")
    c = ScalarContext(2)
    W = UqModule.from_json(c, json.loads(out)["F"])
    gens = W.generators()
    if perturb:
        gens["k1"] = gens["k1"].copy()
        gens["k1"].add_to_entry(0, 0, c.one)
    dim = W.dim
    P = Matrix.from_triplets(c, dim, dim, [[i, j, "1"] for i in range(dim)
                                           for j in range(i, dim)])
    P_inv = Matrix.from_triplets(c, dim, dim, [[i, i, "1"] for i in range(dim)]
                                 + [[i, i + 1, "-1"] for i in range(dim - 1)])
    reports = []
    for name, mats in (("plain", gens),
                       ("conj", {k: P * g * P_inv for k, g in gens.items()})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(UqModule.from_generators(c, 2, dim, mats).to_json()))
        reports.append(run(capsys, "relations", "--n", "2", "--module-file", str(path)))
    assert reports[0] == reports[1]
    assert reports[1][0] == code
    assert reports[1][1].splitlines()[-1] == summary


@pytest.mark.parametrize("argv", [["--backend", "1"], ["--n", "x"], ["--n", ","],
                                  ["--only", "nope"], ["--n", "0"], ["--ell", "2,-1"]])
def test_run_checks_rejects_bad_input(argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_checks.py"), *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def _run_checks_script():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "run_checks.py"
    spec = importlib.util.spec_from_file_location("run_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _undecided(cfg):
    raise module_tools.Undecided("irreducibility undecided: no eigenspace known in advance decides")


def test_run_checks_reports_an_undecided_check_and_goes_on(capsys, monkeypatch):
    import sys

    from qschur import checks

    def passing(cid):
        return lambda cfg: checks.CheckResult(cid, True, [("case", True, "")])

    run_checks = _run_checks_script()
    monkeypatch.setitem(checks.CHECKS, "prop-4.6", passing("prop-4.6"))
    monkeypatch.setitem(checks.CHECKS, "prop-7.2", _undecided)
    monkeypatch.setitem(checks.CHECKS, "thm-7.6", passing("thm-7.6"))
    monkeypatch.setattr(sys, "argv", ["run_checks.py", "--only", "prop-4.6,prop-7.2,thm-7.6"])
    assert run_checks.main() == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    lines = out.splitlines()
    assert ("UNDECIDED prop-7.2: irreducibility undecided: no eigenspace known in advance decides"
            in lines)
    for cid in ("prop-4.6", "thm-7.6"):
        assert any(line.split()[:2] == ["PASS", cid] for line in lines)
    assert lines[-1].startswith("details sha256: ")


def test_check_all_reports_an_undecided_check_and_goes_on(capsys, monkeypatch):
    from qschur import checks

    monkeypatch.setitem(checks.CHECKS, "prop-3.4c", _undecided)
    argv = ("check", "all", "--n", "2", "--ell", "1,2")
    code, out, err = run(capsys, *argv)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert ("UNDECIDED prop-3.4c: irreducibility undecided: "
            "no eigenspace known in advance decides") in lines
    assert [line.split()[:2] for line in lines[:-1]] == [
        ["UNDECIDED", "prop-3.4c:"] if cid == "prop-3.4c" else ["PASS", cid]
        for cid in checks.CHECKS]
    assert lines[-1].startswith("details sha256: ")

    code, out, err = run(capsys, *argv, "--json")
    assert code == 1 and err == ""
    records = json.loads(out)
    assert [r["check"] for r in records] == list(checks.CHECKS)
    for r in records:
        if r["check"] == "prop-3.4c":
            assert not r["pass"] and r["details"] == []
            assert r["undecided"].startswith("irreducibility undecided")
        else:
            assert r["pass"] and "undecided" not in r

    # the script forwards to the same command and prints the same digest
    assert _run_checks_script().main(["--n", "2", "--ell", "1,2"]) == 1
    script_out, script_err = capsys.readouterr()
    assert script_err == ""
    assert script_out.splitlines()[-1] == lines[-1]


def test_run_checks_details_digest_is_stable():
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    lines = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_checks.py"), "--n", "2",
             "--ell", "1,2", "--only", "eq-12,prop-3.3,thm-5.5"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        lines.append(proc.stdout.splitlines()[-1])
    assert lines[0] == lines[1]
    label, digest = lines[0].split(": ")
    assert label == "details sha256" and len(digest) == 64


def test_check_runs_every_requested_rank(capsys):
    code, out, _ = run(capsys, "check", "prop-4.6", "--n", "3,4", "--json")
    assert code == 0
    (result,) = json.loads(out)
    ranks = {case["case"].split()[0] for case in result["details"]}
    assert ranks == {"n=3", "n=4"}


def test_oversized_segment_list_refused_even_when_forced(capsys, monkeypatch):
    import qschur.cli as cli

    # 3! * 4^3 = 384 (n = 3, ell = 3) is admitted
    code, out, _ = run(capsys, "relations", "--n", "3", "--segments", "1@0:3")
    assert code == 0 and "PASS" in out

    def no_build(*args, **kwargs):
        raise AssertionError("a refused segment list must not be built")

    monkeypatch.setattr(cli, "irreducible_V_a", no_build)
    monkeypatch.setattr(cli, "functor_F", no_build)
    # 9! * 3^9 is far past the limit
    code, out, err = run(capsys, "relations", "--n", "2", "--segments", "1@0:9", "--force")
    assert code == 2
    assert "segment list too large" in err and "Traceback" not in err
    assert out == ""


def test_undecided_irreducibility_exits_1_without_traceback(capsys, monkeypatch):
    import qschur.cli as cli
    from qschur.module_tools import Undecided

    def undecided(*args, **kwargs):
        raise Undecided("irreducibility undecided: no eigenspace known in advance decides")

    monkeypatch.setattr(cli, "irreducible_V_a", undecided)
    code, out, err = run(capsys, "relations", "--n", "2", "--segments", "1@0:2")
    assert code == 1
    assert err == "undecided: irreducibility undecided: no eigenspace known in advance decides\n"
    assert out == ""
