import inspect
import json
import os
import sys
import warnings

import numpy as np
import pytest

from rankr import cli, limitset, plotting
from conftest import (
    SPEC_DIR,
    perfbench_inputs,
    spec_path,
    unipotent_draws,
    write_generator_spec,
)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_config_hash_ignores_key_order():
    a = {"n": 3, "seed": 1, "tolerances": {"x": 1.0, "y": 2.0}}
    b = {"tolerances": {"y": 2.0, "x": 1.0}, "seed": 1, "n": 3}
    assert cli.config_hash(a) == cli.config_hash(b)
    assert cli.config_hash(a) != cli.config_hash({**a, "seed": 2})


def test_load_spec_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["limitset", "enumerate", "--input", str(bad)]) == 1
    capsys.readouterr()

    for payload in (
        {"seed": 0},
        {"n": 1, "generators": []},
        {"n": 3},
        {"n": 3, "generators": [], "schottky": {}},
        {"n": 2, "generators": [{"name": "a", "matrix": [[2, 0], [0, 1]]}]},
        {"n": 2, "schottky": {"flags": [[[1, 0], [0, 1]]], "L": [[1, -1]]}},
    ):
        bad.write_text(json.dumps(payload))
        assert cli.main(["limitset", "enumerate", "--input", str(bad)]) == 1
        capsys.readouterr()


def test_load_spec_rejects_malformed_entries(tmp_path, capsys):
    frame = np.eye(3).tolist()
    gens = [{"name": "a", "matrix": [[2, 0], [0, 0.5]]}]
    sl3 = json.loads(open(spec_path("sl3_l2.json"), encoding="utf-8").read())
    seeds = [
        ({"n": 2, "seed": seed, "generators": gens},
         "seed must be a non-negative integer")
        for seed in ("abc", 1.5, -2, True)
    ]
    radii = [
        ({**sl3, "schottky": {**sl3["schottky"], "radius_scale": value}},
         "radius_scale must be a finite number above 0")
        for value in ("x", -1, 0, float("nan"), float("inf"), 10**400, None)
    ]
    ells = [[10**400, 0, -1]] + sl3["schottky"]["L"][1:]
    huge = {**sl3, "schottky": {**sl3["schottky"], "L": ells}}
    # An L vector that is not traceless, lies outside the chamber or on a
    # wall (the zero vector too), and a lone parabolic flag, which leaves
    # the radius rule min_sep / 3 no pair.
    recipes = [
        ({**sl3, "schottky": {**sl3["schottky"], "L": [ell] + sl3["schottky"]["L"][1:]}},
         "L vector 0 must be traceless and strictly descending")
        for ell in ([1.5, 0, -1.0], [-1.5, 0, 1.5], [1, 1, -2], [0, 0, 0])
    ]
    # Inside the chamber, but e^L overflows, underflows to 0 or rounds to
    # equal entries.
    recipes += [
        ({**sl3, "schottky": {**sl3["schottky"], "L": [ell] + sl3["schottky"]["L"][1:]}},
         "L vector 0 must have e^L finite, above 0 and strictly descending")
        for ell in ([800, 0, -800], [400.5, 399.5, -800], [1e-300, 0, -1e-300])
    ]
    recipes.append(
        ({**sl3, "schottky": {"flags": [], "L": [],
                              "parabolic_flags": sl3["schottky"]["flags"][:1]}},
         "and at least two flags in all")
    )
    names = [
        ({"n": 2, "generators": [{"name": name, "matrix": gens[0]["matrix"]}]},
         "generator 0 name must be a non-empty string")
        for name in (5, "", None, ["a"])
    ]
    # Names that would break a CSV row or make word labels ambiguous.
    names += [
        ({"n": 2, "generators": [{"name": name, "matrix": gens[0]["matrix"]}]},
         "generator 0 name must be a non-empty string, printable, not 'e'")
        for name in ("x,y", "a.b", "a'", "e", "a\nb", 'q"')
    ]
    unnamed = {"matrix": gens[0]["matrix"]}
    names += [
        ({"n": 2, "generators": entries},
         f"generator labels must be distinct, got {labels}")
        for entries, labels in (
            ([{**unnamed, "name": "b"}, unnamed], ["b", "b"]),
            ([{**unnamed, "name": "a"}, {**unnamed, "name": "a"}], ["a", "a"]),
            ([unnamed, unnamed, {**unnamed, "name": "a"}], ["a", "b", "a"]),
        )
    ]
    # A misspelt key would otherwise be ignored and its default used.
    unknown = [
        ({**sl3, "schottky": {**sl3["schottky"], "radius_polcy": 0.05}},
         "schottky recipe has unknown keys ['radius_polcy']"),
        ({**sl3, "sed": 3}, "spec has unknown keys ['sed']"),
        ({"n": 2, "generators": [{**gens[0], "matrx": gens[0]["matrix"]}]},
         "generator 0 has unknown keys ['matrx']"),
    ]
    out = tmp_path / "out"
    for payload, message in seeds + radii + names + recipes + unknown + [
        (huge, "L vector 0 is not numeric"),
        ({"n": 2, "generators": [{"name": "a"}]}, "generator 0 has no 'matrix'"),
        (
            {"n": 2, "generators": [{"name": "a", "matrix": [["x", 0], [0, 1]]}]},
            "generator a is not numeric",
        ),
        (
            {"n": 3, "schottky": {"flags": [frame, [[1, 0], [0, 1]]],
                                  "L": [[1, 0, -1]]}},
            "flag frame 1 is not a finite 3x3 array",
        ),
        ({"n": 2, "generators": []}, "'generators' must be a non-empty list"),
        (
            {"n": 3, "schottky": {"flags": [], "L": []}},
            "schottky recipe needs an L vector or a parabolic flag",
        ),
    ]:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        for argv in (
            ["limitset", "enumerate", "--input", str(bad), "--out", str(out)],
            ["decompose", "--which", "kak", "--input", str(bad)],
        ):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
    assert not out.exists()


def test_load_spec_accepts_bundled_and_benchmark_specs(tmp_path):
    # The benchmark writes its own generator specs; the key rule must take them.
    inputs = perfbench_inputs()
    paths = [os.path.join(SPEC_DIR, name) for name in sorted(os.listdir(SPEC_DIR))]
    for n in (2, 8):
        paths.append(inputs.write_generator_spec(tmp_path / f"sl{n}.json", 0, n))
    assert len(paths) == 5
    for path in paths:
        assert cli.load_spec(str(path))["n"] in range(2, 9)


def test_generators_without_names_take_default_labels(tmp_path, capsys):
    # e labels the identity, so the fifth unnamed generator takes f.
    matrices = [[[2.0, 0.0], [0.0, 0.5]], [[1.25, 0.75], [0.75, 1.25]]]
    matrices += [[[3.0 + i, 0.0], [0.0, 1.0 / (3.0 + i)]] for i in range(3)]
    for count, letters in ((2, "ab"), (5, "abcdf")):
        spec = {"n": 2, "generators": [{"matrix": m} for m in matrices[:count]]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / f"out{count}"
        code, _ = _run(capsys, ["limitset", "enumerate", "--input", str(path),
                                "--out", str(out), "--max-word-length", "1"])
        assert code == 0
        rows = (out / "samples.csv").read_text(encoding="utf-8").splitlines()[1:]
        want = ["e"] + [x + mark for x in letters for mark in ("", "'")]
        assert [row.split(",")[0] for row in rows] == want


def test_load_spec_rejects_nonempty_tolerances(tmp_path, capsys):
    # Nothing reads 'tolerances', so only the empty object is accepted.
    spec = json.loads(open(spec_path("sl2_classical.json"), encoding="utf-8").read())
    assert spec["tolerances"] == {}
    path = tmp_path / "spec.json"
    for value, code in (({}, 0), ({"eps": 1e-9}, 1), ([], 1), (None, 1)):
        path.write_text(json.dumps({**spec, "tolerances": value}))
        assert cli.main(["limitset", "enumerate", "--input", str(path),
                         "--out", str(tmp_path / "out"),
                         "--max-word-length", "2"]) == code
        err = capsys.readouterr().err
        assert ("'tolerances' is not read" in err) == (code == 1)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda r: {"L": r["L"]}, "schottky recipe needs 'flags' and 'L'"),
        (lambda r: {"flags": r["flags"]}, "schottky recipe needs 'flags' and 'L'"),
        (lambda r: {**r, "flags": {}}, "and 'L' must be lists"),
        (lambda r: {**r, "parabolic_flags": "x"}, "and 'L' must be lists"),
        (lambda r: {**r, "L": 1.5}, "and 'L' must be lists"),
    ],
)
def test_load_spec_rejects_recipes_without_flag_and_l_lists(
    tmp_path, capsys, edit, message
):
    sl3 = json.loads(open(spec_path("sl3_l2.json"), encoding="utf-8").read())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**sl3, "schottky": edit(sl3["schottky"])}))
    out = tmp_path / "out"
    for command in (["schottky", "build"], ["limitset", "enumerate"]):
        code = cli.main(command + ["--input", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and message in err and "Traceback" not in err
    assert not out.exists()


def test_commands_reject_the_other_kind_of_spec(tmp_path, capsys):
    generators = write_generator_spec(tmp_path / "g.json", 2, [np.diag([2.0, 0.5])])
    out = tmp_path / "out"
    for argv, message in (
        (["decompose", "--which", "kak", "--input", spec_path("sl3_l2.json")],
         "decompose --input needs a spec with generators"),
        (["schottky", "build", "--input", str(generators), "--out", str(out)],
         "schottky subcommand needs a schottky recipe"),
    ):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_linalg_error_exits_cleanly(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli.schottky, "build_table", singular)
    code = cli.main(["schottky", "build", "--input", spec_path("sl3_l2.json"),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "Singular matrix" in err


def test_decompose_eigvals_failure_exits_2(capsys, monkeypatch):
    # A LAPACK failure in the eigensolver is a numerical failure (exit 2),
    # not malformed input (exit 1).
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    code = cli.main(["decompose", "--which", "jordan", "--matrix", "[[2,1],[0,0.5]]"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "did not converge" in err


def test_decompose_rejects_malformed_inline_matrix(capsys):
    for matrix, message in (
        ("[[NaN, 0], [0, 1]]", "inline matrix is not a finite 2x2 array"),
        ("[[1, 0], [0, Infinity]]", "inline matrix is not a finite 2x2 array"),
        ('{"a": 1}', "bad inline matrix"),
        ("[[1, 2, 3]]", "inline matrix must be square"),
        # Square and finite, but outside SL(n,R) for n in [2, 8].
        ("[[0, 0], [0, 0]]", "inline matrix is not det 1"),
        ("[[2, 0], [0, 2]]", "inline matrix is not det 1"),
        ("[[1e300, 0], [0, 1e300]]", "inline matrix is not det 1"),
        ("[[1]]", "with n in [2, 8]"),
        (json.dumps(np.eye(9).tolist()), "with n in [2, 8]"),
    ):
        for which in ("kak", "jordan"):
            assert cli.main(["decompose", "--which", which, "--matrix", matrix]) == 1
            captured = capsys.readouterr()
            assert message in captured.err and "Traceback" not in captured.err
            assert captured.out == ""


def test_decompose_kak_identity(capsys):
    code, report = _run(
        capsys, ["decompose", "--which", "kak", "--matrix", "[[1,0],[0,1]]"]
    )
    assert code == 0
    assert np.allclose(report["h"], 0.0)
    assert report["residual"] < 1e-12


def test_decompose_jordan(capsys):
    code, report = _run(
        capsys,
        ["decompose", "--which", "jordan", "--matrix", "[[2,1],[0,0.5]]"],
    )
    assert code == 0
    assert report["klass"] == "regular-axial"
    assert np.allclose(report["translation"], [np.log(2.0), -np.log(2.0)])
    assert np.allclose(report["u"], np.eye(2))
    assert report["residual"] < 1e-12


def test_decompose_jordan_unreliable_spectrum_exits_2(capsys):
    g = unipotent_draws()[(8, 29)]
    code = cli.main(["decompose", "--which", "jordan", "--matrix", json.dumps(g.tolist())])
    assert code == 2
    assert "eigenbasis condition number" in capsys.readouterr().err


def test_decompose_singular_pivot_exits_2(capsys):
    # A det-1 matrix is valid input; a QR pivot below the floor is a
    # numerical failure (exit 2), not malformed input (exit 1).
    matrix = "[[1e-10,0],[0,1e10]]"
    code = cli.main(["decompose", "--which", "kan", "--matrix", matrix])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "numerical reliability error: QR pivot 1.000e-10 is below 1.0e-09\n"
    assert cli.main(["decompose", "--which", "kak", "--matrix", matrix]) == 0


def test_decompose_kak_zero_singular_value_exits_2(capsys):
    # det 1 up to EPS_DET, but LAPACK's smallest singular value is 0, so
    # the Cartan vector would hold -inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(
            ["decompose", "--which", "kak", "--matrix", "[[1e308,0],[0,1e-308]]"]
        )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "numerical reliability error: a singular value is 0 or not finite: "
        "[1e+308, 0.0]\n"
    )


def test_decompose_bruhat_reversal(capsys):
    code, report = _run(
        capsys,
        [
            "decompose",
            "--which",
            "bruhat",
            "--matrix",
            "[[0,0,1],[0,-1,0],[1,0,0]]",
        ],
    )
    assert code == 0
    assert report["permutation"] == [2, 1, 0]


def test_decompose_kan_from_spec(tmp_path, capsys):
    path = write_generator_spec(
        tmp_path / "g.json", 2, [np.array([[1.0, 0.0], [1.0, 1.0]])]
    )
    code, report = _run(capsys, ["decompose", "--which", "kan", "--input", str(path)])
    assert code == 0
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(report["k"], [[s, -s], [s, s]])
    assert np.allclose(report["a"], [np.log(np.sqrt(2.0)), -np.log(np.sqrt(2.0))])
    assert np.allclose(report["nplus"], [[1.0, 0.5], [0.0, 1.0]])


def test_schottky_build_certifies(tmp_path, capsys):
    out = str(tmp_path / "out")
    code, run = _run(
        capsys,
        [
            "schottky",
            "build",
            "--input",
            spec_path("sl3_l2.json"),
            "--out",
            out,
            "--resolution",
            "300",
        ],
    )
    assert code == 0
    assert run["checks"]["certification"] == "certified-at-resolution"
    assert run["checks"]["nonelementary"] is True
    assert run["metrics"]["min_margin"] > 0
    assert os.path.exists(os.path.join(out, "table.json"))
    assert os.path.exists(os.path.join(out, "certification.json"))
    assert os.path.exists(os.path.join(out, "run_report.json"))


def test_schottky_build_exits_3_when_power_escalation_is_exhausted(tmp_path, capsys):
    # Translations this short contract too little at every allowed power.
    sl3 = json.loads(open(spec_path("sl3_l2.json"), encoding="utf-8").read())
    recipe = {**sl3["schottky"], "L": [[0.01, 0.0, -0.01], [0.012, 0.0, -0.012]]}
    path = tmp_path / "short.json"
    path.write_text(json.dumps({**sl3, "schottky": recipe}))
    code = cli.main(["schottky", "build", "--input", str(path),
                     "--out", str(tmp_path / "out"), "--resolution", "100"])
    err = capsys.readouterr().err
    assert code == 3
    assert "power escalation exhausted" in err and "Traceback" not in err


def test_schottky_build_certifies_a_recipe_with_a_parabolic_flag(
    parabolic_table, tmp_path, capsys
):
    # build_group's parabolic branch, on the flags of the seeded table.
    frames = [p.flag.frame.tolist() for p in parabolic_table.points]
    spec = {"n": 3, "seed": 0, "schottky": {
        "flags": frames[:2], "parabolic_flags": frames[2:], "L": [[1.5, 0.0, -1.5]]}}
    path = tmp_path / "parabolic.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    code, run = _run(capsys, ["schottky", "build", "--input", str(path),
                              "--out", str(out), "--resolution", "300"])
    assert code == 0
    assert run["checks"]["certification"] == "certified-at-resolution"
    assert run["metrics"]["powers"] == [2, 59]
    table = json.loads((out / "table.json").read_text(encoding="utf-8"))
    assert table["kinds"] == ["axial", "parabolic"]


def test_schottky_check_reuses_table(tmp_path, capsys):
    out1 = str(tmp_path / "build")
    code, _ = _run(
        capsys,
        [
            "schottky", "build",
            "--input", spec_path("sl2_classical.json"),
            "--out", out1, "--resolution", "200",
        ],
    )
    assert code == 0
    out2 = str(tmp_path / "check")
    code, run = _run(
        capsys,
        [
            "schottky", "check",
            "--input", spec_path("sl2_classical.json"),
            "--out", out2,
            "--table", os.path.join(out1, "table.json"),
            "--resolution", "200",
        ],
    )
    assert code == 0
    assert run["checks"]["certification"] == "certified-at-resolution"


def test_schottky_check_rejects_a_table_of_another_dimension(tmp_path, capsys):
    # The run report carries the spec's config_hash, so the table must be
    # one of the spec's n.
    build = tmp_path / "build"
    assert cli.main(["schottky", "build", "--input", spec_path("sl2_classical.json"),
                     "--out", str(build), "--resolution", "50"]) == 0
    capsys.readouterr()
    out = tmp_path / "check"
    code = cli.main(["schottky", "check", "--input", spec_path("sl3_l2.json"),
                     "--out", str(out), "--table", str(build / "table.json"),
                     "--resolution", "50"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: table is for n = 2, the spec for n = 3\n"
    assert not out.exists()


def test_schottky_rejects_resolution_below_one(tmp_path, capsys):
    # Resolution 0 would check only the neighbourhood centres.
    out = tmp_path / "out"
    table = ["--table", str(tmp_path / "table.json")]
    for action, value, extra in (("build", "0", []), ("build", "-1", []),
                                 ("check", "0", table)):
        code = cli.main(
            [
                "schottky", action,
                "--input", spec_path("sl3_l2.json"),
                "--out", str(out),
                "--resolution", value,
            ] + extra
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "--resolution must be at least 1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["10001", "2000000000"])
def test_schottky_rejects_resolution_above_bound(tmp_path, capsys, value):
    out = tmp_path / "out"
    code = cli.main(["schottky", "build", "--input", spec_path("sl3_l2.json"),
                     "--out", str(out), "--resolution", value])
    err = capsys.readouterr().err
    assert code == 1
    assert "--resolution must be at most 10000" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "arguments are required: --table"),
        ("missing", "cannot read table"),
        ("{not json", "cannot read table"),
        ('{"radii": [1.0]}', "malformed table: KeyError: 'points'"),
    ],
)
def test_schottky_check_rejects_bad_table(tmp_path, capsys, content, message):
    out = tmp_path / "out"
    argv = ["schottky", "check", "--input", spec_path("sl2_classical.json"),
            "--out", str(out)]
    if content is not None:
        table = tmp_path / "table.json"
        if content != "missing":
            table.write_text(content)
        argv += ["--table", str(table)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_schottky_build_rejects_table(tmp_path, capsys):
    # build makes its own table; a --table it would ignore is an error.
    out = tmp_path / "out"
    code = cli.main(["schottky", "build", "--input", spec_path("sl3_l2.json"),
                     "--out", str(out), "--table", str(tmp_path / "table.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "unrecognized arguments: --table" in err and "Traceback" not in err
    assert not out.exists()


def _edited_table(table, key, edit):
    data = json.loads(json.dumps(table))
    data[key] = edit(data[key])
    return data


def test_schottky_check_rejects_malformed_table_fields(sl3_group, tmp_path, capsys):
    # Each table would have certified, or ended in a traceback, unchecked.
    table = sl3_group[2].to_json_dict()
    nan_entry = [[[float("nan"), *g[0][1:]], *g[1:]] for g in table["generators"]]
    cases = [
        ("generators", lambda g: nan_entry, "ValueError: matrix entries must be finite"),
        ("generators", lambda g: [[[2.0, 0.0], [0.0, 0.5]], g[1]],
         "points and generators must share one dimension n"),
        ("powers", lambda k: [10**6, k[1]], "powers must be integers in [1, 60]"),
        ("powers", lambda k: [2.5, k[1]], "powers must be integers in [1, 60]"),
        ("powers", lambda k: k[:1], "needs one generator and one power per kind"),
        ("kinds", lambda k: ["parabolic", "axial"], "kinds must be 'axial', then"),
        ("kinds", lambda k: ["loxodromic", "axial"], "kinds must be 'axial', then"),
        ("radii", lambda r: r[:2], "needs two points and radii per axial generator"),
        ("points", lambda p: p[:3], "needs two points and radii per axial generator"),
        ("radii", lambda r: [-0.1, *r[1:]], "radii must be finite and above 0"),
        ("radii", lambda r: [float("nan"), *r[1:]], "radii must be finite and above 0"),
        # No flag lies at the flag diameter sqrt(2) from a center at n = 3.
        ("radii", lambda r: [2.0**0.5, *r[1:]], "radii must be below the flag diameter"),
        ("points", lambda p: [{**p[0], "direction": [0.0, 0.0, 0.0]}, *p[1:]],
         "ZeroVector: direction must be nonzero"),
        ("points", lambda p: [{**p[0], "direction": [float("nan"), 0.0, 0.0]}, *p[1:]],
         "ValueError: direction must be finite"),
        ("points", lambda p: [{**p[0], "direction": [1.0, -1.0]}, *p[1:]],
         "DimensionMismatch: direction of length 2 for n = 3"),
    ]
    out = tmp_path / "out"
    path = tmp_path / "table.json"
    for key, edit, message in cases:
        path.write_text(json.dumps(_edited_table(table, key, edit)))
        code = cli.main(["schottky", "check", "--input", spec_path("sl3_l2.json"),
                         "--out", str(out), "--table", str(path),
                         "--resolution", "50"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"malformed table: {message}" in err and "Traceback" not in err
    assert not out.exists()


def test_schottky_check_counts_a_nonfinite_image_as_a_violation(
    sl3_group, tmp_path, capsys
):
    # A finite generator whose power overflows maps its sources to NaN
    # frames; that is a violation with a witness, not an infinite margin.
    table = sl3_group[2].to_json_dict()
    huge = _edited_table(
        table, "generators", lambda g: [(np.array(g[0]) * 1e200).tolist(), g[1]]
    )
    path = tmp_path / "table.json"
    path.write_text(json.dumps(huge))
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, run = _run(capsys, ["schottky", "check", "--input",
                                  spec_path("sl3_l2.json"), "--out",
                                  str(tmp_path / "out"), "--table", str(path),
                                  "--resolution", "50"])
    assert code == 4
    assert run["metrics"]["min_margin"] == -np.inf
    report = json.loads((tmp_path / "out" / "certification.json").read_text())
    assert report["witness"]["generator"] == 0
    assert report["witness"]["image_distance"] == np.inf


def test_schottky_doubled_radii_fails(tmp_path, capsys):
    code, run = _run(
        capsys,
        [
            "schottky", "build",
            "--input", spec_path("sl3_l2_doubled.json"),
            "--out", str(tmp_path / "out"),
            "--resolution", "300",
        ],
    )
    assert code == 4
    assert run["checks"]["certification"] == "failed"
    assert run["checks"]["nonelementary"] is True


def test_schottky_reports_nonelementary_for_a_one_generator_recipe(tmp_path, capsys):
    sl3 = json.loads(open(spec_path("sl3_l2.json"), encoding="utf-8").read())
    recipe = {"flags": sl3["schottky"]["flags"][:2], "L": sl3["schottky"]["L"][:1]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps({**sl3, "schottky": recipe}))
    code, run = _run(capsys, ["schottky", "build", "--input", str(path),
                              "--out", str(tmp_path / "out"), "--resolution", "50"])
    assert code == 4
    assert run["checks"]["certification"] == "failed"
    assert run["checks"]["nonelementary"] is False
    assert run["checks"]["nonelementary_reason"] == "need at least two generators"


def test_schottky_check_reports_non_transverse_cross_generator_flags(
    sl3_group, tmp_path, capsys
):
    # Point 2 (generator 1) takes point 0's frame (generator 0) with its
    # first two columns swapped: both flags share their 2-plane.
    table = sl3_group[2].to_json_dict()

    def swap(points):
        frame = np.array(points[0]["frame"])[:, [1, 0, 2]]
        return [*points[:2], {**points[2], "frame": frame.tolist()}, *points[3:]]

    path = tmp_path / "table.json"
    path.write_text(json.dumps(_edited_table(table, "points", swap)))
    code, run = _run(capsys, ["schottky", "check", "--input", spec_path("sl3_l2.json"),
                              "--out", str(tmp_path / "out"), "--table", str(path),
                              "--resolution", "50"])
    assert code == 4
    assert run["checks"]["certification"] == "failed"
    assert run["checks"]["nonelementary"] is False
    assert "generators 0 and 1" in run["checks"]["nonelementary_reason"]


def test_limitset_enumerate_row_count_and_determinism(tmp_path, capsys):
    payloads = []
    for workers in ("1", "4", "8"):
        out = str(tmp_path / f"w{workers}")
        code, run = _run(
            capsys,
            [
                "limitset", "enumerate",
                "--input", spec_path("sl3_l2.json"),
                "--out", out,
                "--max-word-length", "3",
                "--workers", workers,
                "--format", "csv",
            ],
        )
        assert code == 0
        assert run["metrics"]["words"] == limitset.word_count(2, 3) == 53
        with open(os.path.join(out, "samples.csv"), "rb") as fh:
            payloads.append(fh.read())
    assert payloads[0] == payloads[1] == payloads[2]
    assert payloads[0].count(b"\n") == 54


def test_limitset_cone_rank_one_is_exact_zero(tmp_path, capsys):
    path = write_generator_spec(
        tmp_path / "g.json",
        2,
        [
            np.array([[1.0, 2.0], [0.0, 1.0]]),
            np.array([[1.0, 0.0], [2.0, 1.0]]),
        ],
    )
    code, run = _run(
        capsys,
        [
            "limitset", "cone",
            "--input", str(path),
            "--out", str(tmp_path / "out"),
            "--max-word-length", "5",
            "--cone-word-length", "6",
            "--format", "json",
        ],
    )
    assert code == 0
    assert run["checks"]["trend_non_increasing"] is True
    for row in run["metrics"]["cone"]["rows"]:
        assert row["forward"] == 0.0
        assert row["backward"] == 0.0


def test_limitset_cone_emits_svg(tmp_path, capsys):
    out = str(tmp_path / "out")
    code, run = _run(
        capsys,
        [
            "limitset", "cone",
            "--input", spec_path("sl3_l2.json"),
            "--out", out,
            "--max-word-length", "6",
            "--min-word-length", "4",
            "--cone-word-length", "7",
            "--format", "svg",
        ],
    )
    assert code == 0
    svg = os.path.join(out, "cone.svg")
    assert svg in run["outputs"]
    with open(svg, "r", encoding="utf-8") as fh:
        assert "<svg" in fh.read()


def test_limitset_cone_svg_at_n_2_marks_the_chamber_point(tmp_path, capsys):
    # Rank one: every direction is the chamber's one point, (1, 0) on the
    # chart, so the snapped shell is one marker at its canvas point.
    out = tmp_path / "out"
    code, run = _run(
        capsys,
        [
            "limitset", "cone",
            "--input", spec_path("sl2_classical.json"),
            "--out", str(out),
            "--max-word-length", "4",
            "--cone-word-length", "4",
            "--format", "svg",
        ],
    )
    assert code == 0
    assert run["outputs"] == [str(out / "cone.svg")]
    svg = (out / "cone.svg").read_text(encoding="utf-8")
    assert svg.count("<circle") == 1
    assert '<circle cx="580.000" cy="580.000"' in svg


def test_limitset_cone_outputs_match_library(tmp_path, capsys):
    spec = cli.load_spec(spec_path("sl3_l2.json"))
    gens, names, table = cli.build_group(spec)
    out = str(tmp_path / "out")
    code, run = _run(
        capsys,
        [
            "limitset", "cone",
            "--input", spec_path("sl3_l2.json"),
            "--out", out,
            "--max-word-length", "6",
            "--cone-word-length", "7",
        ],
    )
    assert code == 0
    report = limitset.cone_theorem_check(gens, lp_values=(2, 4, 6), l_cone=7)
    assert run["metrics"]["cone"] == json.loads(json.dumps(report))
    assert run["checks"]["trend_non_increasing"] == report["trend_non_increasing"]

    plotting.write_chart(
        str(tmp_path / "cone.svg"),
        limitset.directional_sample(gens, 6, min_length=6),
        limitset.limit_cone_sample(gens, 7),
    )
    samples = limitset.enumerate_samples(gens, 6)
    expected_csv = limitset.write_csv(
        samples, tmp_path / "samples.csv", names=names, table=table
    )
    with open(os.path.join(out, "cone.svg"), "rb") as fh:
        assert fh.read() == (tmp_path / "cone.svg").read_bytes()
    with open(os.path.join(out, "samples.csv"), "rb") as fh:
        assert fh.read() == expected_csv


def test_limitset_seed_flag_reaches_product(tmp_path, capsys):
    def successes(extra):
        code, run = _run(
            capsys,
            [
                "limitset", "product",
                "--input", spec_path("sl3_l2.json"),
                "--out", str(tmp_path / "out"),
                "--max-word-length", "3",
                "--tol", "0.05",
                "--format", "json",
            ] + extra,
        )
        assert code == 0
        return run["metrics"]["product"]["successes"]

    default = successes([])
    # The bundled spec has seed 0, which stays the default.
    assert successes(["--seed", "0"]) == default
    assert successes(["--seed", "1"]) != default


def test_limitset_commands_skip_unread_columns(tmp_path, capsys, monkeypatch):
    spec = cli.load_spec(spec_path("sl3_l2.json"))
    gens, _, _ = cli.build_group(spec)
    # The cone reads the classes of its necklaces; the orbits never do.
    cone = limitset.limit_cone_sample(gens, 6)
    monkeypatch.setattr(limitset, "limit_cone_sample", lambda *args: cone)

    def refuse(*args, **kwargs):
        raise AssertionError("an unread column was computed")

    for name in ("_classify_stack", "_stack_log_moduli"):
        monkeypatch.setattr(limitset, name, refuse)
    for sub, extra in (
        ("minimality", ["--target-length", "3"]),
        ("product", []),
        ("cone", ["--cone-word-length", "6"]),
    ):
        code, run = _run(
            capsys,
            [
                "limitset", sub,
                "--input", spec_path("sl3_l2.json"),
                "--out", str(tmp_path / sub),
                "--max-word-length", "5",
                "--format", "json",
            ] + extra,
        )
        assert code == 0, sub
        assert sub in run["metrics"]


def test_limitset_empty_sample_exit_code(tmp_path, capsys):
    # A rotation generator produces no axial words: the cone is empty.
    theta = 0.7
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    path = write_generator_spec(tmp_path / "g.json", 2, [rot])
    code = cli.main(
        [
            "limitset", "cone",
            "--input", str(path),
            "--out", str(tmp_path / "out"),
            "--max-word-length", "5",
            "--cone-word-length", "5",
            "--format", "json",
        ]
    )
    capsys.readouterr()
    assert code == 5


@pytest.mark.parametrize(
    "sub, length, message",
    [
        ("minimality", "1", "containment needs words of length >= 2"),
        ("product", "1", "product needs two words of length >= 2"),
        ("axdens", "3", "no words of length >= 4"),
    ],
)
def test_limitset_checks_without_their_words_exit_5(
    tmp_path, capsys, sub, length, message
):
    extra = ["--target-length", "2"] if sub == "minimality" else []
    code = cli.main(["limitset", sub, "--input", spec_path("sl3_l2.json"),
                     "--out", str(tmp_path / "out"), "--max-word-length", length]
                    + extra)
    err = capsys.readouterr().err
    assert code == 5
    assert err == f"empty sample: {message}\n"


def test_limitset_checks_on_bundled_group(tmp_path, capsys):
    for sub, key, extra in (
        ("minimality", "all_approached", ["--target-length", "4"]),
        ("product", "success_fraction", []),
        ("axdens", "all_within_eps", []),
    ):
        out = str(tmp_path / sub)
        code, run = _run(
            capsys,
            [
                "limitset", sub,
                "--input", spec_path("sl3_l2.json"),
                "--out", out,
                "--max-word-length", "6",
                "--tol", "0.15",
                "--format", "json",
            ] + extra,
        )
        assert code == 0
        assert key in run["checks"]
        if sub == "minimality":
            assert run["checks"]["all_approached"] is True
        if sub == "product":
            assert run["checks"]["success_fraction"] > 0.9
        if sub == "axdens":
            assert run["checks"]["all_within_eps"] is True


def test_limitset_requires_table_for_checks(tmp_path, capsys):
    path = write_generator_spec(
        tmp_path / "g.json", 2, [np.array([[2.0, 0.0], [0.0, 0.5]])]
    )
    code = cli.main(
        [
            "limitset", "minimality",
            "--input", str(path),
            "--out", str(tmp_path / "out"),
        ]
    )
    capsys.readouterr()
    assert code == 1


def test_limitset_rejects_out_of_range_flags(tmp_path, capsys):
    cases = [
        (flag, "0", f"{flag} must be at least 1")
        for flag in (
            "--max-word-length",
            "--min-word-length",
            "--cone-word-length",
            "--target-length",
        )
    ]
    cases += [
        ("--tol", value, "--tol must be finite and above 0")
        for value in ("nan", "-1", "0", "inf")
    ]
    cases.append(("--seed", "-1", "--seed must be a non-negative integer"))
    # A minimum above the maximum would leave the cone trend no shell.
    cases.append(
        ("--min-word-length", "9", "--min-word-length must be at most --max-word-length")
    )
    out = tmp_path / "out"
    # A flag the experiment does not read is argparse's error.
    for subcommand, extra, reads in (
        ("product", [], ("--max-word-length", "--tol", "--seed")),
        ("cone", ["--cone-word-length", "5"],
         ("--max-word-length", "--min-word-length", "--cone-word-length")),
    ):
        for flag, value, message in cases:
            code = cli.main(
                [
                    "limitset", subcommand,
                    "--input", spec_path("sl3_l2.json"),
                    "--out", str(out),
                    "--max-word-length", "4",
                ] + extra + [flag, value]
            )
            err = capsys.readouterr().err
            if flag not in reads:
                message = f"unrecognized arguments: {flag} {value}"
            assert code == 1
            assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, flag",
    [
        ("enumerate", "--max-word-length"),
        ("cone", "--cone-word-length"),
        ("minimality", "--target-length"),
    ],
)
def test_limitset_rejects_word_lengths_beyond_the_memory_budget(
    tmp_path, capsys, subcommand, flag
):
    # Two generators have 3^40-order reduced words up to length 40: the
    # request is refused before any word is grown or --out is made.
    out = tmp_path / "out"
    code = cli.main(["limitset", subcommand, "--input", spec_path("sl3_l2.json"),
                     "--out", str(out), flag, "40"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{flag} 40 asks for more than" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_limitset_rejects_workers_below_one(tmp_path, capsys, count):
    out = tmp_path / "out"
    code = cli.main(
        [
            "limitset", "enumerate",
            "--input", spec_path("sl2_classical.json"),
            "--out", str(out),
            "--max-word-length", "2",
            "--workers", count,
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "--workers must be at least 1" in err and "Traceback" not in err
    assert not out.exists()


# The flags each limitset experiment reads besides --input, --out,
# --max-word-length, --workers and --format, and its --format values.
READS = {
    "enumerate": ((), ("csv", "json", "all")),
    "cone": (("--min-word-length", "--cone-word-length"), ("csv", "json", "svg", "all")),
    "minimality": (("--target-length", "--tol"), ("json",)),
    "product": (("--tol", "--seed"), ("json",)),
    "axdens": (("--tol",), ("json",)),
}
UNREAD = [
    (sub, flag, "2")
    for sub, (flags, _) in READS.items()
    for flag in sorted({f for fs, _ in READS.values() for f in fs} - set(flags))
] + [
    (sub, "--format", value)
    for sub, (_, formats) in READS.items()
    for value in sorted({"csv", "json", "svg", "all"} - set(formats))
]


@pytest.mark.parametrize("sub, flag, value", UNREAD)
def test_limitset_experiments_reject_what_they_do_not_read(
    tmp_path, capsys, sub, flag, value
):
    # 18 flags and 10 --format values that some other experiment reads.
    out = tmp_path / "out"
    code = cli.main(["limitset", sub, "--input", spec_path("sl3_l2.json"),
                     "--out", str(out), "--max-word-length", "2", flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and flag in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["limitset", "enumerate", "--input", spec_path("sl3_l2.json"),
          "--max-word-length", "abc"],
         "argument --max-word-length: invalid int value: 'abc'"),
        (["limitset", "enumerate", "--input", spec_path("sl3_l2.json"), "--bogus"],
         "unrecognized arguments: --bogus"),
        (["limitset", "enumerate"], "the following arguments are required: --input"),
        (["decompose", "--which", "kak", "--matrix", "[[1,0],[0,1]]",
          "--input", spec_path("sl3_l2.json")],
         "argument --input: not allowed with argument --matrix"),
        (["decompose", "--which", "kak"],
         "one of the arguments --input --matrix is required"),
    ],
)
def test_argument_errors_exit_1(capsys, argv, message):
    # argparse's own exit 2 would read as a numerical-reliability error.
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["limitset", "enumerate", "--input", spec_path("sl2_classical.json"),
         "--max-word-length", "2"],
        ["schottky", "build", "--input", spec_path("sl2_classical.json"),
         "--resolution", "50"],
    ],
)
def test_out_naming_a_file_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "out"
    out.write_text("kept")
    code = cli.main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "File exists" in err and "Traceback" not in err
    assert out.read_text() == "kept"


def test_limitset_cone_svg_needs_n_2_or_3(tmp_path, capsys):
    path = write_generator_spec(
        tmp_path / "g.json", 4, [np.diag([4.0, 2.0, 0.5, 0.25])]
    )
    out = tmp_path / "out"
    argv = ["limitset", "cone", "--input", str(path), "--out", str(out),
            "--max-word-length", "3", "--cone-word-length", "3"]
    code = cli.main(argv + ["--format", "svg"])
    err = capsys.readouterr().err
    assert code == 1
    assert "--format svg needs n = 2 or 3" in err and "Traceback" not in err
    assert not out.exists()
    # --format all writes every format the run can: no chart at n = 4.
    code, run = _run(capsys, argv + ["--format", "all"])
    assert code == 0
    assert run["outputs"] == [os.path.join(str(out), "samples.csv")]
    assert sorted(os.listdir(out)) == ["run_report.json", "samples.csv"]


def test_simplex_coords_reject_n_4():
    with pytest.raises(ValueError, match="n = 2 or n = 3 only"):
        plotting.simplex_coords(np.array([[0.6, 0.2, -0.2, -0.6]]))


def test_run_report_contains_config_hash(tmp_path, capsys):
    out = str(tmp_path / "out")
    code, run = _run(
        capsys,
        [
            "limitset", "enumerate",
            "--input", spec_path("sl2_classical.json"),
            "--out", out,
            "--max-word-length", "2",
            "--format", "csv",
        ],
    )
    assert code == 0
    spec = cli.load_spec(spec_path("sl2_classical.json"))
    assert run["config_hash"] == cli.config_hash(spec)
    with open(os.path.join(out, "run_report.json"), "r", encoding="utf-8") as fh:
        assert json.load(fh) == run


def test_run_report_command_is_the_parsed_argv(tmp_path, capsys, monkeypatch):
    # Called in process, main records the argv it parsed, not the host's.
    monkeypatch.setattr(sys, "argv", ["host", "--bogus-host-arg"])
    argv = ["limitset", "enumerate", "--input", spec_path("sl2_classical.json"),
            "--out", str(tmp_path / "out"), "--max-word-length", "2",
            "--format", "csv"]
    code, run = _run(capsys, argv)
    assert code == 0
    assert run["command"] == " ".join(argv)


def test_check_eps_defaults_are_the_cli_tol_default():
    # The library checks run with the tolerance the CLI would pass them.
    args = cli.build_parser().parse_args(
        ["limitset", "minimality", "--input", "spec.json"]
    )
    for check in (
        limitset.minimality_check,
        limitset.product_structure_check,
        limitset.axial_density_check,
    ):
        assert inspect.signature(check).parameters["eps"].default == args.tol
