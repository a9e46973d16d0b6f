import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import qcqpd
from hypothesis import given
from hypothesis import strategies as st

from qcqpd import (
    Kernel,
    MklSpec,
    RandomQcqpSpec,
    SolverConfig,
    build_mkl_qcqp,
    gen_infeasible,
    gen_random_qcqp,
    gen_twonorm,
    gen_unbounded,
    load_problem,
    save_problem,
    solve,
    validate,
)
from qcqpd.cli import build_parser, main
from qcqpd.generators import _parse_kernels
from helpers import toy_problem, write_members


# Every data field nonempty, so each can carry a bad value; P[1] is a diagonal.
FULL_MEMBERS = {
    "dims": np.array([1, 1, 1, 1]),
    "P0": np.array([[1.0]]),
    "P1": np.array([1.0]),
    "q": np.array([[-2.0], [0.0]]), "c": np.array([[0.0], [0.0]]), "r": np.array([0.0, -0.5]),
    "A": np.array([[1.0]]), "B": np.array([[0.0]]), "b": np.array([0.5]), "x_upper": np.array([10.0]),
}


def _write_archive(path, keys=(), value=None):
    """``FULL_MEMBERS`` with member ``keys[0]`` (at index ``keys[1:]``, if given) set to ``value``.

    ``value=None`` with a bare member name leaves that member out; a dict
    ``value`` with no ``keys`` replaces the members it names.
    """
    members = {name: arr.copy() for name, arr in FULL_MEMBERS.items()}
    if isinstance(value, dict):
        members.update(value)
    elif len(keys) > 1:
        members[keys[0]][keys[1:]] = value
    elif value is None and keys:
        del members[keys[0]]
    elif keys:
        members[keys[0]] = value
    return write_members(path, members)


def _run_cli(*args):
    """``python -m qcqpd.cli ARGS`` in a subprocess, so a traceback would show on stderr."""
    src = os.path.dirname(os.path.dirname(qcqpd.__file__))
    return subprocess.run(
        [sys.executable, "-m", "qcqpd.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )


def _assert_error_names(proc, field):
    """Exit 1, no traceback and an ``error:`` line naming ``field``."""
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert any(line.startswith("error:") and field in line for line in proc.stderr.splitlines())


def _subparser(*path):
    """The subcommand parser at ``path``, e.g. ``("generate", "mkl")``."""
    parser = build_parser()
    for name in path:
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
    return parser


def _stored_when_given(parser):
    """Destinations of the options stored only when given (help aside)."""
    return sorted(a.dest for a in parser._actions
                  if a.option_strings and a.default is argparse.SUPPRESS and not isinstance(a, argparse._HelpAction))


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.npz"
    save_problem(toy_problem(), path)
    return str(path)


class TestSolveCommand:
    def test_toy_converges_exit_zero(self, toy_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        code = main(["solve", toy_file, "--tol", "1e-6", "--report", str(report), "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "status=converged" in out
        doc = json.loads(report.read_text())
        assert abs(doc["x"][0] - 1.0) <= 1e-4
        assert abs(doc["lambda"][0] - 1.0) <= 1e-4
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,rho,res1,res2,objective"
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_missing_file_exit_one(self, capsys):
        assert main(["solve", "/nonexistent/problem.npz"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unreadable_path_exit_one(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == 1  # a directory, not a file
        assert "error:" in capsys.readouterr().err

    def test_invalid_problem_exit_one(self, tmp_path, capsys):
        p = toy_problem()
        p.P[1] = np.array([[-1.0]])  # not PSD
        path = tmp_path / "bad.npz"
        save_problem(p, path)
        assert main(["solve", str(path)]) == 1
        assert "not PSD" in capsys.readouterr().err

    def test_sparse_indefinite_exit_one(self, tmp_path, capsys):
        path = _write_archive(tmp_path / "p.npz", ("P1",), np.array([-1.0]))
        assert main(["solve", path]) == 1
        assert "P[1] is not PSD" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [
        (["--tol", "inf"], "tol"),
        (["--tol", "nan", "--max-iters", "2000"], "tol"),
        (["--divergence-threshold", "-1"], "divergence_threshold"),
    ])
    def test_bad_solver_setting_exit_one(self, toy_file, flags, field):
        _assert_error_names(_run_cli("solve", toy_file, *flags), field)

    @pytest.mark.parametrize("kind, message", [
        ("json", "not a qcqpd problem archive"),
        ("truncated", "not a qcqpd problem archive"),
        ("npy", "not a qcqpd problem archive (a single .npy array)"),
        ("object member", "member 'q' is not a readable array"),
        ("oversized header", "member 'x_upper' is not a readable array"),
    ])
    def test_not_an_archive_exit_one_without_traceback(self, toy_file, tmp_path, kind, message):
        path = tmp_path / "p.npz"
        if kind == "json":  # the JSON problem format of earlier versions
            path.write_text('{"n1": 1, "n2": 0, "m1": 0, "m2": 0, "P": [{"dense": [[1.0]]}]}\n')
        elif kind == "truncated":
            data = Path(toy_file).read_bytes()
            path.write_bytes(data[: len(data) // 2])
        elif kind == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.eye(2))
        elif kind == "object member":
            write_members(path, {**FULL_MEMBERS, "q": FULL_MEMBERS["q"].astype(object)})
        else:  # x_upper's header claims 2**40 doubles (8 TiB) and the member holds one
            write_members(path, {k: v for k, v in FULL_MEMBERS.items() if k != "x_upper"})
            member = io.BytesIO()
            np.lib.format.write_array_header_1_0(member, {"descr": "<f8", "fortran_order": False, "shape": (2**40,)})
            member.write(np.float64(10.0).tobytes())
            with zipfile.ZipFile(path, "a") as archive:
                archive.writestr("x_upper.npy", member.getvalue())
        _assert_error_names(_run_cli("solve", str(path)), f"{path}: {message}")

    def test_full_doc_is_valid(self, tmp_path):
        assert main(["solve", _write_archive(tmp_path / "p.npz")]) == 0

    # a number beyond the float64 range is stored as inf
    @pytest.mark.parametrize("keys, field", [
        (("P0", 0, 0), "P[0][0, 0]"),
        (("P1", 0), "P[1][0]"),
        (("q", 0, 0), "q[0][0]"),
        (("c", 1, 0), "c[1][0]"),
        (("r", 0), "r[0]"),
        (("A", 0, 0), "A[0, 0]"),
        (("B", 0, 0), "B[0, 0]"),
        (("b", 0), "b[0]"),
    ])
    def test_overflowing_number_exit_one(self, tmp_path, capsys, keys, field):
        path = _write_archive(tmp_path / "p.npz", keys, float("1e999"))
        assert main(["solve", path]) == 1
        assert f"{field} is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, value, field", [
        (("P0",), None, "missing member 'P0'"),
        (("P1",), None, "missing member 'P1'"),
        (("x_upper",), None, "missing member 'x_upper'"),
        # a Hessian member is (n1, n1) or, for a diagonal, (n1,)
        (("P0",), np.eye(2), "P0 has shape (2, 2), expected (1, 1) or (1,)"),
        (("P1",), np.ones((1, 2)), "P1 has shape (1, 2), expected (1, 1) or (1,)"),
        (("P1",), np.ones(2), "P1 has shape (2,), expected (1, 1) or (1,)"),
        (("P1",), np.ones((1, 1, 1)), "P1 has shape (1, 1, 1), expected (1, 1) or (1,)"),
        (("P0",), np.array(1.0), "P0 has shape (), expected (1, 1) or (1,)"),
        (("P0",), np.ones(0), "P0 has shape (0,), expected (1, 1) or (1,)"),
        # dims claim a second constraint, whose Hessian is not stored
        (("dims", 2), 2, "missing member 'P2'"),
        (("q",), np.array([-2.0, 0.0]), "q has shape (2,), expected (2, 1)"),
        (("dims",), np.array([1, 1, 1]), "dims has shape (3,), expected (4,)"),
        (("dims",), np.array([1, -1, 1, 1]), "dims must be nonnegative"),
    ])
    def test_malformed_field_exit_one_without_traceback(self, tmp_path, keys, value, field):
        _assert_error_names(_run_cli("solve", _write_archive(tmp_path / "p.npz", keys, value)), field)

    # every datum is float64 and the dimensions integers: strings, booleans,
    # integers and other float widths are rejected, not converted
    @pytest.mark.parametrize("name, value, field", [
        ("q", np.array([["-2.0"], ["0"]]), "q has dtype <U4, expected float64"),
        ("P0", np.array([[True]]), "P0 has dtype bool, expected float64"),
        ("P1", np.array([1]), "P1 has dtype int64, expected float64"),
        ("P1", np.array(["1.0"]), "P1 has dtype <U3, expected float64"),
        ("A", np.array([[False]]), "A has dtype bool, expected float64"),
        ("b", np.array(["0.5"]), "b has dtype <U3, expected float64"),
        ("r", np.array([0.0, -0.5], dtype=np.float32), "r has dtype float32, expected float64"),
        ("x_upper", np.array([True]), "x_upper has dtype bool, expected float64"),
        ("dims", np.array([1.7, 1.0, 1.0, 1.0]), "dims has dtype float64, expected an integer dtype"),
        ("dims", np.array([True, True, True, True]), "dims has dtype bool, expected an integer dtype"),
        # n2 given as the string "1" turns the whole member into strings
        pytest.param("dims", np.array([1, "1", 1, 1]), "dims has dtype <U21, expected an integer dtype",
                     id="keys9-1-'n2'"),
    ])
    def test_non_number_exit_one(self, tmp_path, name, value, field):
        _assert_error_names(_run_cli("solve", _write_archive(tmp_path / "p.npz", (name,), value)), field)

    def test_flagless_solve_uses_solver_config_defaults(self, toy_file, tmp_path):
        cli_report, cli_trace = tmp_path / "cli.json", tmp_path / "cli.csv"
        assert main(["solve", toy_file, "--report", str(cli_report), "--trace", str(cli_trace)]) == 0
        rep = solve(load_problem(toy_file), SolverConfig())
        rep.write_report_json(tmp_path / "api.json")
        rep.write_trace_csv(tmp_path / "api.csv")
        assert cli_report.read_bytes() == (tmp_path / "api.json").read_bytes()
        assert cli_trace.read_bytes() == (tmp_path / "api.csv").read_bytes()

    def test_max_iters_exit_two(self, toy_file):
        assert main(["solve", toy_file, "--tol", "1e-15", "--max-iters", "20"]) == 2

    def test_infeasible_exit_three(self, tmp_path):
        path = tmp_path / "infeasible.npz"
        assert main(["generate", "infeasible", "--n1", "64", "--seed", "1", "--out", str(path)]) == 0
        code = main([
            "solve", str(path), "--max-iters", "50000", "--divergence-threshold", "1e4",
        ])
        assert code == 3

    def test_unbounded_exit_four(self, tmp_path):
        path = tmp_path / "unbounded.npz"
        assert main(["generate", "unbounded", "--n1", "64", "--seed", "1", "--out", str(path)]) == 0
        assert main(["solve", str(path)]) == 4

    def test_unknown_flag_rejected(self, toy_file):
        with pytest.raises(SystemExit):
            main(["solve", toy_file, "--frobnicate"])

    @pytest.mark.parametrize("flags", [["--eps0", "0.1"], ["--weights", "equal"], ["--trace-every", "5"]],
                             ids=["eps0", "weights", "trace-every"])
    def test_removed_setting_is_not_a_flag(self, toy_file, flags):
        with pytest.raises(SystemExit):
            main(["solve", toy_file, *flags])

    def test_solver_flags_are_the_config_fields(self):
        # a solver flag is stored under its field name only when given; the
        # other options (output paths, help) have defaults of their own
        assert _stored_when_given(_subparser("solve")) == sorted(f.name for f in dataclasses.fields(SolverConfig))

    @pytest.mark.parametrize("flags, named", [
        (["--report", "{problem}"], ("problem", "--report")),
        (["--trace", "{dir}/sub/../toy.npz"], ("problem", "--trace")),
        (["--report", "{dir}/r.json", "--trace", "{dir}/./r.json"], ("--report", "--trace")),
    ], ids=["report-is-problem", "trace-is-problem", "report-is-trace"])
    def test_paths_naming_one_file_exit_one_before_writing(self, toy_file, tmp_path, flags, named):
        # an output that resolves to the problem or to the other output would
        # overwrite it: rejected before the solve, and no file is touched
        (tmp_path / "sub").mkdir()
        before = Path(toy_file).read_bytes()
        flags = [f.format(problem=toy_file, dir=tmp_path) for f in flags]
        proc = _run_cli("solve", toy_file, *flags)
        _assert_error_names(proc, f"{named[0]} and {named[1]}")
        assert proc.stdout == ""
        assert Path(toy_file).read_bytes() == before
        assert not (tmp_path / "r.json").exists()

    def test_identical_runs_identical_outputs(self, toy_file, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            report = tmp_path / f"report_{tag}.json"
            trace = tmp_path / f"trace_{tag}.csv"
            assert main(["solve", toy_file, "--tol", "1e-6", "--report", str(report), "--trace", str(trace)]) == 0
            outputs.append((report.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]


class TestGenerateCommand:
    def test_random_qcqp_deterministic(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        args = ["generate", "random-qcqp", "--n1", "64", "--m1", "2", "--dmin", "4", "--dmax", "5", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_random_qcqp_meta(self, tmp_path):
        # the sidecar records d_min and d_max, not the kappa derived from them
        out, meta = tmp_path / "p.npz", tmp_path / "meta.json"
        main(["generate", "random-qcqp", "--n1", "8", "--m1", "1", "--dmin", "0.1", "--dmax", "10", "--seed", "3",
              "--out", str(out), "--meta", str(meta)])
        doc = json.loads(meta.read_text())
        assert "kappa" not in doc
        assert doc["d_min"] == 0.1 and doc["d_max"] == 10.0
        assert doc["box_upper"] is None
        assert validate(load_problem(out)).ok

    @pytest.mark.parametrize("flags, settings", [
        (["random-qcqp", "--n1", "4", "--m1", "1"], RandomQcqpSpec),
        (["random-qcqp", "--n1", "4", "--m1", "1", "--box", "2"], RandomQcqpSpec),
        (["random-qcqp", "--n1", "4", "--m1", "1", "--box", "inf"], RandomQcqpSpec),
        (["random-qcqp", "--n1", "2", "--m1", "0", "--dmin", "1e-300", "--dmax", "1e300"], RandomQcqpSpec),
        (["mkl", "--ntr", "12", "--nt", "4", "--kernels", "linear,gaussian:0.5"], MklSpec),
        (["mkl", "--csv", "CSV", "--ntr", "12", "--nt", "4"], MklSpec),
        (["infeasible", "--n1", "4"], ("n1", "seed")),
        (["unbounded", "--n1", "4", "--seed", "2"], ("n1", "seed")),
    ], ids=["random-no-box", "random-box", "random-inf-box", "random-huge-kappa", "mkl-kernels", "mkl-csv",
            "infeasible", "unbounded"])
    def test_sidecar_is_strict_json_of_the_settings(self, tmp_path, flags, settings):
        # keys: family, then the spec's fields (the pathology families' n1 and
        # seed); mkl adds its split.  Nothing derived, such as kappa or R, and
        # no NaN or Infinity literal, even where d_max / d_min overflows
        if "CSV" in flags:
            csv = tmp_path / "d.csv"
            X, y = gen_twonorm(16, seed=5)
            csv.write_text("".join(f"{int(yi)}," + ",".join(map(repr, row.tolist())) + "\n" for yi, row in zip(y, X)))
            flags = [str(csv) if f == "CSV" else f for f in flags]
        meta = tmp_path / "meta.json"
        assert main(["generate", *flags, "--out", str(tmp_path / "p.npz"), "--meta", str(meta)]) == 0
        doc = json.loads(meta.read_text(), parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        names = settings if isinstance(settings, tuple) else tuple(f.name for f in dataclasses.fields(settings))
        split = ("train_indices", "test_indices") if flags[0] == "mkl" else ()
        assert sorted(doc) == sorted(("family", *names, *split))
        assert doc["family"] == flags[0]
        assert list(doc) == sorted(doc)

    def test_mkl_generates_valid_problem(self, tmp_path):
        out, meta = tmp_path / "mkl.npz", tmp_path / "meta.json"
        code = main(["generate", "mkl", "--ntr", "24", "--nt", "8",
                     "--svm", "sm2", "--c", "1.0", "--out", str(out), "--meta", str(meta)])
        assert code == 0
        p = load_problem(out)
        assert validate(p).ok
        assert p.n1 == 24 and p.m1 == 5 and p.m2 == 1 and p.n2 == 1
        doc = json.loads(meta.read_text())
        assert doc["kernels"] == ["gaussian:0.01", "gaussian:0.1", "gaussian:1", "gaussian:10", "gaussian:100"]
        assert len(doc["train_indices"]) == 24

    def test_mkl_custom_kernels(self, tmp_path):
        out = tmp_path / "mkl.npz"
        code = main(["generate", "mkl", "--ntr", "12", "--nt", "4", "--kernels",
                     "linear,polynomial,gaussian:0.5", "--out", str(out)])
        assert code == 0
        assert load_problem(out).m1 == 3

    # a rejected value exits 1 and the message names the spec field (or, for
    # the pathology families, the argument) the flag sets
    @pytest.mark.parametrize("args, flag", [
        (["random-qcqp", "--n1", "4", "--m1", "1", "--seed", "-1"], "--seed"),
        (["infeasible", "--n1", "4", "--seed", "-1"], "--seed"),
        (["random-qcqp", "--n1", "4", "--m1", "1", "--dmin", "1", "--dmax", "inf"], "--dmax"),
        (["random-qcqp", "--n1", "4", "--m1", "1", "--box", "nan"], "--box"),
        (["unbounded", "--n1", "4", "--seed", "-1"], "--seed"),
        (["mkl", "--ntr", "12", "--nt", "4", "--seed", "-1"], "--seed"),
        (["random-qcqp", "--n1", "4", "--m1", "1", "--dmin", "nan"], "--dmin"),
        (["mkl", "--ntr", "12", "--nt", "4", "--c", "nan"], "--c"),
        (["mkl", "--ntr", "12", "--nt", "4", "--svm", "sm3"], "--svm"),
        (["mkl", "--ntr", "12", "--nt", "4", "--kernels", "gaussian:nan"], "--kernels"),
        (["mkl", "--ntr", "12", "--nt", "4", "--kernels", "rbf:1"], "--kernels"),
    ])
    def test_bad_flag_exit_one_without_file(self, tmp_path, args, flag):
        dest = next(a.dest for a in _subparser("generate", args[0])._actions if flag in a.option_strings)
        out = tmp_path / "x.npz"
        _assert_error_names(_run_cli("generate", *args, "--out", str(out)), dest)
        assert not out.exists()

    def test_one_dimensional_infeasible_names_n1(self, tmp_path):
        # the family has no kappa setting, so the error must be its own
        out = tmp_path / "x.npz"
        _assert_error_names(_run_cli("generate", "infeasible", "--n1", "1", "--out", str(out)), "n1 must be")
        assert not out.exists()

    def test_missing_csv_exit_one_without_file(self, tmp_path):
        csv, out = tmp_path / "missing.csv", tmp_path / "x.npz"
        proc = _run_cli("generate", "mkl", "--csv", str(csv), "--ntr", "4", "--nt", "2", "--out", str(out))
        _assert_error_names(proc, str(csv))
        assert not out.exists()

    def test_empty_csv_path_exit_one_without_file(self, tmp_path):
        out = tmp_path / "x.npz"
        proc = _run_cli("generate", "mkl", "--csv", "", "--ntr", "4", "--nt", "2", "--out", str(out))
        _assert_error_names(proc, "csv_path")
        assert not out.exists()

    def test_csv_points_are_read(self, tmp_path):
        # the file holds twonorm points of seed 5, the instance's seed is 0:
        # the two files match only if the CSV is ignored
        X, y = gen_twonorm(80, seed=5)
        csv = tmp_path / "d.csv"
        csv.write_text("".join(f"{int(yi)}," + ",".join(map(repr, row.tolist())) + "\n" for yi, row in zip(y, X)))
        flags = ["generate", "mkl", "--ntr", "60", "--nt", "20"]
        from_csv, twonorm, meta = tmp_path / "c.npz", tmp_path / "t.npz", tmp_path / "c.json"
        assert main([*flags, "--csv", str(csv), "--out", str(from_csv), "--meta", str(meta)]) == 0
        assert main([*flags, "--out", str(twonorm)]) == 0
        assert from_csv.read_bytes() != twonorm.read_bytes()
        doc = json.loads(meta.read_text())
        assert doc["csv_path"] == str(csv) and "dataset" not in doc

    def test_bad_spec_exit_one(self, tmp_path, capsys):
        code = main(["generate", "random-qcqp", "--n1", "4", "--m1", "1",
                     "--dmin", "2.0", "--dmax", "1.0", "--out", str(tmp_path / "x.npz")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("family, spec", [("random-qcqp", RandomQcqpSpec), ("mkl", MklSpec)])
    def test_generate_flags_are_the_spec_fields(self, family, spec):
        # as for solve: stored under the field name only when given, so the
        # spec holds the one default and the one check of every setting
        assert _stored_when_given(_subparser("generate", family)) == sorted(f.name for f in dataclasses.fields(spec))

    @pytest.mark.parametrize("args", [
        ["random-qcqp", "--n1", "4", "--m1", "1", "--cond", "100"],
        ["mkl", "--r", "5"],
        ["mkl", "--dim", "20"],
        ["mkl", "--dataset", "csv"],
    ], ids=["cond", "r", "dim", "dataset"])
    def test_removed_setting_is_not_a_flag(self, tmp_path, args):
        with pytest.raises(SystemExit):
            main(["generate", *args, "--out", str(tmp_path / "x.npz")])

    @pytest.mark.parametrize("flags, problem", [
        (["mkl", "--ntr", "60", "--seed", "0"], lambda: build_mkl_qcqp(MklSpec(n_tr=60, seed=0))[0]),
        (["random-qcqp", "--n1", "8", "--m1", "1", "--dmin", "0.1", "--dmax", "10", "--box", "2"],
         lambda: gen_random_qcqp(RandomQcqpSpec(n1=8, m1=1, d_min=0.1, d_max=10.0, box_upper=2.0))),
    ], ids=["mkl", "random-qcqp"])
    def test_cli_writes_the_library_instance(self, tmp_path, flags, problem):
        cli, api = tmp_path / "cli.npz", tmp_path / "api.npz"
        assert main(["generate", *flags, "--out", str(cli)]) == 0
        save_problem(problem(), api)
        assert cli.read_bytes() == api.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["random-qcqp", "--n1", "6", "--m1", "2", "--dmin", "0.5", "--dmax", "3", "--box", "0.5", "--seed", "4"],
        ["random-qcqp", "--n1", "6", "--m1", "1", "--box", "inf"],
        ["mkl", "--ntr", "10", "--svm", "sm1", "--c", "2.5", "--seed", "3",
         "--kernels", "linear,gaussian:0.123456789,polynomial"],
        ["infeasible", "--n1", "5", "--seed", "6"],
        ["unbounded", "--n1", "5", "--seed", "6"],
    ], ids=["random-box", "random-inf-box", "mkl", "infeasible", "unbounded"])
    def test_sidecar_reproduces_the_file(self, tmp_path, flags):
        out, meta, again = tmp_path / "p.npz", tmp_path / "meta.json", tmp_path / "again.npz"
        assert main(["generate", *flags, "--out", str(out), "--meta", str(meta)]) == 0
        doc = json.loads(meta.read_text(), parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        family = doc.pop("family")
        if family in ("infeasible", "unbounded"):
            generate = gen_infeasible if family == "infeasible" else gen_unbounded
            problem = generate(doc["n1"], seed=doc["seed"])
        else:
            if family == "mkl":
                doc["kernels"] = _parse_kernels(",".join(doc["kernels"]))
            spec, build = {"mkl": (MklSpec, lambda s: build_mkl_qcqp(s)[0]),
                           "random-qcqp": (RandomQcqpSpec, gen_random_qcqp)}[family]
            problem = build(spec(**{f.name: doc[f.name] for f in dataclasses.fields(spec)}))
        save_problem(problem, again)
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("flags", [["infeasible", "--n1", "4"], ["random-qcqp", "--n1", "4", "--m1", "1"]],
                             ids=["infeasible", "random-qcqp"])
    def test_sidecar_that_cannot_be_written_leaves_no_problem_file(self, tmp_path, capsys, flags):
        # the sidecar's directory does not exist: exit 1, and neither file is left
        out, meta = tmp_path / "x.npz", tmp_path / "nodir" / "m.json"
        assert main(["generate", *flags, "--out", str(out), "--meta", str(meta)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert "wrote" not in captured.out and "nodir" in captured.err

    def test_out_and_meta_naming_one_file_exit_one_without_file(self, tmp_path, monkeypatch):
        # the sidecar would overwrite the problem file it describes
        monkeypatch.chdir(tmp_path)
        proc = _run_cli("generate", "infeasible", "--n1", "4", "--out", "s.npz", "--meta", str(tmp_path / "s.npz"))
        _assert_error_names(proc, "--out and --meta")
        assert "wrote" not in proc.stdout
        assert not (tmp_path / "s.npz").exists()

    @pytest.mark.parametrize("flag", ["--out", "--meta"])
    def test_output_naming_the_csv_exit_one_leaves_it(self, tmp_path, flag):
        # the problem file or the sidecar would overwrite the points it is built from
        X, y = gen_twonorm(20, seed=5)
        csv = tmp_path / "d.csv"
        csv.write_text("".join(f"{int(yi)}," + ",".join(map(repr, row.tolist())) + "\n" for yi, row in zip(y, X)))
        before = csv.read_bytes()
        paths = {"--out": str(tmp_path / "m.npz"), "--meta": str(tmp_path / "m.json"), flag: str(csv)}
        proc = _run_cli("generate", "mkl", "--csv", str(csv), "--ntr", "12", "--nt", "4",
                        *[arg for item in paths.items() for arg in item])
        _assert_error_names(proc, f"--csv and {flag}")
        assert csv.read_bytes() == before
        assert not (tmp_path / "m.npz").exists() and not (tmp_path / "m.json").exists()

    @given(st.lists(st.one_of(
        st.sampled_from([Kernel("linear"), Kernel("polynomial")]),
        st.floats(min_value=0, exclude_min=True, allow_infinity=False).map(lambda s2: Kernel("gaussian", s2)),
    ), min_size=1, max_size=4))
    def test_kernels_parser_inverts_label(self, kernels):
        assert _parse_kernels(",".join(k.label() for k in kernels)) == tuple(kernels)


class TestCheckKkt:
    def test_kkt_point_reports_zero(self, toy_file, tmp_path, capsys):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"x": [1.0], "u": [], "lambda": [1.0], "gamma": []}))
        assert main(["check-kkt", toy_file, str(point)]) == 0
        out = capsys.readouterr().out
        kkt = float(out.splitlines()[0].split("=")[1])
        assert kkt <= 1e-12
        assert "res1=" in out and "res2=" in out

    def test_negative_multiplier_rejected(self, toy_file, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"x": [1.0], "u": [], "lambda": [-1.0], "gamma": []}))
        assert main(["check-kkt", toy_file, str(point)]) == 1

    def test_wrong_length_rejected(self, toy_file, tmp_path):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"x": [1.0, 2.0], "u": [], "lambda": [0.0], "gamma": []}))
        assert main(["check-kkt", toy_file, str(point)]) == 1

    @pytest.mark.parametrize("text, field", [
        ('{"x": [1.0], "lambda": [NaN]}', "lambda"),
        ('{"x": [1e999], "lambda": [1.0]}', "x[0] is not finite"),
        ("5", "JSON object"),
        ('{"x": [1.0], "lambda": [1.0], "gamma": {}}', "gamma"),
        ('{"x": [[1.0]], "lambda": [1.0]}', "x"),
        ('{"x": [true], "lambda": [1.0]}', "x"),
        ('{"x": ["1.0"], "lambda": [1.0]}', "x"),
        ('{"x": [null], "lambda": [1.0]}', "x: None"),  # a diverged report's non-finite entry
        (b'{"x": [1.0], "lambda": [1.0]}\xa7', "not a UTF-8 text file (invalid start byte at byte 29)"),
    ])
    def test_malformed_point_exit_one_without_traceback(self, toy_file, tmp_path, text, field):
        # every message names the point file, as well as the field
        point = tmp_path / "point.json"
        point.write_bytes(text) if isinstance(text, bytes) else point.write_text(text)
        proc = _run_cli("check-kkt", toy_file, str(point))
        _assert_error_names(proc, f"{point}: ")
        _assert_error_names(proc, field)

    def test_solve_report_is_a_point(self, toy_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["solve", toy_file, "--tol", "1e-6", "--report", str(report)]) == 0
        assert main(["check-kkt", toy_file, str(report)]) == 0
        assert float(capsys.readouterr().out.splitlines()[-2].split("=")[1]) <= 1e-4

    @pytest.mark.parametrize("workers", [1, 3])
    def test_reproduces_the_solve_residuals(self, tmp_path, capsys, workers):
        # the MKL instance has a u block, an equality row, a diagonal P0 and dense constraint Hessians
        problem = tmp_path / "mkl.npz"
        assert main(["generate", "mkl", "--ntr", "12", "--nt", "4", "--out", str(problem)]) == 0
        report = tmp_path / "report.json"
        assert main(["solve", str(problem), "--workers", str(workers), "--report", str(report)]) == 0
        capsys.readouterr()
        assert main(["check-kkt", str(problem), str(report)]) == 0
        printed = dict(item.split("=") for item in capsys.readouterr().out.splitlines()[-1].split())
        solved = json.loads(report.read_text())
        for name in ("res1", "res2"):
            assert float(printed[name]) == pytest.approx(solved[name], rel=1e-9)
