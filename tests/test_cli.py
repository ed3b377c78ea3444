import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gmfg import ConfigError, parse_scenario
from gmfg.cli import main


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_python(args):
    """Run the interpreter on ``args`` with this checkout's ``src`` first on
    the import path."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def lq_scenario():
    return {
        "kind": "lq",
        "problem": {"A": 0.0, "B": 1.0, "D0": 0.0, "D": 0.2, "Sigma": 0.5,
                    "Q": 1.0, "R": 1.0, "Q_T": 0.0, "gamma0": 0.0, "gamma": 0.5,
                    "eta": 1.0, "x0": 1.0, "T": 1.0},
        "graphon": {"kind": "uniform_attachment"},
        "grids": {"M": 8, "K": 80},
        "seeds": {"master": 42},
    }


def nonlinear_scenario(**over):
    doc = {
        "kind": "nonlinear",
        "problem": {
            "form": "structured",
            "f0": {"kind": "constant", "c": 1.0},
            "f": {"kind": "constant", "c": 0.0},
            "l1": {"kind": "poly2", "xx": 1.0, "xy": -2.0, "yy": 1.0},
            "l2": {"kind": "constant", "c": 1.0},
            "l3": 0.0,
            "l4": 0.0,
            "control_set": [-1.0, 1.0],
            "sigma": 0.3,
            "T": 0.25,
            "initial": {"kind": "dirac", "x": 0.0},
        },
        "graphon": {"kind": "constant", "c": 0.0},
        "grids": {"M": 2, "K": 8, "N_x": 61, "R": 120,
                  "output_atoms": 8},
        "seeds": {"master": 7},
        "tolerances": {"picard_tol": 0.3, "max_outer": 12},
    }
    doc.update(over)
    return doc


_UNKNOWN_FIELDS = [
    # a misspelt coefficient would otherwise parse as l1 = 0
    ("solve-gmfg", lambda d: d["problem"].update(l_1=1.0), "problem.l_1"),
    # a misspelt c would otherwise give the empty graph
    ("solve-gmfg", lambda d: d.update(graphon={"kind": "constant", "cc": 0.5}),
     "graphon.cc"),
    ("solve-gmfg", lambda d: d.update(tolerance={"picard_tol": 0.1}), "tolerance"),
    ("solve-gmfg", lambda d: d["seeds"].update(mastr=3), "seeds.mastr"),
    ("solve-gmfg", lambda d: d["problem"]["l2"].update(C=2.0), "problem.l2.C"),
    ("solve-gmfg", lambda d: d["problem"]["l1"].update(x2=1.0), "problem.l1.x2"),
    ("solve-gmfg", lambda d: d["problem"]["initial"].update(mean=0.5),
     "problem.initial.mean"),
    ("solve-lq", lambda d: d["problem"].update(R_mc=10_000), "problem.R_mc"),
    ("solve-lq", lambda d: d["problem"].update(sigma=0.3), "problem.sigma"),
    ("solve-lq", lambda d: d.update(graphon={"kind": "uniform_attachment",
                                             "c": 0.5}), "graphon.c"),
    ("graphon-diag", lambda d: d.update(diagnostics={"refinment": 4}),
     "diagnostics.refinment"),
]


# an absent field must not take a silent default
_ABSENT_FIELDS = [
    *[(lambda d, name=name: d["problem"].pop(name), f"problem.{name}")
      for name in ("f0", "f", "l1", "l2", "l3", "l4")],
    (lambda d: d["problem"].update(l2={"kind": "constant"}), "problem.l2.c"),
    # c = 0 would be the empty graph
    (lambda d: d.update(graphon={"kind": "constant"}), "graphon.c"),
]


# json reads NaN and Infinity; each must stop the LQ parse, named by its field
_NON_FINITE_LQ = [("A", float("inf")), ("B", [[float("nan")]]), ("D0", float("nan")),
                  ("D", [[float("-inf")]]), ("Sigma", float("nan")),
                  ("Q", [[float("nan")]]), ("R", float("inf")),
                  ("Q_T", float("nan")), ("eta", [float("nan")]),
                  ("x0", float("inf"))]


class TestParseScenario:
    def test_minimal_lq_parses(self, tmp_path):
        sc = parse_scenario(write_config(tmp_path / "s.json", lq_scenario()))
        p = sc.build_lq()
        assert p.n == 1 and p.M == 8
        assert len(sc.hash) == 12

    def test_all_violations_reported_at_once(self, tmp_path):
        doc = nonlinear_scenario()
        doc["problem"]["sigma"] = -0.3
        doc["problem"]["control_set"] = [2.0, -2.0]
        doc["graphon"] = {"kind": "mystery"}
        cfg = write_config(tmp_path / "bad.json", doc)
        with pytest.raises(ConfigError) as err:
            parse_scenario(cfg)
        text = "\n".join(err.value.problems)
        assert "problem.sigma" in text
        assert "problem.control_set" in text
        assert "graphon" in text
        assert len(err.value.problems) >= 3

    def test_unknown_kernel_rejected(self, tmp_path):
        doc = lq_scenario()
        doc["graphon"] = {"kind": "small_world"}
        with pytest.raises(ConfigError):
            parse_scenario(write_config(tmp_path / "s.json", doc))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_scenario("/nonexistent/path.json")

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", lq_scenario())
        a = parse_scenario(cfg)
        b = parse_scenario(cfg, seed_override=99)
        assert b.seed == 99
        assert a.hash != b.hash

    def test_product_and_table_kernels(self, tmp_path):
        doc = lq_scenario()
        doc["graphon"] = {"kind": "product", "values": [0.2, 0.8, 0.5]}
        sc = parse_scenario(write_config(tmp_path / "p.json", doc))
        assert sc.graphon.evaluate(0.0, 0.0) == pytest.approx(0.04)
        doc["graphon"] = {"kind": "table",
                          "grid": [[0.1, 0.4], [0.4, 0.9]]}
        sc = parse_scenario(write_config(tmp_path / "t.json", doc))
        assert sc.graphon.evaluate(0.5, 0.5) == pytest.approx(0.45)

    def test_clipped_poly2_expression(self, tmp_path):
        doc = nonlinear_scenario()
        doc["problem"]["f0"] = {"kind": "poly2", "y": 1.0, "x": -1.0,
                                "clip": [-2.0, 2.0]}
        sc = parse_scenario(write_config(tmp_path / "s.json", doc))
        f0 = sc.build_functions().structured_parts["f0"]
        assert f0(0.0, 5.0) == pytest.approx(2.0)  # clipped
        assert f0(0.5, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("block", ["grids", "seeds", "tolerances", "ladder",
                                       "diagnostics"])
    def test_empty_non_object_block_is_input_error(self, tmp_path, block):
        doc = nonlinear_scenario()
        doc[block] = []
        with pytest.raises(ConfigError) as err:
            parse_scenario(write_config(tmp_path / "s.json", doc))
        assert f"{block}: must be an object" in err.value.problems

    def test_every_shipped_scenario_parses(self):
        folder = os.path.join(os.path.dirname(__file__), "..", "demos", "scenarios")
        names = sorted(n for n in os.listdir(folder) if n.endswith(".json"))
        assert names
        for name in names:
            parse_scenario(os.path.join(folder, name))

    @pytest.mark.parametrize("command, edit, field", _UNKNOWN_FIELDS,
                             ids=[case[2] for case in _UNKNOWN_FIELDS])
    def test_unknown_field_is_input_error(self, tmp_path, capsys, command, edit,
                                          field):
        doc = lq_scenario() if command == "solve-lq" else nonlinear_scenario()
        edit(doc)
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert f"gmfg: {field}: unknown field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, field", _ABSENT_FIELDS,
                             ids=[case[1] for case in _ABSENT_FIELDS])
    def test_absent_field_is_input_error(self, tmp_path, capsys, edit, field):
        doc = nonlinear_scenario()
        edit(doc)
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["solve-gmfg", "--config", cfg, "--out", str(out)]) == 1
        assert f"gmfg: {field}: missing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", _NON_FINITE_LQ,
                             ids=[case[0] for case in _NON_FINITE_LQ])
    def test_non_finite_lq_entry_is_input_error(self, tmp_path, capsys, field,
                                                value):
        doc = lq_scenario()
        doc["problem"][field] = value
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["solve-lq", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"gmfg: problem.{field}: entries must be finite numbers" in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("A", [["x"]]), ("eta", ["x"])])
    def test_non_numeric_lq_entry_is_input_error(self, tmp_path, capsys, field,
                                                 value):
        doc = lq_scenario()
        doc["problem"][field] = value
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["solve-lq", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"gmfg: problem.{field}: entries must be finite numbers" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve-lq", "solve-gmfg"])
    def test_non_finite_graphon_value_is_input_error(self, tmp_path, capsys,
                                                     command):
        doc = lq_scenario() if command == "solve-lq" else nonlinear_scenario()
        doc["graphon"] = {"kind": "product", "values": [float("nan"), 0.5]}
        doc["grids"]["M"] = 2
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "gmfg: graphon: product profile values must be finite numbers" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("weights", [[float("nan")] * 2, [1.0, float("nan")]])
    def test_non_finite_initial_weights_are_input_error(self, tmp_path, capsys,
                                                        weights):
        doc = nonlinear_scenario()
        doc["problem"]["initial"] = {"kind": "atoms", "atoms": [-0.1, 0.1],
                                     "weights": weights}
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["solve-gmfg", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "gmfg: problem.initial: weights must be finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("diagnostics, field", [
        ({"m_values": ["x"]}, "diagnostics.m_values[0]"),
        ({"m_values": [4, 0]}, "diagnostics.m_values[1]"),
        ({"m_values": []}, "diagnostics.m_values"),
        ({"m_values": 8}, "diagnostics.m_values"),
        ({"refinement": 0}, "diagnostics.refinement"),
        ({"refinement": 2.5}, "diagnostics.refinement"),
    ])
    def test_bad_diagnostics_is_input_error(self, tmp_path, capsys, diagnostics,
                                            field):
        doc = nonlinear_scenario(diagnostics=diagnostics)
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["graphon-diag", "--config", cfg, "--out", str(out)]) == 1
        assert f"gmfg: {field}: must be" in capsys.readouterr().err
        assert not out.exists()


class TestSolveLQCommand:
    def test_outputs_written(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", lq_scenario())
        out = tmp_path / "out"
        assert main(["solve-lq", "--config", cfg, "--out", str(out)]) == 0
        for name in ("riccati.csv", "meanfield.csv", "gains.json",
                     "diagnostics.json"):
            assert (out / name).exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["c_lambda"] < 1.0
        assert diag["residual"] < 1e-8
        assert "wall_time" not in diag
        lines = (out / "riccati.csv").read_text().splitlines()
        assert lines[0].startswith("# scenario_hash=")
        assert lines[1].startswith("# artifact_version=")
        assert lines[2] == "t_index,time,row,col,pi"

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", lq_scenario())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["solve-lq", "--config", cfg, "--out", str(out1)])
        main(["solve-lq", "--config", cfg, "--out", str(out2)])
        for name in ("riccati.csv", "meanfield.csv", "gains.json",
                     "diagnostics.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_gains_rebuild_the_feedback_from_the_csvs(self, tmp_path):
        """gains.json holds R^-1 B' once: with Pi from riccati.csv and s from
        meanfield.csv it rebuilds the affine feedback -R^-1 B' (Pi x + s) of
        a direct solve on the two-state, two-input copy of the shipped
        scenario, and it holds no table over time nodes or vertices."""
        from gmfg.lq import solve_lq_fixed_point

        with open(os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                               "scenarios", "lq_uniform_attachment.json")) as fh:
            doc = json.load(fh)
        doc["problem"].update(
            A=[[0.1, 0.3], [-0.2, 0]], B=[[1, 0.4], [-0.3, 0.7]],
            D0=[[0.05, 0], [0, 0.02]], D=[[0.2, 0.1], [0, 0.2]],
            Sigma=[[0.5, 0], [0.1, 0.3]], Q=[[1, 0.2], [0.2, 0.8]],
            R=[[1, 0.3], [0.3, 0.6]], Q_T=[[0.3, 0], [0, 0.1]], eta=[0.5, -0.2],
            x0=[1, 0.3])
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["solve-lq", "--config", cfg, "--out", str(out)]) == 0
        sc = parse_scenario(cfg)
        p = sc.build_lq()
        sol = solve_lq_fixed_point(p, tol=sc.lq_tol)

        gains = json.loads((out / "gains.json").read_text())
        assert sorted(gains) == ["Rinv_Bt", "meta", "note"]
        assert "-Rinv_Bt (pi[t] x + s[vertex, t])" in gains["note"]
        assert "riccati.csv" in gains["note"] and "meanfield.csv" in gains["note"]
        rinv_bt = np.array(gains["Rinv_Bt"])
        assert rinv_bt.shape == (p.n_u, p.n)
        pi = np.loadtxt(out / "riccati.csv", delimiter=",", skiprows=3,
                        usecols=4).reshape(p.K + 1, p.n, p.n)
        s = np.loadtxt(out / "meanfield.csv", delimiter=",", skiprows=3,
                       usecols=4).reshape(p.M, p.K + 1, p.n)
        direct = p.Rinv @ p.B.T
        np.testing.assert_allclose(rinv_bt @ pi, direct @ sol.riccati.Pi,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(s @ rinv_bt.T, sol.s @ direct.T,
                                   rtol=0, atol=1e-12)
        # Rinv_Bt is the only array: no axis over time nodes or vertices
        assert not {p.K + 1, p.M} & set(rinv_bt.shape)

    def test_singular_fundamental_matrix_is_numerical_error(self, tmp_path):
        """A stable stiff mode (eigenvalue -20 over T = 2) drives the
        closed-loop fundamental matrix singular to working precision: the
        run exits 2 with a gmfg: line, not a traceback."""
        c, s = np.cos(0.4), np.sin(0.4)
        rot = np.array([[c, -s], [s, c]])
        doc = lq_scenario()
        doc["problem"].update(
            A=(rot @ np.diag([-20.0, 0.5]) @ rot.T).tolist(), B=[[1], [0.5]],
            D0=[[0.05, 0], [0, 0.02]], D=[[0.2, 0.1], [0, 0.2]],
            Sigma=[[0.5, 0], [0.1, 0.3]], Q=[[1, 0.2], [0.2, 0.8]], R=[[1]],
            Q_T=[[0.3, 0], [0, 0.1]], eta=[0.5, -0.2], x0=[1, 0.3], T=2.0)
        cfg = write_config(tmp_path / "s.json", doc)
        proc = run_python(["-m", "gmfg.cli", "solve-lq", "--config", cfg,
                           "--out", str(tmp_path / "out")])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("gmfg: fundamental matrix is singular")


class TestSolveGMFGCommand:
    def test_outputs_written(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", nonlinear_scenario())
        out = tmp_path / "out"
        assert main(["solve-gmfg", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "ensemble.csv").exists()
        assert (out / "policy_000.csv").exists()
        assert (out / "policy_001.csv").exists()
        trace = json.loads((out / "trace.json").read_text())
        assert trace["converged"] is True
        assert trace["trace"][-1]["distance"] < trace["tolerance"]

    def test_phase_seconds_only_under_timing(self, tmp_path, monkeypatch):
        """Without GMFG_TIMING the trace carries no timing; with it, each
        Picard entry gains the four phase times and nothing else moves:
        dropping the timing keys gives the default trace.json bytes."""
        from gmfg.artifacts import json_text

        cfg = write_config(tmp_path / "s.json", nonlinear_scenario())
        monkeypatch.delenv("GMFG_TIMING", raising=False)
        assert main(["solve-gmfg", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        default = (tmp_path / "o" / "trace.json").read_text()
        assert "phase_seconds" not in default and "wall_time" not in default
        monkeypatch.setenv("GMFG_TIMING", "1")
        assert main(["solve-gmfg", "--config", cfg, "--out", str(tmp_path / "t")]) == 0
        timed = json.loads((tmp_path / "t" / "trace.json").read_text())
        assert timed.pop("wall_time") >= 0.0
        for entry in timed["trace"]:
            phases = entry.pop("phase_seconds")
            assert sorted(phases) == ["fields", "hjb", "propagate", "w1"]
            assert all(v >= 0.0 for v in phases.values())
        assert json_text(timed) + "\n" == default
        for name in os.listdir(tmp_path / "o"):
            if name != "trace.json":
                assert ((tmp_path / "o" / name).read_bytes()
                        == (tmp_path / "t" / name).read_bytes())

    def test_exit_2_on_nonconvergence_with_trace(self, tmp_path):
        doc = nonlinear_scenario()
        doc["tolerances"] = {"picard_tol": 0.3, "max_outer": 1}
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["solve-gmfg", "--config", cfg, "--out", str(out)]) == 2
        trace = json.loads((out / "trace.json").read_text())
        assert trace["converged"] is False
        assert len(trace["trace"]) == 1

    def test_trace_reports_distance_floor(self, tmp_path):
        """trace.json names the rounding floor of the pass distances, the
        level that ends a solve at its fixed point, on the converged and on
        the failed path."""
        doc = nonlinear_scenario()
        cfg = write_config(tmp_path / "s.json", doc)
        floor = parse_scenario(cfg).build_problem().distance_floor
        assert 0.0 < floor < 1e-12
        assert main(["solve-gmfg", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
        doc["tolerances"] = {"picard_tol": 0.3, "max_outer": 1}
        cfg = write_config(tmp_path / "f.json", doc)
        assert main(["solve-gmfg", "--config", cfg, "--out", str(tmp_path / "no")]) == 2
        for name, converged in (("ok", True), ("no", False)):
            trace = json.loads((tmp_path / name / "trace.json").read_text())
            assert trace["converged"] is converged
            assert trace["distance_floor"] == floor

    def test_numerical_error_exits_2_without_traceback(self, tmp_path, capsys,
                                                        monkeypatch):
        """Every package error leaves main as gmfg: lines on stderr, here a
        NumericalError of the solve with exit code 2."""
        from gmfg import NumericalError, cli

        def failing(*args, **kwargs):
            raise NumericalError("propagation diverged at row 1")

        monkeypatch.setattr(cli, "picard_solve", failing)
        cfg = write_config(tmp_path / "s.json", nonlinear_scenario())
        assert main(["solve-gmfg", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["gmfg: propagation diverged at row 1"]
        assert "Traceback" not in err

    def test_min_outer_above_max_outer_is_input_error(self, tmp_path, capsys):
        doc = nonlinear_scenario()
        doc["tolerances"] = {"picard_tol": 0.3, "min_outer": 5, "max_outer": 4}
        cfg = write_config(tmp_path / "s.json", doc)
        assert main(["solve-gmfg", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 1
        assert "tolerances.min_outer" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trace.json").exists()

    @pytest.mark.parametrize("key, value", [("compress_q", 16), ("N_u", 41)])
    def test_unknown_grid_key_is_input_error(self, tmp_path, capsys, key, value):
        doc = nonlinear_scenario()
        doc["grids"][key] = value
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["solve-gmfg", "--config", cfg, "--out", str(out)]) == 1
        assert f"grids.{key}: unknown field" in capsys.readouterr().err
        assert not out.exists()

    def test_input_error_exit_1(self, tmp_path):
        assert main(["solve-gmfg", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", nonlinear_scenario())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["solve-gmfg", "--config", cfg, "--out", str(out1)])
        main(["solve-gmfg", "--config", cfg, "--out", str(out2)])
        for name in sorted(os.listdir(out1)):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_policy_csvs_hold_the_solved_table(self, tmp_path):
        """policy_{v:03d}.csv is row v of the feedback table that a direct
        solve of the same scenario returns, byte for byte."""
        from gmfg import picard_solve
        from gmfg.artifacts import index_columns, write_csv
        from gmfg.cli import _meta

        doc = nonlinear_scenario()
        doc["graphon"] = {"kind": "uniform_attachment"}
        # a graphon drift term makes the vertex policies differ: with
        # f = l3 = l4 = 0 the vertices play one game, and an exact law
        # gives them one policy
        doc["problem"]["f"] = {"kind": "constant", "c": 0.2}
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["solve-gmfg", "--config", cfg, "--out", str(out)]) == 0
        sc = parse_scenario(cfg)
        problem = sc.build_problem()
        sol = picard_solve(problem, tol=sc.picard_tol, max_outer=sc.max_outer,
                           min_outer=sc.min_outer)
        assert sol.policy.shape == (problem.M, problem.K + 1, problem.N_x)
        assert not np.array_equal(sol.policy[0], sol.policy[1])
        for v in range(problem.M):
            write_csv(tmp_path / "ref.csv", ["t_index", "x_index", "value"],
                      index_columns(sol.policy[v]), _meta(sc))
            assert ((out / f"policy_{v:03d}.csv").read_bytes()
                    == (tmp_path / "ref.csv").read_bytes())

    def test_gmfg_seed_env_override(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "s.json", nonlinear_scenario())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["solve-gmfg", "--config", cfg, "--out", str(out1)])
        monkeypatch.setenv("GMFG_SEED", "1234")
        main(["solve-gmfg", "--config", cfg, "--out", str(out2)])
        t1 = json.loads((out1 / "trace.json").read_text())
        t2 = json.loads((out2 / "trace.json").read_text())
        assert t1["meta"]["scenario_hash"] != t2["meta"]["scenario_hash"]

    def test_non_integer_gmfg_seed_is_input_error(self, tmp_path, capsys,
                                                  monkeypatch):
        cfg = write_config(tmp_path / "s.json", nonlinear_scenario())
        out = tmp_path / "out"
        monkeypatch.setenv("GMFG_SEED", "abc")
        assert main(["graphon-diag", "--config", cfg, "--out", str(out)]) == 1
        assert "gmfg: GMFG_SEED must be an integer" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateEnashCommand:
    def test_tiny_ladder_report(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GMFG_TIMING", raising=False)
        doc = nonlinear_scenario()
        doc["graphon"] = {"kind": "uniform_attachment"}
        doc["ladder"] = {"rungs": [[1, 3], [2, 4]], "replications": 2,
                        "deviator": 0}
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["simulate-enash", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["rungs"]) == 2
        rung = report["rungs"][0]
        assert set(rung) == {
            "M_k", "cluster_size", "N", "eps1", "eps1_se", "eps2", "eps2_se",
            "eps3", "eps3_se", "gap", "gap_se", "equilibrium_cost",
            "equilibrium_cost_se", "deviation_costs", "family", "n_reps",
            "solution_iterations", "system_c_law_passes"}
        assert rung["N"] == 3
        assert all(r["system_c_law_passes"] >= 1 for r in report["rungs"])

    def test_ladder_run_does_not_import_numpy_ma(self, tmp_path, monkeypatch):
        """A ladder run uses no masked arrays, so it must not pay for the
        numpy.ma import (which np.unique triggers through its masked-array
        check); its report is the bytes an in-process run writes."""
        monkeypatch.delenv("GMFG_TIMING", raising=False)
        shipped = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                               "scenarios", "enash_ladder.json")
        argv = ["simulate-enash", "--config", shipped, "--ladder", "2:25", "--out"]
        proc = run_python(["-c", "import sys; from gmfg.cli import main; "
                           "code = main(sys.argv[1:]); sys.exit(code or "
                           "('numpy.ma' in sys.modules and 'numpy.ma was imported'))",
                           *argv, str(tmp_path / "sub")])
        assert proc.returncode == 0, proc.stderr
        assert main([*argv, str(tmp_path / "in")]) == 0
        assert ((tmp_path / "sub" / "report.json").read_bytes()
                == (tmp_path / "in" / "report.json").read_bytes())

    def test_dump_paths_and_ladder_override(self, tmp_path):
        doc = nonlinear_scenario()
        doc["ladder"] = {"rungs": [[1, 3]], "replications": 2}
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        code = main(["simulate-enash", "--config", cfg, "--out", str(out),
                     "--ladder", "2:3", "--dump-paths"])
        assert code == 0
        assert (out / "trajectories_M2_n3.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["rungs"][0]["M_k"] == 2

    def test_dump_paths_solves_each_rung_once(self, tmp_path, monkeypatch):
        from gmfg import build_population, run_system_a
        from gmfg import cli, solver
        from gmfg.artifacts import index_columns, write_csv

        doc = nonlinear_scenario()
        doc["graphon"] = {"kind": "uniform_attachment"}
        doc["ladder"] = {"rungs": [[1, 3], [2, 4]], "replications": 1}
        cfg = write_config(tmp_path / "s.json", doc)
        real = solver.picard_solve
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].M)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "picard_solve", counting)
        monkeypatch.setattr(cli, "picard_solve", counting)
        out = tmp_path / "out"
        assert main(["simulate-enash", "--config", cfg, "--out", str(out),
                     "--dump-paths"]) == 0
        assert calls == [1, 2]
        # the dump is System A of the first replication's population
        sc = parse_scenario(cfg)
        problem = sc.build_problem(M=2)
        sol = real(problem, tol=sc.picard_tol, max_outer=sc.max_outer,
                   min_outer=sc.min_outer)
        pop = build_population(problem.graphon, 2, 4, problem.initial_law,
                               seed=problem.seed + 7919)
        write_csv(tmp_path / "ref.csv", ["agent", "time_index", "value"],
                  index_columns(run_system_a(pop, sol).paths))
        dumped = [line for line in
                  (out / "trajectories_M2_n4.csv").read_bytes().splitlines()
                  if not line.startswith(b"#")]
        assert dumped == (tmp_path / "ref.csv").read_bytes().splitlines()

    def test_dump_per_rung_when_node_counts_repeat(self, tmp_path):
        doc = nonlinear_scenario()
        doc["ladder"] = {"rungs": [[1, 3]], "replications": 1}
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["simulate-enash", "--config", cfg, "--out", str(out),
                     "--ladder", "2:3,2:5", "--dump-paths"]) == 0
        for name, agents in (("trajectories_M2_n3.csv", 6),
                             ("trajectories_M2_n5.csv", 10)):
            rows = [line for line in (out / name).read_text().splitlines()
                    if not line.startswith("#")][1:]
            assert {int(row.split(",")[0]) for row in rows} == set(range(agents))

    @pytest.mark.parametrize("ladder", [None, "2:3,1:4,2:3"])
    def test_repeated_rung_is_input_error(self, tmp_path, capsys, monkeypatch,
                                          ladder):
        from gmfg import solver

        doc = nonlinear_scenario()
        doc["ladder"] = {"rungs": [[2, 3], [2, 3]], "replications": 1}
        cfg = write_config(tmp_path / "s.json", doc)
        solves = []
        monkeypatch.setattr(solver, "picard_solve",
                            lambda *a, **k: solves.append(a))
        argv = ["simulate-enash", "--config", cfg, "--out", str(tmp_path / "out")]
        if ladder:
            argv += ["--ladder", ladder]
        assert main(argv) == 1
        assert "ladder repeats rung(s) 2:3" in capsys.readouterr().err
        assert solves == []

    def test_finished_rung_stack_is_freed_before_next_solve(self, tmp_path,
                                                            monkeypatch):
        """A rung's System A stack, which its dumped paths view, is dead
        when the next rung's solve starts."""
        import weakref

        from gmfg import population, solver

        doc = nonlinear_scenario()
        doc["graphon"] = {"kind": "uniform_attachment"}
        doc["ladder"] = {"rungs": [[1, 3], [2, 4], [2, 5]], "replications": 2}
        cfg = write_config(tmp_path / "s.json", doc)
        real_run, real_solve = population.simulate_coupled, solver.picard_solve
        stacks, alive = [], []

        def recording(pops, solution, members, *args, **kwargs):
            runs = real_run(pops, solution, members, *args, **kwargs)
            if all(psi is None for psi in members):
                stacks.append(weakref.ref(runs[0].paths.base))
            return runs

        def solving(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in stacks))
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(population, "simulate_coupled", recording)
        monkeypatch.setattr(solver, "picard_solve", solving)
        assert main(["simulate-enash", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--dump-paths"]) == 0
        assert len(stacks) == 3
        assert alive == [0, 0, 0]

    def test_failed_rung_leaves_earlier_dumps_and_no_report(self, tmp_path,
                                                            monkeypatch):
        from gmfg import ConvergenceError, solver

        doc = nonlinear_scenario()
        doc["ladder"] = {"rungs": [[1, 3], [2, 4]], "replications": 1}
        cfg = write_config(tmp_path / "s.json", doc)
        real = solver.picard_solve

        def failing(problem, *args, **kwargs):
            if problem.M == 2:
                raise ConvergenceError("no contraction", trace=[])
            return real(problem, *args, **kwargs)

        monkeypatch.setattr(solver, "picard_solve", failing)
        out = tmp_path / "out"
        assert main(["simulate-enash", "--config", cfg, "--out", str(out),
                     "--dump-paths"]) == 2
        assert sorted(os.listdir(out)) == ["trajectories_M1_n3.csv"]

    def test_deviator_outside_a_rung_is_input_error(self, tmp_path, capsys,
                                                    monkeypatch):
        """The whole ladder is checked before the first rung's solve,
        wherever the rung that lacks the deviator stands."""
        from gmfg import solver

        doc = nonlinear_scenario()
        doc["ladder"] = {"rungs": [[1, 3]], "replications": 1,
                         "deviator": 6}
        cfg = write_config(tmp_path / "s.json", doc)
        solves = []
        monkeypatch.setattr(solver, "picard_solve",
                            lambda *a, **k: solves.append(a))
        for ladder in ("2:3,2:5", "2:5,2:3"):
            assert main(["simulate-enash", "--config", cfg, "--out",
                         str(tmp_path / "out"), "--ladder", ladder]) == 1
            assert ("deviator 6 is not an agent of rung(s) 2:3 (N=6)"
                    in capsys.readouterr().err)
        assert solves == []

    def test_step_graphon_off_a_rung_is_input_error(self, tmp_path, capsys,
                                                    monkeypatch):
        """A step graphon whose node count misses a later rung's M_k fails
        before the first rung's solve, naming that rung."""
        from gmfg import solver

        doc = nonlinear_scenario()
        doc["graphon"] = {"kind": "step", "matrix": [[0.5, 0.2], [0.2, 0.5]]}
        doc["ladder"] = {"rungs": [[2, 5]], "replications": 1}
        cfg = write_config(tmp_path / "s.json", doc)
        solves = []
        monkeypatch.setattr(solver, "picard_solve",
                            lambda *a, **k: solves.append(a))
        assert main(["simulate-enash", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--ladder", "2:5,4:5"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "gmfg: step graphon has 2 nodes, not the M_k of rung(s) 4:5"]
        assert solves == []

    def test_tolerances_reach_the_ladder_solves(self, tmp_path, monkeypatch):
        from gmfg import solver

        doc = nonlinear_scenario()
        doc["tolerances"] = {"picard_tol": 0.2, "max_outer": 12, "min_outer": 3}
        doc["ladder"] = {"rungs": [[1, 3], [2, 3]], "replications": 1}
        cfg = write_config(tmp_path / "s.json", doc)
        real = solver.picard_solve
        seen = []

        def spy(problem, **kw):
            seen.append(kw)
            return real(problem, **kw)

        monkeypatch.setattr(solver, "picard_solve", spy)
        assert main(["simulate-enash", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 0
        assert seen == [dict(tol=0.2, max_outer=12, min_outer=3)] * 2

    @pytest.mark.parametrize("block, key", [("ladder", "replicaions"),
                                            ("tolerances", "picard_toll"),
                                            ("ladder", "R_law"),
                                            ("tolerances", "mode"),
                                            ("tolerances", "inner_tol")])
    def test_unknown_ladder_or_tolerance_key_is_input_error(self, tmp_path, capsys,
                                                           block, key):
        doc = nonlinear_scenario()
        doc["ladder"] = {"rungs": [[1, 3]], "replications": 1}
        doc[block][key] = 2
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["simulate-enash", "--config", cfg, "--out", str(out)]) == 1
        assert f"{block}.{key}: unknown field" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical_with_clipped_coupling(self, tmp_path,
                                                        monkeypatch):
        """A clipped f0 takes the sorted-prefix brackets in every stacked
        step and in the perturbation terms; reruns still agree byte for
        byte, and only GMFG_TIMING=1 adds the per-phase seconds."""
        doc = nonlinear_scenario()
        doc["problem"]["f0"] = {"kind": "poly2", "x": -1.0, "y": 1.0,
                                "clip": [-0.5, 0.5]}
        doc["problem"]["initial"] = {"kind": "normal", "mean": 0.0, "std": 0.3,
                                     "atoms": 33}
        doc["graphon"] = {"kind": "uniform_attachment"}
        doc["ladder"] = {"rungs": [[2, 3], [1, 4]], "replications": 2}
        cfg = write_config(tmp_path / "s.json", doc)
        outs = [tmp_path / "o1", tmp_path / "o2"]
        for out in outs:
            assert main(["simulate-enash", "--config", cfg, "--out", str(out),
                         "--perturbations", "--dump-paths"]) == 0
        names = sorted(os.listdir(outs[0]))
        assert names == ["report.json", "trajectories_M1_n4.csv",
                         "trajectories_M2_n3.csv"]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        rungs = json.loads((outs[0] / "report.json").read_text())["rungs"]
        assert all("perturbations" in r and "seconds" not in r for r in rungs)
        monkeypatch.setenv("GMFG_TIMING", "1")
        assert main(["simulate-enash", "--config", cfg, "--out",
                     str(tmp_path / "timed"), "--ladder", "1:4"]) == 0
        rung = json.loads((tmp_path / "timed" / "report.json").read_text())["rungs"][0]
        assert sorted(rung["seconds"]) == sorted(
            ["solve", "system_a", "family", "system_b", "system_c", "system_d"])
        assert all(v >= 0.0 for v in rung["seconds"].values())

    @pytest.mark.parametrize("ladder", ["2:3:7", "0:5", "2:-1", "2:x", "2:3,"])
    def test_bad_ladder_is_input_error(self, tmp_path, capsys, ladder):
        cfg = write_config(tmp_path / "s.json", nonlinear_scenario())
        code = main(["simulate-enash", "--config", cfg, "--out",
                     str(tmp_path / "out"), "--ladder", ladder])
        assert code == 1
        assert "--ladder must look like" in capsys.readouterr().err

    def test_bad_ladder_rejected_under_optimize(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", nonlinear_scenario())
        proc = run_python(["-O", "-m", "gmfg.cli", "simulate-enash",
                           "--config", cfg, "--out", str(tmp_path / "out"),
                           "--ladder", "2:25:7"])
        assert proc.returncode == 1, proc.stderr
        assert "--ladder must look like" in proc.stderr


class TestGraphonDiagCommand:
    def test_h11_ladder_decreasing(self, tmp_path):
        doc = {"kind": "nonlinear", "problem": nonlinear_scenario()["problem"],
               "graphon": {"kind": "uniform_attachment"},
               "diagnostics": {"m_values": [4, 8, 16], "refinement": 8},
               "grids": {"M": 2, "K": 8, "R": 120}}
        cfg = write_config(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["graphon-diag", "--config", cfg, "--out", str(out)]) == 0
        lines = [l for l in (out / "h11.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0] == "M,h11_deviation,cut_norm_bound"
        rows = [l.split(",") for l in lines[1:]]
        devs = [float(r[1]) for r in rows]
        cuts = [float(r[2]) for r in rows]
        assert devs[0] > devs[1] > devs[2]
        assert cuts[0] > cuts[1] > cuts[2]
        assert (out / "step_M8.csv").exists()


# each subcommand on a small scenario
_SMALL_RUNS = {
    "solve-gmfg": nonlinear_scenario(),
    "solve-lq": lq_scenario(),
    "graphon-diag": nonlinear_scenario(diagnostics={"m_values": [2, 4],
                                                    "refinement": 2}),
    "simulate-enash": nonlinear_scenario(ladder={"rungs": [[1, 3]],
                                                 "replications": 1}),
}


class TestNumpyOnlyRuntime:
    def test_cli_import_loads_no_scipy(self):
        proc = run_python(["-c", "import sys, gmfg.cli; print(sorted(m for m in "
                           "sys.modules if m.split('.')[0] == 'scipy'))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
    def test_subcommand_runs_with_scipy_blocked(self, tmp_path, command):
        cfg = write_config(tmp_path / "s.json", _SMALL_RUNS[command])
        # a None entry makes every import of scipy raise ImportError
        proc = run_python(["-c", "import sys; sys.modules['scipy'] = None; "
                           "from gmfg.cli import main; sys.exit(main(sys.argv[1:]))",
                           command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert proc.returncode == 0, proc.stderr
        assert any((tmp_path / "out").iterdir())
