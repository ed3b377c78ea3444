"""Tests of the benchmark itself: self-time arithmetic and output checks.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from run import child_env  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_union_length_merges_overlaps():
    assert tracer_mod.union_length([]) == 0.0
    assert tracer_mod.union_length([(1, 5), (2, 6)]) == 5
    assert tracer_mod.union_length([(4, 8), (1, 3), (7, 9)]) == 7


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tracer_mod.Tracer(clock)
    a = t.begin("A")
    clock.now = 1
    b = t.begin("B")
    clock.now = 3
    t.end(b)
    clock.now = 4
    c = t.begin("C")
    clock.now = 5
    d = t.begin("D")
    clock.now = 6
    t.end(d)
    clock.now = 8
    t.end(c)
    clock.now = 10
    t.end(a)
    assert t.self_s == {"A": 4, "B": 2, "C": 3, "D": 1}
    assert t.calls == {"A": 1, "B": 1, "C": 1, "D": 1}


def test_overlapping_children_on_threads_subtract_once():
    """A=[0,10] on the main thread; B=[1,5] and B=[2,6] on two workers."""
    clock = FakeClock()
    t = tracer_mod.Tracer(clock)
    a = t.begin("A")

    def worker(start, ready, go):
        clock.now = start
        span = t.begin("B")
        ready.set()
        go.wait(5)
        t.end(span)

    events = [(threading.Event(), threading.Event()) for _ in range(2)]
    threads = [threading.Thread(target=worker, args=(start, ready, go))
               for start, (ready, go) in zip((1, 2), events)]
    for th, (ready, _) in zip(threads, events):
        th.start()
        assert ready.wait(5)
    for end, th, (_, go) in zip((5, 6), threads, events):
        clock.now = end
        go.set()
        th.join(5)
        assert not th.is_alive()
    clock.now = 10
    t.end(a)
    assert t.self_s["B"] == 8
    assert t.calls["B"] == 2
    assert t.self_s["A"] == 5  # 10 - |[1,6]|, not 10 - 4 - 4


def test_wrap_counts_and_passes_results():
    clock = FakeClock()
    t = tracer_mod.Tracer(clock)
    fn = t.wrap("f", lambda x: x * 2, lambda args, kwargs, result: {"items": result})
    assert fn(3) == 6 and fn(4) == 8
    assert t.calls["f"] == 2 and t.counters["f.items"] == 14


def test_traced_child_reports_lq_layers(tmp_path):
    raw = workloads.WORKLOADS["lq_fine"].scenario(ROOT)
    raw["grids"].update({"M": 4, "K": 200})
    config = tmp_path / "lq.json"
    config.write_text(json.dumps(raw))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--config", str(config),
         "--command", "solve-lq", "--out", str(tmp_path / "out"), "--trace"],
        env=child_env(ROOT), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["untraced"] == []
    layers = report["layers"]
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    # one application per iteration plus the residual check
    assert layers["lq.apply.calls"] == diag["iterations"] + 1
    assert layers["cli.write_csv.calls"] == 2
    assert layers["cli.write_csv.bytes"] == sum(
        os.path.getsize(tmp_path / "out" / f) for f in ("riccati.csv", "meanfield.csv"))
    assert layers["control.frozen_fields.calls"] == 0
    assert report["wall_s"] > 0 and report["setup_s"] > 0
    assert workloads.check_lq(str(tmp_path / "out"), raw) == []


# -- output checks reject corrupted artifacts -------------------------------

def _run_cli(command, raw, out):
    from gmfg.cli import main
    config = os.path.join(out, "scenario.json")
    os.makedirs(out, exist_ok=True)
    with open(config, "w") as fh:
        json.dump(raw, fh)
    assert main([command, "--config", config, "--out", out]) == 0


def _rewrite_csv_value(path, row, col, value):
    with open(path, newline="") as fh:
        lines = fh.read().split("\r\n")
    body = 3 + row  # two metadata lines and the header
    cells = lines[body].split(",")
    cells[col] = repr(float(value))
    lines[body] = ",".join(cells)
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


@pytest.fixture(scope="module")
def mfg_run(tmp_path_factory):
    raw = workloads.WORKLOADS["mfg_tracking"].scenario(ROOT, seed=5)
    raw["grids"].update({"M": 2, "K": 16, "N_x": 61, "R": 400})
    out = str(tmp_path_factory.mktemp("mfg"))
    _run_cli("solve-gmfg", raw, out)
    return raw, out


@pytest.fixture(scope="module")
def lq_run(tmp_path_factory):
    raw = workloads.WORKLOADS["lq_fine"].scenario(ROOT, seed=5)
    raw["grids"].update({"M": 4, "K": 200})
    out = str(tmp_path_factory.mktemp("lq"))
    _run_cli("solve-lq", raw, out)
    return raw, out


def _copy(src, tmp_path):
    dst = str(tmp_path / "copy")
    shutil.copytree(src, dst)
    return dst


def test_mfg_check_accepts_clean_run(mfg_run):
    raw, out = mfg_run
    assert workloads.check_mfg(out, raw) == []


def test_mfg_check_rejects_policy_outside_control_set(mfg_run, tmp_path):
    raw, out = mfg_run
    out = _copy(out, tmp_path)
    _rewrite_csv_value(os.path.join(out, "policy_001.csv"), 7, 2, 1.5)
    problems = workloads.check_mfg(out, raw)
    assert any("policy_001.csv" in p and "outside" in p for p in problems)


def test_mfg_check_rejects_non_converged_trace(mfg_run, tmp_path):
    raw, out = mfg_run
    out = _copy(out, tmp_path)
    path = os.path.join(out, "trace.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["converged"] = False
    doc["trace"][-1]["distance"] = 2 * doc["tolerance"]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    problems = workloads.check_mfg(out, raw)
    assert any("not converged" in p for p in problems)
    assert any("tolerance" in p for p in problems)


def test_mfg_check_rejects_unnormalized_or_shifted_ensemble(mfg_run, tmp_path):
    raw, out = mfg_run
    out = _copy(out, tmp_path)
    path = os.path.join(out, "ensemble.csv")
    _rewrite_csv_value(path, 0, 3, 0.5)
    assert any("sum to 1" in p for p in workloads.check_mfg(out, raw))
    header, rows = workloads.read_csv(path)
    K = raw["grids"]["K"]
    final = np.flatnonzero(rows[:, 1] == K)[0]
    _rewrite_csv_value(path, final, 2, rows[final, 2] + 1e3)
    assert any("noise floors" in p for p in workloads.check_mfg(out, raw))


def test_lq_check_accepts_clean_run(lq_run):
    raw, out = lq_run
    assert workloads.check_lq(out, raw) == []


def test_lq_check_rejects_riccati_off_oracle(lq_run, tmp_path):
    raw, out = lq_run
    out = _copy(out, tmp_path)
    path = os.path.join(out, "riccati.csv")
    _, ric = workloads.read_csv(path)
    _rewrite_csv_value(path, 5, 4, ric[5, 4] + 1e-6)
    assert any("tanh" in p for p in workloads.check_lq(out, raw))


def test_lq_check_rejects_missing_rows_and_contraction(lq_run, tmp_path):
    raw, out = lq_run
    out = _copy(out, tmp_path)
    path = os.path.join(out, "meanfield.csv")
    with open(path, newline="") as fh:
        text = fh.read()
    with open(path, "w", newline="") as fh:
        fh.write(text.rsplit("\r\n", 2)[0] + "\r\n")
    diag_path = os.path.join(out, "diagnostics.json")
    with open(diag_path) as fh:
        diag = json.load(fh)
    diag["c_lambda"] = 1.2
    with open(diag_path, "w") as fh:
        json.dump(diag, fh)
    problems = workloads.check_lq(out, raw)
    assert any("meanfield.csv" in p and "rows" in p for p in problems)
    assert any("c_lambda" in p for p in problems)


def _enash_report(raw):
    rung = {"eps1": 0.01, "eps1_se": 0.002, "eps2": 0.001, "eps2_se": 0.0005,
            "eps3": 0.01, "eps3_se": 0.002, "gap": 0.001, "gap_se": 0.0005,
            "equilibrium_cost": 0.1, "solution_iterations": 2}
    rungs = [dict(rung, M_k=mk, N=mk * size, cluster_size=size)
             for mk, size in raw["ladder"]["rungs"]]
    return {"rungs": rungs}


def _write_report(tmp_path, doc):
    with open(tmp_path / "report.json", "w") as fh:
        json.dump(doc, fh)
    return str(tmp_path)


def test_enash_check_accepts_well_formed_report(tmp_path):
    raw = workloads.WORKLOADS["enash_ladder"].scenario(ROOT, seed=5)
    out = _write_report(tmp_path, _enash_report(raw))
    assert workloads.check_enash(out, raw) == []


@pytest.mark.parametrize("key,value,message", [
    ("eps2_se", None, "eps2_se"),
    ("eps1", -0.1, "eps1"),
    ("gap", 0.05, "equilibrium cost"),
    ("solution_iterations", 99, "passes"),
])
def test_enash_check_rejects_bad_rung(tmp_path, key, value, message):
    raw = workloads.WORKLOADS["enash_ladder"].scenario(ROOT, seed=5)
    doc = _enash_report(raw)
    doc["rungs"][1][key] = value
    problems = workloads.check_enash(_write_report(tmp_path, doc), raw)
    assert any(message in p for p in problems), problems


def test_enash_check_rejects_missing_rung(tmp_path):
    raw = workloads.WORKLOADS["enash_ladder"].scenario(ROOT, seed=5)
    doc = _enash_report(raw)
    doc["rungs"].pop()
    problems = workloads.check_enash(_write_report(tmp_path, doc), raw)
    assert any("rungs" in p for p in problems)


def test_scenario_carries_seed_and_size_changes():
    en = workloads.WORKLOADS["enash_ladder"].scenario(ROOT, seed=77)
    assert en["seeds"]["master"] == 77
    assert en["ladder"]["replications"] == workloads.ENASH_REPLICATIONS
    lq = workloads.WORKLOADS["lq_fine"].scenario(ROOT, seed=77)
    assert lq["grids"]["M"] == 64 and lq["grids"]["K"] == 800
    assert workloads.WORKLOADS["mfg_tracking"].scenario(ROOT)["seeds"]["master"] == 2024
