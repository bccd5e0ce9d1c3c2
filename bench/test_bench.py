"""Tests of the benchmark itself, on the smoke size of every workload.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from stlisp import kernel, loops, sexpr
from stlisp.kernel import Interp
from tracer import Tracer

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _main(capsys, tmp_path, *extra):
    code = run.main(["--seed", "3", "--seconds", "0", "--size", "smoke",
                     "--out", str(tmp_path)] + list(extra))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_end_to_end_metrics_match_benchmark_json(capsys, tmp_path, name):
    code, out = _main(capsys, tmp_path, "--workload", name)
    assert code == 0
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0
    saved = json.loads((tmp_path / ("%s-seed3-trace0.json" % name))
                       .read_text())
    for key in ("seed", "python", "nproc", "commit"):
        assert key in saved


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_metrics_match_benchmark_json(capsys, tmp_path, name):
    code, out = _main(capsys, tmp_path, "--workload", name, "--trace", "1")
    assert code == 0 and out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def _traced_calls(wl, layer):
    r = run.Run(wl, 0)
    tracer = Tracer()
    tracer.install()
    try:
        _ns, outcome = r.rep("native", 0, full_cycle=True)
    finally:
        tracer.remove()
    assert outcome is not None and r.failed == 0
    return tracer.summary()[0][layer]["calls"]


def test_do_plans_grow_with_calls_only_on_loop_in_defun():
    plans = [_traced_calls(workloads.LoopInDefun(1, n), "loops.make_do_plan")
             for n in (2, 4)]
    assert plans[1] - plans[0] == 2
    plans = [_traced_calls(workloads.WideDo(1, n), "loops.make_do_plan")
             for n in (3, 6)]
    assert plans[0] == plans[1]


def test_tracer_restores_every_binding_and_nests_spans():
    original_eval = kernel.Interp.__dict__["eval"]
    tracer = Tracer()
    tracer.install()
    try:
        assert loops.show is sexpr.show is kernel.show
        assert kernel.Interp.__dict__["eval"] is not original_eval
        interp = Interp(mode="logical")
        interp.eval_text("(loop$ with n = 3 do (if (zp n) (return 7) "
                         "(setq n (1- n))))")
    finally:
        tracer.remove()
    assert kernel.Interp.__dict__["eval"] is original_eval
    assert loops.show.__module__ == "stlisp.sexpr"
    assert not hasattr(loops.show, "__wrapped__")
    layers, total = tracer.summary()
    assert layers["loops.run_do"]["calls"] == 1
    assert layers["loops.lex_fix"]["calls"] == 4
    # Self times partition the time covered by the outermost spans.
    roots = sum(tracer.ends[i] - tracer.starts[i]
                for i in range(len(tracer.codes)) if tracer.parents[i] == -1)
    assert 0 < total == roots


@pytest.mark.parametrize("name", workloads.NAMES)
def test_check_rejects_a_wrong_result(name):
    wl = workloads.make(name, 5, "smoke",
                        (ROOT / "corpus" / "scheduler_demo.lisp").read_text())
    r = run.Run(wl, 5)
    interp = r.admit("logical")
    wl.prepare(interp, r.body)
    result = wl.run(interp, r.body, 0)
    assert wl.check(interp, result, 0) == []
    if isinstance(result, dict):
        result = dict(result, checked=dict(result["checked"]))
        result["checked"]["exec-rank-reduces"] += 1
    else:
        result = result + "0"
    assert wl.check(interp, result, 0)


def test_scheduler_model_matches_the_sampler_counts():
    text = (ROOT / "corpus" / "scheduler_demo.lisp").read_text()
    for seed in range(5):
        wl = workloads.SchedulerCheck(seed, 40, text)
        r = run.Run(wl, seed)
        interp = r.admit("native")
        got = wl.run(interp, r.body, 0)
        assert got["checked"] == workloads.scheduler_counts(wl.rep_seed(0),
                                                            40)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide_do", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
