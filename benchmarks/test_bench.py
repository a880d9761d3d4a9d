"""Tests of the benchmark itself: python3 -m pytest benchmarks

They live outside the package's testpaths, so the package's own test run
does not pay for them.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import layertrace  # noqa: E402
import run  # noqa: E402
import setup_catalog  # noqa: E402
import workloads  # noqa: E402
from bigla import cli  # noqa: E402


@pytest.fixture(scope="module")
def catdir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("catalog"))
    assert setup_catalog.main(SRC, out) == 0
    return out


def test_generator_is_deterministic(catdir):
    for w in workloads.WORKLOADS:
        first = [c.text() for c in workloads.generate(w, 3, catdir)]
        again = [c.text() for c in workloads.generate(w, 3, catdir)]
        other = [c.text() for c in workloads.generate(w, 4, catdir)]
        assert first == again
        assert first != other


def _flip_first_sign(text: str) -> str:
    if " + " in text:
        return text.replace(" + ", " - ", 1)
    if " - " in text:
        return text.replace(" - ", " + ", 1)
    return "-" + text


def test_flipped_coefficient_in_nf_output_counts_as_failure(catdir):
    cmds = [c for c in workloads.generate("pbw-long", 0, catdir)
            if "so3.json" in c.text()][:3]
    result = run.run_pass(cli, cmds)
    assert run.check_outputs(cmds, [result], None) == (0, [])
    code, out = result.outputs[0]
    flipped = result._replace(outputs=[(code, _flip_first_sign(out))] + result.outputs[1:])
    failed, notes = run.check_outputs(cmds, [flipped], None)
    assert failed == 1
    assert "random-pivot oracle" in notes[0]


def test_stdout_that_differs_from_its_recorded_digest_counts_as_failure(catdir):
    cmds = workloads.generate("tables", 0, catdir)[:2]
    result = run.run_pass(cli, cmds)
    digests = [[c.text(), hashlib.sha256(out.encode()).hexdigest()]
               for c, (_, out) in zip(cmds, result.outputs)]
    assert run.check_outputs(cmds, [result], digests) == (0, [])
    digests[1][1] = "0" * 64
    assert run.check_outputs(cmds, [result, result], digests)[0] == 2


def test_wrappers_see_delta_word_calls_made_from_hc(catdir):
    import bigla.hc
    import bigla.uea

    original = bigla.uea.delta_word
    cmd = workloads.Command(
        ("--seed", "5", "hc", "conv-check", workloads.catalog_path(catdir, "so3"),
         "--n", "3", "--trials", "1"), None)
    result, tracer = run.traced_pass(cli, [cmd])
    assert result.outputs[0][0] == 0
    metrics = tracer.layer_metrics()
    assert metrics["hc.convolution.calls"] == 2
    assert metrics["uea.delta_word.calls"] > 0
    assert bigla.hc.delta_word is original and bigla.uea.delta_word is original


def test_layer_counts_repeat_exactly_within_a_process(catdir):
    cmds = []
    for w in workloads.WORKLOADS:
        cmds += workloads.generate(w, 1, catdir)[:4]
    counts = [run.traced_pass(cli, cmds)[1].counts() for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["schema.load_path.calls"] == sum(".json" in c.text() for c in cmds)


def test_layer_counts_repeat_exactly_between_traced_runs(tmp_path):
    def traced_run(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "tables",
             "--seed", "2", "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, env=env, timeout=170, check=True)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        assert result["correct"] and result["failed"] == 0
        return {k: v["value"] for k, v in result["metrics"].items()
                if k not in layertrace.TIME_METRICS and k != "trace_overhead_frac"}

    first, second = traced_run(1), traced_run(2)
    assert first == second
    assert first["lie.jacobiator.calls"] > 0


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
