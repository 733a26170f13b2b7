"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a corrupted output raises the failure fraction, that one seed repeats
the traced call counts exactly, and that another seed changes the inputs.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def run_benchmark(workload: str, seed: int, trace: int) -> tuple:
    """(stdout lines, parsed result) of one smoke-size benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, cwd=bench.ROOT, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_metric_names(spec: dict) -> dict:
    """Every BENCHMARK.json metric appears, with its unit, in every workload's output.

    Returns the traced results at seed 1, keyed by workload.
    """
    traced = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run_benchmark(workload, 1, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert set(result["metrics"]) == {m["name"] for m in spec[key]}, (workload, key)
            for m in spec[key]:
                assert result["metrics"][m["name"]]["unit"] == m["unit"], (workload, m)
                prefix, suffix = f"metric {m['name']} = ", f" {m['unit']}"
                assert any(
                    line.startswith(prefix) and line.endswith(suffix) for line in lines
                ), (workload, m["name"])
            if trace:
                traced[workload] = result
    return traced


def check_corruption_counts() -> None:
    """Perturbed spins, verify text and simulate tables all count as failures."""
    mods = bench.import_corotcalc()

    spin = bench.SpinStream(bench.SMOKE)
    phases = spin.generate(mods, 1)
    tally = bench.Tally(spin.base)
    spin.rep(mods, phases, tally, bench.Units())
    assert tally.attempted > 0 and tally.failed == 0, "clean spin run reported failures"
    original = bench.spin_state

    def perturbed(mods_, payload):
        d, omega_sp, omega = original(mods_, payload)
        bump = np.zeros_like(omega)
        bump[0, 1], bump[1, 0] = 1e-5, -1e-5
        return d, omega_sp, omega + bump

    bench.spin_state = perturbed
    try:
        with contextlib.redirect_stderr(io.StringIO()):  # one line per failed state
            spin.rep(mods, phases, tally, bench.Units())
    finally:
        bench.spin_state = original
    assert tally.fail_frac >= 0.5, f"perturbed omega gave fail_frac {tally.fail_frac}"

    good = "all identities verified\n"
    assert bench.check_verify(0, good, good)
    assert not bench.check_verify(0, "x\n" + good, good)
    assert not bench.check_verify(1, good, None)

    sim = bench.SimulateShear(bench.SMOKE)
    (phase, argv, samples), _ = sim.generate(mods, 1)
    rc, _ = bench.call_cli(mods["cli"], argv)
    csv = Path(argv[-1]).read_bytes()
    assert bench.check_simulate(rc, csv, csv, samples)
    lines = csv.decode().splitlines()
    fields = lines[2].split(",")
    fields[1] = "1e-6"  # res_eq5 above its 1e-8 bound
    bad = "\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n"
    assert not bench.check_simulate(rc, bad.encode(), None, samples)
    assert not bench.check_simulate(rc, csv[:-1] + b"9", csv, samples)


def check_trace_counts_repeat(spec: dict, first: dict) -> None:
    """A second traced run at the same seed reproduces every count exactly."""
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload, result in first.items():
        _, again = run_benchmark(workload, 1, 1)
        for name in counts:
            a, b = result["metrics"][name]["value"], again["metrics"][name]["value"]
            assert a == b, (workload, name, a, b)
        assert result["metrics"]["matcore.validate.calls"]["value"] > 0, workload


def check_seed_changes_inputs() -> None:
    """Same seed, same inputs; another seed, other inputs (simulate has none)."""
    mods = bench.import_corotcalc()
    spin = bench.SpinStream(bench.SMOKE)
    assert spin.generate(mods, 1) == spin.generate(mods, 1)
    assert spin.generate(mods, 1) != spin.generate(mods, 2)
    verify = bench.VerifyAll(bench.SMOKE)
    assert verify.generate(mods, 1) != verify.generate(mods, 2)


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    traced = check_metric_names(spec)
    print("ok: every BENCHMARK.json metric printed with its unit")
    check_corruption_counts()
    print("ok: corrupted outputs raise fail_frac")
    check_trace_counts_repeat(spec, traced)
    print("ok: traced call counts repeat exactly at one seed")
    check_seed_changes_inputs()
    print("ok: a different seed changes the inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
