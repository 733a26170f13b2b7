import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from corotcalc import kinematics as ki
from corotcalc.cli import _fmt, build_parser, main, write_trajectory_csv
from corotcalc.matcore import Matrix
from corotcalc.sampling import make_rng, random_skew, random_spd_ratio, random_symmetric
from corotcalc.verify import MAX_TRIALS


def write_payload(path, b, d, w):
    payload = {
        "B": Matrix(b).to_json_dict(),
        "D": Matrix(d).to_json_dict(),
        "W": Matrix(w).to_json_dict(),
    }
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def spin_input(tmp_path):
    rng = make_rng(5)
    b = random_spd_ratio(rng, 3)
    d = random_symmetric(rng, 3)
    w = random_skew(rng, 3)
    return write_payload(tmp_path / "in.json", b, d, w)


# ---------------------------------------------------------------------------
# spin


def test_spin_identity_b_returns_w(tmp_path, capsys):
    rng = make_rng(6)
    d = random_symmetric(rng, 3)
    w = random_skew(rng, 3)
    path = write_payload(tmp_path / "in.json", np.eye(3), d, w)
    assert main(["spin", "--input", str(path), "--method", "commutator"]) == 0
    out = json.loads(capsys.readouterr().out)
    got = np.array(out["omega_log"]["rows"])
    np.testing.assert_allclose(got, w, atol=1e-14)
    assert "method_discrepancy" not in out


def test_spin_both_reports_small_discrepancy(spin_input, capsys):
    assert main(["spin", "--input", str(spin_input), "--method", "both"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method_discrepancy"] <= 1e-10


def test_spin_byte_identical_output(spin_input, capsys):
    assert main(["spin", "--input", str(spin_input), "--method", "both"]) == 0
    first = capsys.readouterr().out
    assert main(["spin", "--input", str(spin_input), "--method", "both"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_spin_negative_eigenvalue_exit_3(tmp_path, capsys):
    rng = make_rng(7)
    path = write_payload(
        tmp_path / "bad.json", np.diag([1.0, -2.0, 3.0]), random_symmetric(rng, 3), random_skew(rng, 3)
    )
    assert main(["spin", "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert "-2" in err  # message names the offending eigenvalue


def test_spin_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text("{not json")
    assert main(["spin", "--input", str(path)]) == 2


def test_spin_missing_field_exit_2(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"B": Matrix(np.eye(3)).to_json_dict()}))
    assert main(["spin", "--input", str(path)]) == 2


_EYE2 = {"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("payload", [
    5,
    None,
    "BDW",
    ["B", "D", "W"],
    {"B": {"dim": 2, "rows": 5}, "D": _EYE2, "W": _EYE2},
    {"B": {"dim": 2, "rows": [1, 2]}, "D": _EYE2, "W": _EYE2},
    {"B": {"dim": 2, "rows": [["a", 0.0], [0.0, 1.0]]}, "D": _EYE2, "W": _EYE2},
    {"B": {"dim": 2, "rows": [[1.0, [2.0, 3.0]], [3.0, 4.0]]}, "D": _EYE2, "W": _EYE2},
    {"B": {"dim": True, "rows": [["2"]]}, "D": {"dim": 1, "rows": [["0.5"]]},
     "W": {"dim": 1, "rows": [[0]]}},
    {"B": {"dim": 1, "rows": [["2"]]}, "D": {"dim": 1, "rows": [[0.5]]},
     "W": {"dim": 1, "rows": [[0]]}},
    {"B": {"dim": 1, "rows": [[True]]}, "D": {"dim": 1, "rows": [[0.5]]},
     "W": {"dim": 1, "rows": [[0]]}},
    {"B": {"dim": 2, "rows": [[True, 0.0], [0.0, 2.0]]},
     "D": {"dim": 2, "rows": [[0.5, 0], [0, 0.1]]}, "W": {"dim": 2, "rows": [[0, 1], [-1, 0]]}},
    {"B": _EYE2, "D": _EYE2, "W": {"dim": 2, "rows": [[0, False], [0, 0]]}},
    {"B": {"rows": [[1.0]]}, "D": _EYE2, "W": _EYE2},
    {"B": _EYE2, "D": {"dim": 2}, "W": _EYE2},
    {"B": {"dim": 3, "rows": _EYE2["rows"]}, "D": _EYE2, "W": _EYE2},
], ids=["number", "null", "string", "array", "rows-number", "rows-flat", "string-entry",
        "ragged-nesting", "dim-true", "numeric-string", "boolean-entry",
        "boolean-among-floats", "boolean-among-integers", "no-dim", "no-rows", "rows-not-dim"])
def test_spin_malformed_payload_exit_2(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["spin", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_spin_asymmetric_d_exit_2(tmp_path, capsys):
    rng = make_rng(8)
    path = write_payload(
        tmp_path / "bad_d.json", np.eye(3), rng.uniform(-1, 1, (3, 3)), random_skew(rng, 3)
    )
    assert main(["spin", "--input", str(path)]) == 2


def test_spin_shape_mismatch_exit_2(tmp_path):
    payload = {
        "B": Matrix(np.eye(3)).to_json_dict(),
        "D": Matrix(np.zeros((2, 2))).to_json_dict(),
        "W": Matrix(np.zeros((3, 3))).to_json_dict(),
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(payload))
    assert main(["spin", "--input", str(path)]) == 2


def test_spin_tol_env_override(tmp_path, capsys, monkeypatch):
    # an almost-symmetric D passes only when the tolerance is loosened
    rng = make_rng(9)
    d = random_symmetric(rng, 3)
    d = np.array(d)
    d[0, 1] += 1e-7
    path = write_payload(tmp_path / "in.json", np.eye(3), d, random_skew(rng, 3))
    assert main(["spin", "--input", str(path)]) == 2
    capsys.readouterr()
    monkeypatch.setenv("COROTCALC_TOL", "1e-5")
    assert main(["spin", "--input", str(path)]) == 0


def test_spin_config_file(tmp_path, capsys):
    rng = make_rng(10)
    path = write_payload(
        tmp_path / "in.json", random_spd_ratio(rng, 3), random_symmetric(rng, 3), random_skew(rng, 3)
    )
    cfg = tmp_path / "run.cfg"
    # every RunConfig key: spin skips the ones it does not take
    cfg.write_text(
        "# a comment line and a blank line are skipped\n\n"
        "seed=42\ndim=3\ntol=1e-10\ndt=0.001\nt_end=1.0\n"
        "motion='simple_shear'\nmethod='spectral'\noutput_path='traj.csv'\n"
    )
    assert main(["spin", "--input", str(path), "--config", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "method_discrepancy" not in out  # spectral came from the config file


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "appendix", "--seed", "42", "--trials", "100"]) == 0
    out = capsys.readouterr().out
    assert "suite appendix" in out
    assert "FAIL" not in out


def test_verify_lemma3_table_shows_both_branches(capsys):
    assert main(["verify", "--suite", "lemma3", "--seed", "42", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "commuting directions" in out
    assert "generic directions" in out


def test_verify_trials_bound_is_checked_by_the_parser():
    # MAX_TRIALS is accepted; one more is in MALFORMED (exit 2, no suite run)
    args = build_parser().parse_args(["verify", "--trials", str(MAX_TRIALS)])
    assert args.trials == MAX_TRIALS


def test_simulate_dim_bound_is_checked_by_the_parser():
    # MAX_DIM is the largest d whose one sample fits the record bound, and the
    # parser accepts it; MAX_DIM + 1 and 10^9 are in MALFORMED (exit 2, nothing allocated)
    assert ki._step_count(0.0, 1.0, 1, ki.MAX_DIM) == 0
    with pytest.raises(ValueError, match="recorded samples"):
        ki._step_count(0.0, 1.0, 1, ki.MAX_DIM + 1)
    assert build_parser().parse_args(["simulate", "--dim", str(ki.MAX_DIM)]).dim == ki.MAX_DIM
    # one rate per dimension, so --rates takes as many values as --dim allows
    rates = ",".join(["0"] * ki.MAX_DIM)
    assert len(build_parser().parse_args(["simulate", "--rates", rates]).rates) == ki.MAX_DIM


def test_verify_deterministic(capsys):
    main(["verify", "--suite", "lemma6", "--seed", "11", "--trials", "30"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "lemma6", "--seed", "11", "--trials", "30"])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# simulate


def test_simulate_simple_shear(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main([
        "simulate", "--motion", "simple_shear", "--kappa", "1.0",
        "--dt", "1e-3", "--t-end", "1.0", "--record-every", "10", "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "t,res_eq5,res_eq40,spin_agreement,det_F"
    assert len(lines) == 102  # header + 101 samples
    res5 = [float(row.split(",")[1]) for row in lines[1:]]
    assert max(res5) <= 1e-8
    # the defaults, simple shear or polynomial: 1,001 samples over t in [0, 1]
    for flags in ([], ["--motion", "polynomial", "--seed", "3"]):
        assert main(["simulate", *flags, "--out", str(out)]) == 0
        assert len(out.read_bytes().splitlines()) == 1002


def test_simulate_rigid_rotation_trivial_strain(tmp_path, capsys):
    out = tmp_path / "rot.csv"
    rc = main([
        "simulate", "--motion", "rigid_rotation", "--rate", "0.9",
        "--dt", "1e-3", "--t-end", "1.0", "--record-every", "100", "--out", str(out),
    ])
    assert rc == 0
    for row in out.read_text().strip().splitlines()[1:]:
        t, res5, res40, agree, det_f = (float(v) for v in row.split(","))
        assert res5 <= 1e-10
        assert abs(det_f - 1.0) <= 1e-10


def test_simulate_evolution_residual_halves_with_spacing(tmp_path):
    outs = []
    for stride in (20, 10):
        out = tmp_path / f"s{stride}.csv"
        main([
            "simulate", "--motion", "pure_stretch", "--rates", "0.3,-0.3,0",
            "--dt", "1e-3", "--t-end", "1.0", "--record-every", str(stride), "--out", str(out),
        ])
        rows = out.read_text().strip().splitlines()[1:]
        outs.append(max(float(r.split(",")[2]) for r in rows))
    ratio = outs[0] / outs[1]
    assert 3.2 <= ratio <= 4.8


def test_simulate_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--motion", "polynomial", "--seed", "13",
            "--dt", "1e-2", "--t-end", "0.5", "--record-every", "5"]
    main(argv + ["--out", str(a)])
    main(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_config_supplies_output_path(tmp_path, capsys):
    out = tmp_path / "from_config.csv"
    cfg = tmp_path / "run.cfg"
    # every RunConfig key: simulate skips tol and method, which it does not take
    cfg.write_text(
        "seed=42\ndim=3\ntol=1e-10\ndt=0.01\nt_end=0.1\n"
        f"motion='simple_shear'\nmethod='both'\noutput_path={str(out)!r}\n"
    )
    assert main(["simulate", "--config", str(cfg), "--record-every", "2"]) == 0
    assert out.exists()


def test_simulate_integrator_abort_exit_4(tmp_path, capsys):
    out = tmp_path / "abort.csv"
    rc = main([
        "simulate", "--motion", "pure_stretch", "--rates=-160,0",
        "--dt", "1e-2", "--t-end", "6.0", "--record-every", "100", "--out", str(out),
    ])
    assert rc == 4
    # F[0, 0] underflows to exact zero at step 570
    assert "error: det(F) = 0.000000e+00 <= 0 at step 570" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_keeps_a_contraction_whose_det_underflows(tmp_path, capsys):
    # F = e^(-100 t) I stays diagonal and positive; only its det underflows to 0,
    # from step 2484, and the column reads that rounded 0
    out = tmp_path / "contract.csv"
    rc = main([
        "simulate", "--motion", "pure_stretch", "--rates=-100,-100,-100",
        "--t-end", "3", "--dt", "1e-3", "--record-every", "100", "--out", str(out),
    ])
    assert rc == 0
    det_f = [float(row.split(",")[4]) for row in out.read_text().splitlines()[1:]]
    assert len(det_f) == 31
    assert det_f[24] > 0.0 and det_f[25:] == [0.0] * 6
    assert "min det F         = 0\n" in capsys.readouterr().out


# Settings that parse but that the motion, a trajectory bound or the float
# range rejects, and an unwritable --out: each is one error line and exit 2,
# and no CSV is written.
SIMULATE_BAD_INPUT = {
    "shear dim 1": (["--dim", "1"], "error: simple_shear acts in the (0, 1) plane"),
    "rotation dim 1": (["--motion", "rigid_rotation", "--dim", "1"],
                       "error: rigid_rotation acts in the (0, 1) plane"),
    "steps above bound": (["--t-end", "1e6", "--dt", "1e-3", "--record-every", "1000000000"],
                          "steps, above the bound of 10000000"),
    "samples above bound": (["--t-end", "1000"], "MB, above the bound of 256 MB"),
    "stretch B overflow": (["--motion", "pure_stretch", "--rates=-5,5", "--t-end", "100",
                            "--dt", "1e-2", "--record-every", "100"],
                           "error: matrix entries must be finite"),
    "shear B overflow": (["--kappa", "1e200", "--t-end", "0.003"],
                         "error: matrix entries must be finite"),
    "out in missing dir": (["--out", "{tmp}/missing/dir/x.csv", "--dt", "0.1"],
                           "error: cannot write {tmp}/missing/dir/x.csv"),
    # B = diag(e^374, e^-374) at t = 1.1 is finite, but b_j/b_i underflows to 0
    "classical weight beyond float range": (
        ["--motion", "pure_stretch", "--rates", "170,-170", "--t-end", "1.1", "--dt", "1e-3",
         "--record-every", "100"], "error: the classical spin weight c(b_i, b_j) fails: "),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_BAD_INPUT))
def test_simulate_bad_input_exit_2_as_console_script(case, tmp_path):
    argv, message = SIMULATE_BAD_INPUT[case]
    argv = ["--out", str(tmp_path / "x.csv")] + [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "corotcalc.cli", "simulate", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    # the error line alone: no traceback, no numpy warning beside it
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message.format(tmp=tmp_path) in proc.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("warnings, stderr", [
    ([], "error: matrix entries must be finite\n"),
    (["-W", "error::RuntimeWarning"], "error: overflow in the RK4 step: F is not finite from step 1\n"),
], ids=["warning", "warning as error"])
def test_simulate_step_overflow_exit_2_as_console_script(warnings, stderr, tmp_path):
    # F overflows in the first step; as an error, the warning ends the run in its own line
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "corotcalc.cli", "simulate", "--motion", "pure_stretch",
         "--rates", "1e300", "--t-end", "0.002", "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONWARNINGS": ""},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(stderr)
    assert proc.stderr.count("error: ") == 1 and (warnings == [] or proc.stderr == stderr)
    assert not (tmp_path / "x.csv").exists()


def test_trajectory_csv_rows_have_the_bytes_of_fmt_at_each_value(tmp_path):
    values = [-0.0, 5e-324, -5e-324, 1e308, -math.inf, math.inf, math.nan, 0.1, 1.0 / 3.0,
              np.float64(-0.0), np.float64(2.0 / 3.0), np.float64(math.nan), 7, -1e-300, 1.0]
    rows = [values[k:] + values[:k] for k in range(len(values))]
    out = tmp_path / "traj.csv"
    write_trajectory_csv((tuple(r[:5]) for r in rows), str(out))
    lines = ["t,res_eq5,res_eq40,spin_agreement,det_F"] + [",".join(map(_fmt, r[:5])) for r in rows]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_verify_failure_exit_1(capsys, monkeypatch):
    # force a failing row to exercise the failure exit path and its message
    from corotcalc import cli as cli_mod
    from corotcalc.verify import VerifyRow

    monkeypatch.setattr(
        cli_mod,
        "run_suites",
        lambda names, seed, trials: {"lemma1": [VerifyRow("forced failure", 1.0, 1e-12)]},
    )
    assert main(["verify", "--suite", "lemma1"]) == 1
    captured = capsys.readouterr()
    assert "FAILED: [lemma1] forced failure" in captured.err


# ---------------------------------------------------------------------------
# parser-level behavior


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "--suite", "nonsense"])
    assert ei.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0


# Each malformed setting, by flag, by config file ({cfg}) or by environment:
# (argv, config file text, COROTCALC_TOL).  {input} is a valid spin payload.
MALFORMED = {
    "dt zero": (["simulate", "--dt", "0"], None, None),
    "dt nan": (["simulate", "--dt", "nan"], None, None),
    "dt inf": (["simulate", "--dt", "inf"], None, None),
    "t-end negative": (["simulate", "--t-end=-1"], None, None),
    "record-every zero": (["simulate", "--record-every", "0"], None, None),
    "dim zero": (["simulate", "--dim", "0"], None, None),
    "dim above MAX_DIM": (["simulate", "--dim", str(ki.MAX_DIM + 1)], None, None),
    "dim 10^9": (["simulate", "--dim", "1000000000"], None, None),
    "config dim 10^9": (["simulate", "--config", "{cfg}"], "dim=1000000000\n", None),
    "kappa nan": (["simulate", "--kappa", "nan"], None, None),
    "rates not numbers": (["simulate", "--motion", "pure_stretch", "--rates", "a"], None, None),
    "rates inf": (["simulate", "--rates", "1,inf"], None, None),
    "rates above MAX_DIM": (
        ["simulate", "--motion", "pure_stretch", "--rates", ",".join(["0"] * (ki.MAX_DIM + 1))],
        None, None,
    ),
    "verify seed negative": (["verify", "--seed=-1"], None, None),
    "verify seed key overflow": (["verify", "--seed", str(2**64 // 1000 + 1)], None, None),
    "verify trials zero": (["verify", "--trials", "0"], None, None),
    "verify trials above MAX_TRIALS": (["verify", "--trials", str(MAX_TRIALS + 1)], None, None),
    "spin tol nan": (["spin", "--input", "{input}", "--tol", "nan"], None, None),
    "spin tol negative": (["spin", "--input", "{input}", "--tol=-1"], None, None),
    "config dt zero": (["simulate", "--config", "{cfg}"], "dt=0\n", None),
    "config seed negative": (["verify", "--config", "{cfg}"], "seed=-1\n", None),
    "config unknown key": (["verify", "--config", "{cfg}"], "sed=3\n", None),
    "config not key=value": (["simulate", "--config", "{cfg}"], "seed 3\n", None),
    "config missing": (["simulate", "--config", "{input}.missing"], None, None),
    "env tol not a number": (["spin", "--input", "{input}"], None, "abc"),
    "env tol zero": (["spin", "--input", "{input}"], None, "0"),
}


def _malformed_argv(case, tmp_path, spin_input, monkeypatch):
    argv, cfg_text, env_tol = MALFORMED[case]
    monkeypatch.chdir(tmp_path)  # a setting wrongly accepted would write traj.csv here
    cfg = tmp_path / "run.cfg"
    if cfg_text is not None:
        cfg.write_text(cfg_text)
    if env_tol is not None:
        monkeypatch.setenv("COROTCALC_TOL", env_tol)
    return [a.format(input=spin_input, cfg=cfg) for a in argv]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_setting_exit_2(case, tmp_path, spin_input, monkeypatch, capsys):
    argv = _malformed_argv(case, tmp_path, spin_input, monkeypatch)
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
    assert "all identities verified" not in captured.out


def test_malformed_env_tol_exit_2_as_console_script(tmp_path, spin_input):
    env = dict(os.environ, COROTCALC_TOL="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "corotcalc.cli", "spin", "--input", str(spin_input)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# precedence: flag > config file > COROTCALC_TOL > default


def test_flag_beats_config_file(spin_input, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method=spectral\n")
    assert main(["spin", "--input", str(spin_input), "--config", str(cfg),
                 "--method", "both"]) == 0
    assert "method_discrepancy" in json.loads(capsys.readouterr().out)
    # the flag wins wherever it stands
    assert main(["spin", "--method", "both", "--input", str(spin_input),
                 "--config", str(cfg)]) == 0
    assert "method_discrepancy" in json.loads(capsys.readouterr().out)


def test_config_file_beats_env_tol(tmp_path, capsys, monkeypatch):
    # D is 1e-7 off symmetric: COROTCALC_TOL=1e-5 accepts it, a config tol=1e-10 not
    rng = make_rng(9)
    d = np.array(random_symmetric(rng, 3))
    d[0, 1] += 1e-7
    path = write_payload(tmp_path / "in.json", np.eye(3), d, random_skew(rng, 3))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=1e-10\n")
    monkeypatch.setenv("COROTCALC_TOL", "1e-5")
    assert main(["spin", "--input", str(path)]) == 0
    assert main(["spin", "--input", str(path), "--config", str(cfg)]) == 2
    assert main(["spin", "--input", str(path), "--config", str(cfg), "--tol", "1e-5"]) == 0


def test_config_without_seed_leaves_seed_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    argv = ["simulate", "--motion", "polynomial", "--config", str(cfg)]
    cfg.write_text("t_end=0.01\n")
    assert main(argv) == 0
    assert "polynomial(seed=42," in capsys.readouterr().out
    cfg.write_text("t_end=0.01\nseed=11\n")
    assert main(argv) == 0
    assert "polynomial(seed=11," in capsys.readouterr().out


def test_old_config_with_empty_output_path_writes_default(tmp_path, monkeypatch, capsys):
    # files written before output_path had a default carry output_path=''
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dt=0.01\nt_end=0.05\noutput_path=''\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "traj.csv").exists()


def test_spin_accepts_wide_positive_spectrum(tmp_path, capsys):
    # smallest eigenvalue 1 next to 1e13: positive, so SPD
    rng = make_rng(12)
    path = write_payload(
        tmp_path / "wide.json", np.diag([1e13, 1.0, 1.0]), random_symmetric(rng, 3),
        random_skew(rng, 3),
    )
    assert main(["spin", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method_discrepancy"] <= 1e-10


# A valid payload whose spin overflows: B = [[2, 0.9], [0.9, 1]], D = 1.7e308 * ones.
OVERFLOW_PAYLOAD = {
    "B": {"dim": 2, "rows": [[2.0, 0.9], [0.9, 1.0]]},
    "D": {"dim": 2, "rows": [[1.7e308, 1.7e308], [1.7e308, 1.7e308]]},
    "W": {"dim": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]},
}


@pytest.mark.parametrize("method", ["spectral", "both"])
def test_spin_overflow_exit_2_as_console_script(method, tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_PAYLOAD))
    proc = subprocess.run(
        [sys.executable, "-m", "corotcalc.cli", "spin", "--input", str(path), "--method", method],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("method", ["spectral", "commutator", "both"])
def test_spin_b_eigenvalue_beyond_float_range_exit_2_as_console_script(method, tmp_path):
    # B's eigenvalues are 2e308 and 0: the eigensolve reports the overflow
    payload = dict(OVERFLOW_PAYLOAD, B={"dim": 2, "rows": [[1e308, 1e308], [1e308, 1e308]]},
                   D={"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]})
    path = tmp_path / "huge_b.json"
    path.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "corotcalc.cli", "spin", "--input", str(path), "--method", method],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: bad matrix B: an eigenvalue lies beyond the float range\n"
    assert proc.stdout == ""


# SPD B whose eigenvalue quotient leaves the float range: r = b_i/b_j underflows
# to 0 (ln 0 fails) or overflows (the classical weight is NaN)
@pytest.mark.parametrize("b", [[[1e-200, 0.0], [0.0, 1e150]], [[1e-310, 0.0], [0.0, 1.0]]])
@pytest.mark.parametrize("method", ["spectral", "both", "commutator"])
def test_spin_classical_weight_beyond_float_range_exit_2_as_console_script(method, b, tmp_path):
    path = tmp_path / "quotient.json"
    path.write_text(json.dumps(dict(OVERFLOW_PAYLOAD, B={"dim": 2, "rows": b},
                                    D={"dim": 2, "rows": [[0.0, 1.0], [1.0, 0.0]]})))
    proc = subprocess.run(
        [sys.executable, "-m", "corotcalc.cli", "spin", "--input", str(path), "--method", method],
        capture_output=True, text=True, timeout=60,
    )
    if method == "commutator":  # the sigma kernel at the log strain is finite
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["omega_log"]["dim"] == 2
        return
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: the classical spin weight c(b_i, b_j) fails: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert proc.stdout == ""


def test_spin_discrepancy_of_spins_above_1e154_is_finite_json(tmp_path, capsys):
    # spins of about 4.4e290: the squares in the discrepancy's norm overflow
    payload = dict(OVERFLOW_PAYLOAD, D={"dim": 2, "rows": [[1e308, 1e308], [1e308, -1e308]]})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    assert main(["spin", "--input", str(path), "--method", "both"]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    assert 0.0 < out["method_discrepancy"] < math.inf
