import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_korn
from orlicz_korn import balance, fields, laminate, young
from orlicz_korn.cli import main


def run(tmp_path, *args):
    out = tmp_path / "out"
    rc = main(list(args) + ["--out", str(out)])
    return rc, out


def test_unknown_subcommand_exits_2():
    assert main(["no-such-command"]) == 2


def test_malformed_flag_exits_2():
    assert main(["check-balance", "--nope"]) == 2


def test_unknown_young_name_exits_2(tmp_path, capsys):
    rc, _ = run(tmp_path, "check-balance", "--A", "missing", "--B", "L2")
    assert rc == 2
    entries = ", ".join(sorted(young.load_catalog()))
    assert capsys.readouterr().err == (f"orlicz-korn: error: unknown Young function 'missing'; "
                                       f"catalog entries: {entries}\n")


def test_check_balance_writes_csv_and_manifest(tmp_path):
    rc, out = run(tmp_path, "check-balance", "--A", "L2", "--B", "L2")
    assert rc == 0
    lines = (out / "balance.csv").read_text().strip().splitlines()
    assert lines[0] == "name_A,name_B,primal_holds,dual_holds,c,t0"
    assert lines[1].startswith("L2,L2,True,True,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "check-balance"
    assert manifest["catalog_version"]
    assert manifest["tool_version"]


def test_classify_examples_exits_1_on_a_pair_that_is_not_as_expected(tmp_path, monkeypatch):
    # every example pair is expected to hold; (L2, Linf) does not
    monkeypatch.setattr(balance, "EXAMPLE_PAIRS", (("L2", "L2", "self"), ("L2", "Linf", "bounded")))
    rc, out = run(tmp_path / "two", "classify-examples")
    assert rc == 1
    with open(out / "classify.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["name_A", "name_B", "primal_holds", "dual_holds", "c", "t0",
                      "expected", "as_expected"]
    assert [(r[0], r[1], r[6], r[7]) for r in rows] == [("L2", "L2", "True", "True"),
                                                        ("L2", "Linf", "True", "False")]
    monkeypatch.setattr(balance, "EXAMPLE_PAIRS", (("L2", "L2", "self"),))
    assert run(tmp_path / "one", "classify-examples")[0] == 0


def test_check_balance_fails_a_b_that_is_infinite_past_t0(tmp_path):
    rc, out = run(tmp_path, "check-balance", "--A", "L2", "--B", "Linf")
    assert rc == 0
    assert (out / "balance.csv").read_text().splitlines()[1] == "L2,Linf,False,False,inf,inf"


def test_laminate_demo_m0(tmp_path):
    rc, out = run(tmp_path, "laminate-demo", "--m-max", "0",
                  "--A", "L1", "--B", "L1")
    assert rc == 0
    lines = (out / "blowup.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    ratio = float(lines[1].split(",")[-1])
    assert ratio == 0.0


def test_laminate_demo_solves_the_scale_of_a_large_r(tmp_path):
    # the scale inverts LlogL at 2^(m-1) / r^2 = 5e-81, far below 1
    rc, out = run(tmp_path, "laminate-demo", "--A", "LlogL", "--B", "L1",
                  "--r", "1e40", "--m-max", "2")
    assert rc == 0
    assert len((out / "blowup.csv").read_text().strip().splitlines()) == 1 + 3


def test_laminate_demo_runs_to_the_largest_order(tmp_path):
    # m = 1024 is the last order whose target 2^(m-1) is a float; no numpy
    # warning on the way (the suite makes each one an error)
    rc, out = run(tmp_path, "laminate-demo", "--A", "L1", "--B", "L1", "--m-max", "1024")
    assert rc == 0
    assert len((out / "blowup.csv").read_text().strip().splitlines()) == 1 + 1025


def test_check_balance_of_the_conjugate_of_an_indicator(tmp_path):
    # the conjugate of a table is its exact conjugate, here the function 2t
    spec = '{"kind": "conjugate", "params": {"of": {"kind": "indicator", "params": {"t1": 2}}}}'
    rc, out = run(tmp_path, "check-balance", "--A", spec, "--B", "L2")
    assert rc == 0
    assert (out / "balance.csv").read_text().splitlines()[1].endswith(",L2,False,False,inf,inf")
    # the name cell holds the JSON's commas, quoted
    with open(out / "balance.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [6, 6] and rows[1][0] == spec
    C, P = young.from_json(spec), young.PowerYoung(1.0, 2.0)
    t = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 61)))
    assert np.array_equal(C.value(t), P.value(t)) and np.array_equal(C.inverse(t), P.inverse(t))


def test_verify_korn_runs(tmp_path):
    rc, out = run(tmp_path, "verify-korn", "--A", "L2", "--B", "L2",
                  "--grid", "8", "--suite", "smooth", "--trials", "2")
    assert rc == 0
    assert (out / "korn_ratios.csv").exists()


def test_verify_korn_writes_nan_for_a_field_in_the_kernel(tmp_path, monkeypatch):
    # the suite gives a kernel member NaN, and a NaN cell reads "nan", also
    # as numpy's float and with its sign bit set
    ratios = iter([None, np.float64(-np.nan), math.nan])

    def ratio(*args):
        r = next(ratios)
        if r is None:
            raise fields.KernelMembership("in the kernel")
        return r

    monkeypatch.setattr(fields, "korn_ratio", ratio)
    rc, out = run(tmp_path, "verify-korn", "--A", "L2", "--B", "L2",
                  "--grid", "8", "--suite", "smooth", "--trials", "3")
    assert rc == 0
    assert (out / "korn_ratios.csv").read_bytes() == b"trial,ratio\nsmooth_0,nan\nsmooth_1,nan\nsmooth_2,nan\n"


def test_poincare_runs(tmp_path):
    rc, out = run(tmp_path, "poincare", "--A", "Linf", "--grid", "8",
                  "--trials", "2")
    assert rc == 0
    body = (out / "poincare.csv").read_text()
    assert "ratio" in body


def test_negative_norm_runs(tmp_path):
    rc, out = run(tmp_path, "negative-norm", "--A", "L2", "--grid", "8",
                  "--trials", "1")
    assert rc == 0
    assert "trivial_upper" in (out / "negative_norm.csv").read_text()


def test_deterministic_output_bytes(tmp_path):
    rc1, out1 = run(tmp_path / "a", "verify-hardy", "--A", "L2", "--B", "L2",
                    "--trials", "8")
    rc2, out2 = run(tmp_path / "b", "verify-hardy", "--A", "L2", "--B", "L2",
                    "--trials", "8")
    assert rc1 == rc2 == 0
    assert (out1 / "hardy_trials.csv").read_bytes() == \
        (out2 / "hardy_trials.csv").read_bytes()
    assert (out1 / "hardy_sweep.csv").read_bytes() == \
        (out2 / "hardy_sweep.csv").read_bytes()


def test_config_file_replaces_flags(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"A": "L2", "B": "L2", "trials": 4}))
    out = tmp_path / "out"
    rc = main(["--config", str(cfgfile), "verify-hardy", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["trials"] == 4


def test_config_entries_are_checked_for_the_subcommand_that_runs(tmp_path):
    # "spike" is a --suite of bogovskii only; the other subcommands with a
    # --suite flag must not reject the entry when bogovskii runs
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"A": "L2", "B": "L2", "grid": 8, "suite": "spike"}))
    assert main(["--config", str(cfgfile), "bogovskii", "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("argv", [
    ["check-balance", "--A", "{bad", "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power", "params": {"p": 0.5}}', "--B", "L2"],
    ["verify-hardy", "--A", "L2", "--B", "L2", "--trials", "0"],
    ["laminate-demo", "--A", "Linf", "--B", "L1", "--m-max", "1"],
    ["poincare", "--A", "L2", "--suite", "radial", "--grid", "1"],
    ["verify-korn", "--A", "L2", "--B", "L2", "--suite", "laminate", "--trials", "1"],
    ["verify-korn", "--A", "L2", "--B", "L2", "--dim", "2", "--grid", "6"],
    ["--config", "{tmp}/missing.json", "verify-hardy", "--A", "L2", "--B", "L2"],
    ["--config", "{tmp}/bad.json", "verify-hardy", "--A", "L2", "--B", "L2"],
    ["--config", "{tmp}/list.json", "verify-hardy", "--A", "L2", "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power"}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power", "params": {"p": 2, "q": 1}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power", "params": {"p": "x"}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "indicator", "params": {"t1": NaN}}', "--B", "L2"],
    # t1 = 1e400 reads as inf: A would be 0 everywhere
    ["verify-hardy", "--A", '{"kind": "indicator", "params": {"t1": 1e400}}', "--B", "L2"],
    # so does every other parameter of a closed-form or scaled kind
    ["check-balance", "--A", '{"kind": "power", "params": {"p": 1e400}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power", "params": {"p": 2, "coeff": Infinity}}',
     "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power_log_log", "params": {"p": 1e400, "alpha": 1}}',
     "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power_log_log", "params": {"p": 1, "alpha": 1e400}}',
     "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power_log_log", "params": {"p": 1, "alpha": 1, '
     '"gamma": 1e400}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "exp_power", "params": {"beta": 1e400}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "exp_log_power", "params": {"a": 2, "beta": 1e400}}',
     "--B", "L2"],
    ["check-balance", "--A", '{"kind": "scaled", "params": {"m": 1e400, "of": {"kind": "power", '
     '"params": {"p": 2}}}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "scaled", "params": {"m": 2, "arg_scale": 1e400, '
     '"of": {"kind": "power", "params": {"p": 2}}}}', "--B", "L2"],
    # the conjugate's arg_scale m / arg_scale overflows
    ["check-balance", "--A", '{"kind": "scaled", "params": {"m": 1e300, "arg_scale": 1e-300, '
     '"of": {"kind": "power", "params": {"p": 2}}}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "scaled", "params": {"m": 2}}', "--B", "L2"],
    ["check-balance", "--A", '{"params": {"p": 2}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power", "params": [2]}', "--B", "L2"],
    ["laminate-demo", "--A", "L1", "--B", "L1", "--r", "0", "--m-max", "2"],
    ["laminate-demo", "--A", "L1", "--B", "L1", "--r", "-1", "--m-max", "2"],
    # r^2 underflows to 0 or overflows
    ["laminate-demo", "--A", "L1", "--B", "L1", "--m-max", "2", "--r", "1e-300"],
    ["laminate-demo", "--A", "L1", "--B", "L1", "--m-max", "2", "--r", "1e300"],
    ["bogovskii", "--A", "L2", "--B", "L2", "--grid", "2"],
    ["verify-korn", "--A", "L2", "--B", "L2", "--grid", "0"],
    ["poincare", "--A", "L2", "--grid", "0"],
    ["bogovskii", "--A", "L2", "--B", "L2", "--grid", "0"],
    ["laminate-demo", "--A", "L1", "--B", "L1", "--m-max", "1", "--realize", "--grid", "0"],
    ["verify-hardy", "--A", "L2", "--B", "L2", "--L", "nan"],
    ["verify-hardy", "--A", "L2", "--B", "L2", "--L", "0"],
    ["verify-korn", "--A", "L2", "--B", "L2", "--trials", "0"],
    ["poincare", "--A", "L2", "--trials", "0"],
    ["negative-norm", "--A", "L2", "--trials", "0"],
    ["verify-korn", "--A", "L1", "--B", "L1", "--suite", "laminate", "--operator", "E",
     "--trials", "0"],
    ["laminate-demo", "--A", "L1", "--B", "L1", "--m-max", "-1"],
    ["negative-norm", "--A", "L2", "--dim", "0"],
    # --config entries are checked like the flags they replace
    ["--config", "{tmp}/trials.json", "negative-norm", "--A", "L2", "--grid", "4"],
    ["--config", "{tmp}/A.json", "verify-korn", "--B", "L2"],
    ["--config", "{tmp}/mode.json", "verify-korn", "--A", "L2", "--B", "L2"],
    ["--config", "{tmp}/realize.json", "laminate-demo", "--A", "L1", "--B", "L1",
     "--m-max", "1"],
    ["--config", "{tmp}/grid.json", "verify-korn", "--A", "L2", "--B", "L2"],
    # the tabulated kind takes no slope cap
    ["check-balance", "--A", '{"kind": "tabulated", "params": {"breakpoints": [1, 2], '
     '"slopes": [1, 5], "final_slope": 6, "slope_cap": 10}}', "--B", "L2"],
    # a final slope below the last slope is not convex
    ["check-balance", "--A", '{"kind": "tabulated", "params": {"breakpoints": [1, 2], '
     '"slopes": [1, 5], "final_slope": 1}}', "--B", "L2"],
    ["verify-hardy", "--A", "L2", "--B", "L2", "--seed", "-1"],
    ["negative-norm", "--A", "L2", "--seed", "-1"],
    ["--config", "{tmp}/seed.json", "poincare", "--A", "L2"],
    # parameters whose derived constants leave the float range
    ["check-balance", "--A", '{"kind": "exp_power", "params": {"beta": 1e-9}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power", "params": {"p": 2, "coeff": 1e-320}}',
     "--B", "L2"],
    ["check-balance", "--A", '{"kind": "exp_log_power", "params": {"a": 1e300, "beta": 2}}',
     "--B", "L2"],
    # every secant slope of the conjugate's tabulation overflows, and the
    # norms read the table
    ["negative-norm", "--A", '{"kind": "exp_log_power", "params": {"a": 705, "beta": 2}}',
     "--grid", "4", "--trials", "1"],
    # a subnormal scale turns the smooth base into a staircase
    ["negative-norm", "--A", '{"kind": "scaled", "params": {"m": 5e-324, "of": {"kind": "scaled", '
     '"params": {"m": 5e-324, "of": {"kind": "exp_power", "params": {"beta": 1}}, '
     '"arg_scale": 5e-324}}}}', "--grid", "4", "--dim", "2", "--trials", "1", "--seed", "1"],
    # the normalization target 2^(m-1) / r^2 leaves the float range at m = 1025
    ["laminate-demo", "--A", "L1", "--B", "L1", "--m-max", "2000"],
    # just past the largest L whose trial integrals are finite floats
    ["verify-hardy", "--A", "L2", "--B", "L2", "--L", "4.46e303"],
    # below the smallest L whose trial edges and 1/delta are normal floats
    ["verify-hardy", "--A", "L2", "--B", "L2", "--L", "1e-320", "--trials", "2"],
    ["verify-hardy", "--A", "L2", "--B", "L2", "--L", "1e-308", "--trials", "2"],
])
def test_user_errors_exit_2_with_one_line(tmp_path, capsys, argv):
    for name, text in {"bad": "{bad", "list": "[1]", "trials": '{"trials": 1.5}',
                       "A": '{"A": 3}', "mode": '{"mode": "bogus"}',
                       "realize": '{"realize": "no"}', "grid": '{"grid": [4]}',
                       "seed": '{"seed": -1}'}.items():
        (tmp_path / f"{name}.json").write_text(text)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("orlicz-korn: error: ")


def test_balance_needs_no_conjugate_table_while_the_norms_name_its_overflow(tmp_path, capsys):
    # every secant slope of this function's tabulation overflows; the balance
    # check reads only its conjugate's log curves and never builds the table,
    # while negative-norm's Luxemburg norms read it and exit 2 naming the overflow
    A = '{"kind": "exp_log_power", "params": {"a": 705, "beta": 2}}'
    assert run(tmp_path, "check-balance", "--A", A, "--B", "L2")[0] == 0
    assert capsys.readouterr().out.splitlines()[-1] == "primal=True dual=True c=0.0009765625 t0=1.0"
    assert run(tmp_path, "negative-norm", "--A", A, "--grid", "4", "--trials", "1")[0] == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("orlicz-korn: error: the secant slopes of ExpLogPowerYoung(a=705.0")
    assert "overflow from the first tabulation node on" in err


def test_verify_korn_dim_2_runs_on_a_2d_grid(tmp_path):
    rc, out = run(tmp_path, "verify-korn", "--A", "L2", "--B", "L2", "--dim", "2",
                  "--operator", "E", "--grid", "6", "--trials", "1")
    assert rc == 0
    assert (out / "korn_ratios.csv").read_text().startswith("trial,ratio\nsmooth_0,")


def test_radial_zero_bc_suite_runs_on_a_box_holding_the_unit_ball(tmp_path):
    # at 12 cells the sharpest spike (support radius 0.01^(1/3) = 0.22) still
    # reaches nodes off the origin, so every field is nonzero on the grid
    rc, out = run(tmp_path, "verify-korn", "--A", "L2", "--B", "L2", "--suite", "radial",
                  "--mode", "zero_bc", "--grid", "12")
    assert rc == 0
    rows = (out / "korn_ratios.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [f"radial_{i}" for i in range(4)]
    assert all(math.isfinite(float(r.split(",")[1])) for r in rows)
    # the library suite builds the same box from the cell count
    L2 = young.load_catalog()["L2"]
    suite = fields.korn_suite(L2, L2, "radial", 12, 3, "zero_bc", "ED", 8, 20240)
    assert rows == [f"{label},{r:.12g}" for label, r in suite]


def test_laminate_realize_creates_fresh_out(tmp_path):
    rc, out = run(tmp_path, "laminate-demo", "--A", "L1", "--B", "L1", "--realize",
                  "--m-max", "1", "--grid", "16", "--depth", "8")
    assert rc == 0
    assert (out / "laminate_m1.bin").exists()
    assert (out / "realize.csv").exists()


def test_verify_korn_rejects_the_deviatoric_laminate_suite_before_building_it(
        tmp_path, capsys, monkeypatch):
    def unbuilt(m_max):
        raise AssertionError("the laminate fields were built")
    monkeypatch.setattr(laminate, "korn_suite_fields", unbuilt)
    rc, _ = run(tmp_path, "verify-korn", "--A", "L2", "--B", "L2", "--suite", "laminate")
    assert rc == 2
    assert capsys.readouterr().err == ("orlicz-korn: error: deviatoric mode needs a 3-d grid; "
                                       "the 2-d trace-free theory is out of scope\n")


def test_laminate_realize_keeps_one_field_alive(tmp_path):
    # the default grid, 512^2 cells: one field is 2 * 513^2 doubles
    field_bytes = 2 * 513 ** 2 * 8
    tracemalloc.start()
    try:
        rc, out = run(tmp_path, "laminate-demo", "--A", "L1", "--B", "L1", "--realize",
                      "--m-max", "3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert [(out / f"laminate_m{m}.bin").stat().st_size for m in (1, 2, 3)] == [field_bytes] * 3
    assert peak <= 2 * field_bytes


def test_verify_korn_laminate_suite_keeps_one_field_alive(tmp_path, monkeypatch):
    # each build records which of the fields built before it are still alive
    built, alive_at_build = [], []
    as_grid_field = laminate.LaminateRealization.as_grid_field

    def tracked(self, cells):
        alive_at_build.append([ref() is not None for ref in built])
        u = as_grid_field(self, cells)
        built.append(weakref.ref(u))
        return u

    monkeypatch.setattr(laminate.LaminateRealization, "as_grid_field", tracked)
    rc, out = run(tmp_path, "verify-korn", "--A", "L1", "--B", "L1", "--suite", "laminate",
                  "--operator", "E", "--trials", "2")
    assert rc == 0
    rows = [r.split(",") for r in (out / "korn_ratios.csv").read_text().strip().splitlines()[1:]]
    assert [label for label, _ in rows] == ["laminate_0", "laminate_1"]
    assert all(math.isfinite(float(r)) for _, r in rows)
    assert alive_at_build == [[], [False]]


@pytest.mark.parametrize("argv", [
    ["negative-norm", "--A", "L2", "--dim", "2", "--grid", "6", "--trials", "1"],
    ["verify-korn", "--A", "L2", "--B", "L2", "--dim", "2", "--operator", "E",
     "--grid", "6", "--trials", "1"],
])
def test_manifest_parameters_reproduce_the_run(tmp_path, argv):
    rc, out = run(tmp_path / "first", *argv)
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    cfgfile = tmp_path / "manifest_cfg.json"
    cfgfile.write_text(json.dumps({**manifest["parameters"], "seed": manifest["seed"]}))
    again = tmp_path / "again"
    assert main(["--config", str(cfgfile), argv[0], "--out", str(again)]) == 0
    csvs = sorted(out.glob("*.csv"))
    assert csvs
    for csv in csvs:
        assert (again / csv.name).read_bytes() == csv.read_bytes()


@pytest.mark.parametrize("suite, code", [("smooth", 1), ("spike", 0)])
def test_bogovskii_gates_only_the_smooth_residuals(tmp_path, suite, code):
    # on 8x8 cells every residual of both suites is above the 0.05 gate
    rc, out = run(tmp_path, "bogovskii", "--grid", "8", "--A", "L2", "--B", "L2",
                  "--suite", suite)
    assert rc == code
    rows = (out / "bogovskii.csv").read_text().strip().splitlines()[1:]
    assert rows and all(float(r.split(",")[1]) > 0.05 for r in rows)


def _stderr(tmp_path, *argv) -> str:
    """stderr of the command in a fresh interpreter, which prints each numpy
    warning (pytest would catch them); it must succeed."""
    src = os.path.dirname(os.path.dirname(orlicz_korn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "orlicz_korn.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0
    return proc.stderr


def test_check_balance_of_a_fast_exp_log_power_prints_no_warning(tmp_path):
    # its conjugate's table has slopes near 1e306, whose cumulative values
    # overflow to +inf: that means A = inf there, not an error
    assert _stderr(tmp_path, "check-balance", "--A",
                   '{"kind": "exp_log_power", "params": {"a": 2, "beta": 3}}', "--B", "L2") == ""


def test_check_balance_of_an_exp_power_with_overflowing_secants_prints_no_warning(tmp_path):
    # the last finite values of its tabulation rise so steeply that a secant
    # slope overflows to +inf, as the values beyond it do
    assert _stderr(tmp_path, "check-balance", "--A",
                   '{"kind": "exp_power", "params": {"beta": 2.299379324668949}}', "--B", "L2") == ""


def test_laminate_demo_of_a_table_whose_tail_overflows_prints_no_warning(tmp_path):
    # B(t_m) = 1 + 1e300 (t_m - 1) is +inf for the larger t_m
    assert _stderr(tmp_path, "laminate-demo", "--A", "L2", "--B",
                   '{"kind":"tabulated","params":{"breakpoints":[1],"slopes":[1],"final_slope":1e300}}',
                   "--m-max", "6", "--r", "1e-8") == ""


# small valid flags of every subcommand but classify-examples (about 5 s a
# call), and values that are invalid for some flag
_VALID_FLAGS = {
    "check-balance": {"--A": "L2", "--B": "L2"},
    "verify-hardy": {"--A": "L1", "--B": "L1", "--L": "1", "--trials": "1", "--seed": "1"},
    "verify-korn": {"--A": "L2", "--B": "L2", "--grid": "4", "--mode": "full", "--operator": "E",
                    "--suite": "smooth", "--trials": "1", "--dim": "2", "--seed": "1"},
    "laminate-demo": {"--m-max": "1", "--A": "L1", "--B": "L1", "--r": "1", "--depth": "4",
                      "--grid": "8"},
    "bogovskii": {"--grid": "4", "--A": "L2", "--B": "L2", "--suite": "spike"},
    "poincare": {"--A": "L2", "--grid": "4", "--mode": "full", "--suite": "smooth", "--trials": "1",
                 "--seed": "1"},
    "negative-norm": {"--A": "L2", "--grid": "4", "--dim": "2", "--trials": "1", "--seed": "1"},
}
_INVALID_VALUES = ("0", "-1", "nan", "inf", "-inf", "5e-324", "1e-300", "1e300", "-1e300", "1e400",
                   "-1e400", "2.5", "x", "", "{bad", "[1]", '{"kind": "power"}', '{"kind": "nosuch"}',
                   "nosuch")
# the commands that run a balance check, about 0.5 s a run
_BALANCE_COMMANDS = ("check-balance", "verify-hardy")

# JSON Young functions: each kind's parameters, each a small valid number or
# one from the edges of the float range and the wrong types; now and then
# one name is missing or unknown
_KIND_PARAMS = {"power": ("p", "coeff"), "power_log": ("p", "alpha"), "linear_log": (),
                "power_log_log": ("p", "alpha", "gamma"), "exp_power": ("beta",),
                "exp_log_power": ("a", "beta", "reduced"), "indicator": ("t1",),
                "tabulated": ("breakpoints", "slopes", "final_slope"), "nosuch": ()}
_PARAM = st.booleans().flatmap(lambda edge: st.sampled_from(
    (0, -1, 5e-324, 1e-300, 1e300, -1e300, math.inf, math.nan, "1", None, [1], {}, True)
    if edge else (1, 2, 0.5, 3)))


@st.composite
def _young_leaf(draw):
    kind = draw(st.sampled_from(sorted(_KIND_PARAMS)))
    names = _KIND_PARAMS[kind]
    params = {name: draw(st.lists(_PARAM, min_size=1, max_size=3) | _PARAM
                         if name in ("breakpoints", "slopes") else _PARAM) for name in names}
    if names and draw(st.integers(0, 7)) == 0:
        del params[draw(st.sampled_from(names))]
    if draw(st.integers(0, 7)) == 0:
        params["q"] = 1
    return {"kind": kind, "params": params}


def _scaled(of):
    return st.builds(lambda m, s: {"kind": "scaled", "params": {"m": m, "of": of, "arg_scale": s}},
                     _PARAM, _PARAM)


# a leaf, scaled, conjugated (at most once: the slope solve of a conjugate's
# conjugate is slow), scaled again
_YOUNG_JSON = (_young_leaf().flatmap(lambda f: st.just(f) | _scaled(f))
               .flatmap(lambda f: st.just(f) | st.just({"kind": "conjugate", "params": {"of": f}}))
               .flatmap(lambda f: st.just(f) | _scaled(f)))


@st.composite
def _argv_with_one_drawn_flag(draw):
    command = draw(st.sampled_from(sorted(_VALID_FLAGS)))
    flags = _VALID_FLAGS[command]
    bad = draw(st.sampled_from(sorted(flags)))
    values = st.sampled_from(_INVALID_VALUES)
    # a JSON function may run a balance check: about one draw in 16 of those
    # commands' --A or --B draws one
    if bad in ("--A", "--B") and (command not in _BALANCE_COMMANDS
                                  or draw(st.integers(0, 15)) == 0):
        values |= _YOUNG_JSON.map(json.dumps)
    value = draw(values)
    argv = [command] + [a for f, v in flags.items() for a in (f, value if f == bad else v)]
    return argv + (["--realize"] if command == "laminate-demo" else [])


def _run_in_process(argv, out):
    """(exit code, stderr, {name: bytes} of the CSVs written) of one run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(out)])
    return code, stderr.getvalue(), {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}


@settings(max_examples=200, deadline=None)
@given(_argv_with_one_drawn_flag())
def test_every_input_keeps_the_exit_code_contract(tmp_path_factory, argv):
    # 0, 1 or 2 and no traceback (an exception out of main would be one); a
    # usage error is one line on stderr; every CSV reads back as rows as wide
    # as its header, and a second run writes the same bytes
    code, err, tables = _run_in_process(argv, tmp_path_factory.mktemp("out"))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("orlicz-korn: error: ")
    for data in tables.values():
        header, *rows = csv.reader(io.StringIO(data.decode(), newline=""))
        assert all(len(row) == len(header) for row in rows)
    assert _run_in_process(argv, tmp_path_factory.mktemp("again")) == (code, err, tables)
