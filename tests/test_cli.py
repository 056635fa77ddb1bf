import json
import os

import pytest

from orlicz_korn.cli import main


def run(tmp_path, *args):
    out = tmp_path / "out"
    rc = main(list(args) + ["--out", str(out)])
    return rc, out


def test_unknown_subcommand_exits_2():
    assert main(["no-such-command"]) == 2


def test_malformed_flag_exits_2():
    assert main(["check-balance", "--nope"]) == 2


def test_unknown_young_name_exits_2(tmp_path):
    rc, _ = run(tmp_path, "check-balance", "--A", "missing", "--B", "L2")
    assert rc == 2


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


def test_laminate_demo_m0(tmp_path):
    rc, out = run(tmp_path, "laminate-demo", "--m-max", "0",
                  "--A", "L1", "--B", "L1")
    assert rc == 0
    lines = (out / "blowup.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    ratio = float(lines[1].split(",")[-1])
    assert ratio == 0.0


def test_verify_korn_runs(tmp_path):
    rc, out = run(tmp_path, "verify-korn", "--A", "L2", "--B", "L2",
                  "--grid", "8", "--suite", "smooth", "--trials", "2")
    assert rc == 0
    assert (out / "korn_ratios.csv").exists()


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


@pytest.mark.parametrize("argv", [
    ["check-balance", "--A", "{bad", "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power", "params": {"p": 0.5}}', "--B", "L2"],
    ["verify-hardy", "--A", "L2", "--B", "L2", "--trials", "0"],
    ["laminate-demo", "--A", "Linf", "--B", "L1", "--m-max", "1"],
    ["verify-korn", "--A", "L2", "--B", "L2", "--suite", "radial",
     "--mode", "zero_bc", "--grid", "6"],
    ["verify-korn", "--A", "L2", "--B", "L2", "--suite", "laminate", "--trials", "1"],
    ["verify-korn", "--A", "L2", "--B", "L2", "--dim", "2", "--grid", "6"],
    ["--config", "{tmp}/missing.json", "verify-hardy", "--A", "L2", "--B", "L2"],
    ["--config", "{tmp}/bad.json", "verify-hardy", "--A", "L2", "--B", "L2"],
    ["--config", "{tmp}/list.json", "verify-hardy", "--A", "L2", "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power"}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power", "params": {"p": 2, "q": 1}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power", "params": {"p": "x"}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "indicator", "params": {"t1": NaN}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "scaled", "params": {"m": 2}}', "--B", "L2"],
    ["check-balance", "--A", '{"params": {"p": 2}}', "--B", "L2"],
    ["check-balance", "--A", '{"kind": "power", "params": [2]}', "--B", "L2"],
])
def test_user_errors_exit_2_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "bad.json").write_text("{bad")
    (tmp_path / "list.json").write_text("[1]")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("orlicz-korn: error: ")


def test_verify_korn_dim_2_runs_on_a_2d_grid(tmp_path):
    rc, out = run(tmp_path, "verify-korn", "--A", "L2", "--B", "L2", "--dim", "2",
                  "--operator", "E", "--grid", "6", "--trials", "1")
    assert rc == 0
    assert (out / "korn_ratios.csv").read_text().startswith("trial,ratio\nsmooth_0,")


def test_laminate_realize_creates_fresh_out(tmp_path):
    rc, out = run(tmp_path, "laminate-demo", "--A", "L1", "--B", "L1", "--realize",
                  "--m-max", "1", "--grid", "16", "--depth", "8")
    assert rc == 0
    assert (out / "laminate_m1.bin").exists()
    assert (out / "realize.csv").exists()


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
