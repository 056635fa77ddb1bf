"""Command-line orchestration with reproducible experiment manifests.

Every subcommand writes tidy CSV (one observation per row, witness constants
included, never bare verdicts) plus a manifest JSON capturing the command,
parameters, catalog version, seed, package version and timestamp.  Output
bytes depend only on the manifest parameters and seed, so re-running a
manifest reproduces them exactly; the timestamp lives in the manifest only.

Exit codes: 0 success, 1 a failed check (only verify-hardy says why, in one
line on stderr), 2 usage errors (including unknown catalog names), each
reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time

from . import __version__, balance, bogovskii, fields, hardy, laminate, young

__all__ = ["main"]


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _write_csv(outdir: str, name: str, header, rows) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)
    return path


# parsed entries that are not run parameters: the seed has its own manifest
# field, and the rest name the output, the config file or the dispatch
_NOT_PARAMETERS = ("out", "seed", "config", "func", "command")


@contextlib.contextmanager
def _writing_out():
    """Report an OSError from writing an output under --out (say, where a
    directory takes its name) as a usage error."""
    try:
        yield
    except OSError as exc:
        _usage_error(f"cannot write to --out: {exc}")


@_writing_out()
def _emit(args, tables: dict) -> None:
    outdir = args.out
    for name, (header, rows) in tables.items():
        p = _write_csv(outdir, name, header, rows)
        print(f"wrote {p}")
    manifest = {"command": args.command, "seed": args.seed,
                "parameters": {k: v for k, v in vars(args).items()
                               if k not in _NOT_PARAMETERS},
                "catalog_version": young.CATALOG_VERSION, "tool_version": __version__,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


# the resolver of --A and --B, under the name perfbench's tests patch to see
# which Young-function objects each op uses
_resolve = young.resolve


# ---------------------------------------------------------------------------
# subcommands: each gets the parsed flags and the resolved --A/--B functions
# ---------------------------------------------------------------------------

def _cmd_check_balance(args, A, B) -> int:
    rep = balance.check_balance(A, B)
    rows = [[args.A, args.B, rep.primal.holds, rep.dual.holds,
             rep.witness_c, rep.threshold_t0]]
    _emit(args, {"balance.csv": (["name_A", "name_B", "primal_holds", "dual_holds",
                                  "c", "t0"], rows)})
    print(f"primal={rep.primal.holds} dual={rep.dual.holds} "
          f"c={rep.witness_c} t0={rep.threshold_t0}")
    return 0


def _cmd_classify_examples(args) -> int:
    rows = []
    failures = 0
    for entry in balance.classify_catalog_pairs():
        rep = entry["report"]
        ok = rep.holds == entry["expected_holds"]
        failures += 0 if ok else 1
        rows.append([entry["name_A"], entry["name_B"], rep.primal.holds,
                     rep.dual.holds, rep.witness_c, rep.threshold_t0,
                     entry["expected_holds"], ok])
        print(f"{entry['name_A']:>16s} {entry['name_B']:>16s} "
              f"holds={rep.holds} expected={entry['expected_holds']}")
    _emit(args, {"classify.csv": (["name_A", "name_B", "primal_holds", "dual_holds",
                                   "c", "t0", "expected", "as_expected"], rows)})
    return 1 if failures else 0


def _cmd_verify_hardy(args, A, B) -> int:
    rep = hardy.verify_hardy(A, B, args.L, args.trials, args.seed)
    rows = [[t.label, t.ratio_avg, t.ratio_dual] for t in rep.trials]
    sweep = [[d, r] for d, r in rep.spike_sweep]
    _emit(args, {"hardy_trials.csv": (["label", "ratio_avg", "ratio_dual"], rows),
                 "hardy_sweep.csv": (["delta", "ratio_avg"], sweep)})
    print(f"worst averaging ratio {rep.worst_avg.ratio_avg:.6g} "
          f"({rep.worst_avg.label}); worst dual {rep.worst_dual.ratio_dual:.6g}; "
          f"sweep growing: {rep.sweep_growing}; balance holds: {rep.balance_holds}")
    if rep.balance_holds and rep.sweep_growing:
        (d0, r0), (d1, r1) = rep.spike_sweep[0], rep.spike_sweep[-1]
        print(f"orlicz-korn: check failed: the balance conditions hold, but each spike's averaging "
              f"ratio exceeds the last one's by over 2%, from {r0:.6g} at delta {d0:.3g} to {r1:.6g} "
              f"at delta {d1:.3g}", file=sys.stderr)
        return 1
    return 0


# the --mode names of verify-korn and poincare, as the fields modes they run
_MODES = {"zero_bc": "zero_bc", "full": "full_domain"}


def _cmd_verify_korn(args, A, B) -> int:
    rows = fields.korn_suite(A, B, args.suite, args.grid, args.dim, _MODES[args.mode],
                             args.operator, args.trials, args.seed)
    for label, r in rows:
        print(f"{label}: ratio {r:.6g}")
    _emit(args, {"korn_ratios.csv": (["trial", "ratio"], rows)})
    return 0


def _cmd_laminate_demo(args, A, B) -> int:
    rows = []
    for row in laminate.blowup_curve(A, B, args.m_max, args.r):
        rows.append([row["m"], row["t_m"], row["sym_moment"],
                     row["full_moment"], row["ratio"]])
        print(f"m={row['m']:2d} t_m={row['t_m']:.6g} ratio={row['ratio']:.6g}")
    tables = {"blowup.csv": (["m", "t_m", "sym_moment", "full_moment", "ratio"], rows)}
    if args.realize:
        realized = []
        for row, u in laminate.realization_suite(args.m_max, args.r, args.depth, args.grid):
            with _writing_out():
                fields.save_field(u, os.path.join(args.out, f"laminate_m{row[0]}"))
            realized.append(row)
            del u            # before the suite builds the next field
        tables["realize.csv"] = (["m", "exact_moment", "realized_moment", "rel_gap"],
                                 realized)
    _emit(args, tables)
    return 0


def _cmd_bogovskii(args, A, B) -> int:
    rows = bogovskii.ratio_suite(bogovskii.make_config(args.grid), A, B, args.suite)
    for label, res, ratio in rows:
        print(f"{label}: div residual {res:.4f}, norm ratio {ratio:.6g}")
    _emit(args, {"bogovskii.csv": (["trial", "div_residual", "norm_ratio"], rows)})
    # the spike cores are meant to outrun the grid; only smooth sources must
    # solve, and a NaN residual is no solution
    bad = args.suite == "smooth" and not all(res <= 0.05 for _, res, _ in rows)
    return 1 if bad else 0


def _cmd_poincare(args, A) -> int:
    rows = fields.poincare_suite(A, args.suite, args.grid, _MODES[args.mode],
                                 args.trials, args.seed)
    bad = sum(0 if math.isfinite(r) else 1 for _, r in rows)
    for label, r in rows:
        print(f"{label}: ratio {r:.6g}")
    _emit(args, {"poincare.csv": (["trial", "ratio"], rows)})
    return 1 if bad else 0


def _cmd_negative_norm(args, A) -> int:
    grid = fields.Grid.box(args.grid, dim=args.dim)
    rows = fields.negative_norm_suite(A, grid, args.trials, args.seed)
    for label, lb, ub, ok in rows:
        print(f"{label}: lower {lb:.6g} <= trivial bound {ub:.6g}: {ok}")
    _emit(args, {"negative_norm.csv": (["trial", "lower_bound", "trivial_upper", "ok"],
                                       rows)})
    return 0 if all(ok for *_, ok in rows) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _usage_error(message: str):
    print(f"orlicz-korn: error: {message}", file=sys.stderr)
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as one stderr line
    (argparse would print its usage block first); its subparsers are of
    this class too."""

    def error(self, message):
        _usage_error(message)


def _read_config(argv) -> dict:
    """Entries of the --config JSON file, or {} without one."""
    pre = _Parser(prog="orlicz-korn", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        _usage_error(f"cannot read --config: {exc}")
    if not isinstance(config, dict):
        _usage_error("--config must hold a JSON object")
    return config


def _config_default(action: argparse.Action, value):
    """A --config entry checked like the flag it replaces, or ValueError: a
    switch takes a JSON boolean; any other flag applies its type and choices
    to the entry as to its command-line text, and a flag without a type
    takes a string."""
    if isinstance(action, argparse._StoreTrueAction):
        valid = isinstance(value, bool)
    elif isinstance(value, str) or (action.type and type(value) in (int, float)):
        try:
            value = (action.type or str)(str(value))
            valid = action.choices is None or value in action.choices
        except ValueError:
            valid = False
    else:
        valid = False
    if not valid:
        raise ValueError(f"--config entry {action.dest!r}: {json.dumps(value)} is not "
                         f"a valid value of {action.option_strings[0]}")
    return value


def _build_parser(config: dict) -> argparse.ArgumentParser:
    p = _Parser(
        prog="orlicz-korn",
        description="Numerical toolkit for Korn-type inequalities in Orlicz spaces")
    p.add_argument("--config", help="JSON file whose entries replace flag defaults")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--out", default="out", help="output directory")
        if seed:
            sp.add_argument("--seed", type=int, default=20240)
        # config entries replace flag defaults; explicit flags still win. A bad
        # entry is reported only if this subcommand runs: another may take it
        for action in sp._actions:
            if action.dest in config:
                try:
                    action.default = _config_default(action, config[action.dest])
                except ValueError as exc:
                    sp.set_defaults(config_error=str(exc))
                action.required = False

    sp = sub.add_parser("check-balance", help="decide the balance conditions for a pair")
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    common(sp, seed=False)
    sp.set_defaults(seed=0, func=_cmd_check_balance)

    sp = sub.add_parser("classify-examples", help="classify the built-in example pairs")
    common(sp, seed=False)
    sp.set_defaults(seed=0, func=_cmd_classify_examples)

    sp = sub.add_parser("verify-hardy", help="empirical Hardy-operator norm ratios")
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--L", type=float, default=1.0)
    sp.add_argument("--trials", type=int, default=64)
    common(sp)
    sp.set_defaults(func=_cmd_verify_hardy)

    sp = sub.add_parser("verify-korn", help="Korn-ratio harness over a trial suite")
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--grid", type=int, default=16)
    sp.add_argument("--mode", choices=["zero_bc", "full"], default="zero_bc")
    sp.add_argument("--operator", choices=["E", "ED"], default="ED")
    sp.add_argument("--suite", choices=["smooth", "random", "laminate", "radial"],
                    default="smooth")
    sp.add_argument("--trials", type=int, default=8)
    sp.add_argument("--dim", type=int, default=3)
    common(sp)
    sp.set_defaults(func=_cmd_verify_korn)

    sp = sub.add_parser("laminate-demo", help="blow-up table and optional realization")
    sp.add_argument("--m-max", dest="m_max", type=int, default=10)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--realize", action="store_true")
    sp.add_argument("--depth", type=int, default=64)
    sp.add_argument("--grid", type=int, default=512)
    common(sp, seed=False)
    sp.set_defaults(seed=0, func=_cmd_laminate_demo)

    sp = sub.add_parser("bogovskii", help="divergence solver residuals and norm ratios")
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--suite", choices=["smooth", "spike"], default="smooth")
    common(sp, seed=False)
    sp.set_defaults(seed=0, func=_cmd_bogovskii)

    sp = sub.add_parser("poincare", help="Poincare-ratio harness")
    sp.add_argument("--A", required=True)
    sp.add_argument("--grid", type=int, default=12)
    sp.add_argument("--mode", choices=["zero_bc", "full"], default="zero_bc")
    sp.add_argument("--suite", choices=["smooth", "random", "radial"], default="random")
    sp.add_argument("--trials", type=int, default=6)
    common(sp)
    sp.set_defaults(func=_cmd_poincare)

    sp = sub.add_parser("negative-norm", help="dictionary lower bound vs trivial upper bound")
    sp.add_argument("--A", required=True)
    sp.add_argument("--grid", type=int, default=16)
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--trials", type=int, default=4)
    common(sp)
    sp.set_defaults(func=_cmd_negative_norm)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser(_read_config(argv)).parse_args(argv)
        if hasattr(args, "config_error"):
            _usage_error(args.config_error)
        if args.seed < 0:
            _usage_error(f"--seed must be >= 0, not {args.seed}")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            _usage_error(f"cannot make --out: {exc}")
        catalog = young.load_catalog()
        return args.func(args, *[_resolve(getattr(args, flag), catalog)
                                 for flag in ("A", "B") if hasattr(args, flag)])
    except SystemExit as exc:
        return int(exc.code or 0)
    except (young.DomainError, fields.ConfigurationError, json.JSONDecodeError) as exc:
        # a user's mistake: one line on stderr, usage-error exit code
        print(f"orlicz-korn: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
