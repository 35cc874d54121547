"""Command-line interface.

Subcommands:

* ``point``: evaluate one operating point and print its measures.
* ``sweep``: evaluate the grid described by the config and write CSV/PGM.
* ``stability``: print the drift spectrum at an operating point.
* ``selftest``: run the built-in analytic fixtures and cross-checks.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .entanglement import (
    _e_n,
    nu_minus_stack,
    nu_minus_via_partial_transpose,
    random_two_mode_covariance,
)
from .errors import OmmlabError
from .harness import (
    VERSION,
    _check_heatmap,
    _working_points,
    evaluate_point,
    load_config,
    run_sweep,
    write_csv,
    write_pgm,
)
from .model import TWO_PI
from .steadystate import physicality_margin, solve_lyapunov, solve_lyapunov_stack


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else format(value, ".9g")


def _cmd_point(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    report = evaluate_point(config.params, config.pairs, oracle=args.oracle)
    print(f"stable={'true' if report.stable else 'false'}")
    if report.margin is not None:
        print(f"margin_rad_s={report.margin:.9g}")
    if report.state is not None:
        print(f"q_avg={report.state.q_avg:.9g}")
    for label in config.pairs:
        ent = report.entanglement[label]
        print(f"E_{label}={_fmt(ent.e_n)}")
        print(f"nu_{label}={_fmt(ent.nu_minus)}")
    print(f"efficiency={_fmt(report.efficiency)}")
    if args.oracle:
        print(f"oracle_deviation={_fmt(report.oracle_deviation)}")
    if report.error is not None:
        print(f"error={report.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if config.sweep is None:
        print("error: the config has no sweep block", file=sys.stderr)
        return 1
    # every output is checked before the grid is solved
    out = Path(args.out)
    pgms = [(pair, out.with_suffix(f".{pair}.pgm")) for pair in args.heatmap or []]
    for pair, _ in pgms:
        _check_heatmap(config.sweep.axis2 is not None, config.pairs, pair)
    if not out.parent.is_dir():
        raise OmmlabError(f"cannot write {args.out}: {out.parent} is not a directory")
    for path in [out, *(path for _, path in pgms)]:
        if path.is_dir():
            raise OmmlabError(f"cannot write {path}: it is a directory")
    result = run_sweep(
        config.params,
        config.sweep,
        config.pairs,
        threads=args.threads,
        oracle=args.oracle,
    )
    write_csv(result, args.out, reproducible=args.reproducible)
    table = result.reports
    print(f"wrote {args.out} ({len(table)} points)")
    for pair, path in pgms:
        write_pgm(result, pair, path)
        print(f"wrote {path}")
    failures = np.count_nonzero(np.not_equal(table.error, None))
    unstable = np.count_nonzero(~table.stable & ~np.isnan(table.margin))
    if unstable:
        print(f"{unstable} unstable points")
    if failures:
        print(f"{failures} points recorded errors", file=sys.stderr)
    deviations = table.oracle_deviation[~np.isnan(table.oracle_deviation)]
    if args.oracle and deviations.size:
        print(f"max_oracle_deviation={deviations.max():.9g}")
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    # the spectrum of the working point the harness keeps, which in derived
    # mode need not be the first branch solve_semiclassics returns
    *_, eigs, _, max_real = _working_points([config.params])
    max_real = float(max_real[0])
    print("eigenvalues (rad/s), sorted by real part:")
    for eig in eigs[0]:
        print(f"  {eig.real:+.9e}  {eig.imag:+.9e}j   ({eig.real / TWO_PI:+.4e} Hz)")
    print(f"stable={'true' if max_real < 0.0 else 'false'}")
    print(f"margin_rad_s={-max_real:.9g}")
    return 0


def _cmd_selftest(_args: argparse.Namespace) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}{': ' + detail if detail else ''}")

    # decoupled cavity relaxes to vacuum
    kappa, delta = 1.0, 0.7
    a = np.array([[-kappa, delta], [-delta, -kappa]])
    d = kappa * np.eye(2)
    v = solve_lyapunov(a, d).v
    err = float(np.max(np.abs(v - 0.5 * np.eye(2))))
    check("decoupled-cavity-vacuum", err < 1e-12, f"max deviation {err:.3e}")

    # two-mode squeezed state: E_N = 2r
    r = 0.5
    ch, sh = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    tms = np.block(
        [[ch * np.eye(2), sh * np.diag([1.0, -1.0])],
         [sh * np.diag([1.0, -1.0]), ch * np.eye(2)]]
    )
    nu, errors = nu_minus_stack(np.array([tms, 0.5 * np.eye(4)]))
    e_n = _e_n(nu[0])
    ok = errors[0] is None and abs(e_n - 2 * r) < 1e-9
    check("two-mode-squeezed-EN", ok, f"E_N {e_n:.12f}")

    # vacuum is separable
    check("vacuum-EN-zero", errors[1] is None and _e_n(nu[1]) == 0.0)

    # closed form vs eigenvalue route on random states
    rng = np.random.default_rng(20260825)
    blocks = np.array([random_two_mode_covariance(rng) for _ in range(50)])
    nu, errors = nu_minus_stack(blocks)
    spectral = np.array([nu_minus_via_partial_transpose(v0) for v0 in blocks])
    worst = float(np.max(np.abs(nu - spectral)))
    check(
        "nu-minus-cross-check", all(e is None for e in errors) and worst < 1e-10,
        f"worst |delta nu| {worst:.3e}",
    )

    # default operating point: stable, physical, deterministic
    try:
        config = load_config(None)
        first = evaluate_point(config.params, config.pairs)
        second = evaluate_point(config.params, config.pairs)
        check("default-point-stable", first.stable and first.error is None)
        same = all(
            first.entanglement[k].e_n == second.entanglement[k].e_n
            for k in config.pairs
        )
        check("default-point-deterministic", same)
        # V of the branch evaluate_point keeps, from stage 1 of the harness
        scale, d, _, a, eigs, vecs, _ = _working_points([config.params])
        v, errors = solve_lyapunov_stack(a, d, scale, eigs, vecs)
        stable = first.stable and errors[0] is None
        margin = physicality_margin(v[0]) if stable else -math.inf
        check("default-point-physical", margin >= -1e-8, f"min eig {margin:.3e}")
    except OmmlabError as exc:
        check("default-point-stable", False, str(exc))

    print(f"{'OK' if failures == 0 else 'FAILED'} ({failures} failures)")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ommlab",
        description="Steady-state Gaussian entanglement of a five-mode "
        "atom-optomagnomechanical system",
    )
    parser.add_argument("--version", action="version", version=f"ommlab {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate a single operating point")
    p_point.add_argument("--config", help="JSON config path (defaults when omitted)")
    p_point.add_argument(
        "--oracle", action="store_true",
        help="cross-check the covariance against the exact-flow relaxation",
    )
    p_point.set_defaults(func=_cmd_point)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid")
    p_sweep.add_argument("--config", required=True, help="JSON config with a sweep block")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument(
        "--heatmap", action="append", metavar="PAIR",
        help="also write a PGM heatmap for this pair (repeatable)",
    )
    p_sweep.add_argument("--threads", type=int, default=1, help="worker threads (default: 1)")
    p_sweep.add_argument(
        "--reproducible", action="store_true",
        help="omit the timestamp so identical inputs give identical bytes",
    )
    p_sweep.add_argument(
        "--oracle", action="store_true",
        help="cross-check every point against the exact-flow relaxation",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_stab = sub.add_parser("stability", help="print the drift spectrum")
    p_stab.add_argument("--config", help="JSON config path (defaults when omitted)")
    p_stab.set_defaults(func=_cmd_stability)

    p_self = sub.add_parser("selftest", help="run built-in fixtures and cross-checks")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OmmlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
