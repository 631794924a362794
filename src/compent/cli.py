"""Command-line front end: verification suites, packings, counterexamples,
and protocol demos with machine-readable reports.

Exit codes: 0 all checks passed, 1 a conclusive check failed, 2 bad usage or
configuration.  Reports carry no timestamps, so identical configurations
yield byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

import numpy as np

from .circuits import apply, bbpssw_round, epr_expectation, gate_count, unrotate_distillation
from .harness import (EQ_TOL, all_selectors, random_pure_teleport, run_noninvariance_counterexample,
                      run_suites)
from .linalg import haar_unitary
from .measures import p_err_dilute, p_err_distill
from .packing import greedy_packing, packing_to_dict, separation_check
from .states import bipartite_from_matrix, epr_pairs, rotated_epr, tensor_states

REPORT_FIELDS = (
    "name", "lambda", "key", "lhs", "rhs", "slack", "tolerance",
    "pass", "inconclusive", "details",
)


# Every lambda reruns each selected suite, so a longer range is a typo rather
# than a run; counting a range before building its list keeps a huge one from
# exhausting memory.
MAX_LAMBDAS = 100


class ConfigError(Exception):
    pass


def parse_lambdas(text: str) -> list[int]:
    """Parse 'a..b' (inclusive) or a single value; all values must be >= 1."""
    bounds = text.split("..", 1) if ".." in text else (text, text)
    try:
        lo, hi = int(bounds[0]), int(bounds[1])
    except ValueError as exc:
        raise ConfigError(f"bad lambda range {text!r}") from exc
    if hi - lo + 1 > MAX_LAMBDAS:
        raise ConfigError(f"lambda range {text!r} has more than {MAX_LAMBDAS} values")
    if hi < lo or lo < 1:
        raise ConfigError(f"lambda values must be >= 1, got {text!r}")
    return list(range(lo, hi + 1))


def records_to_json(records) -> str:
    return json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True) + "\n"


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in records:
        row = r.to_dict()
        row["details"] = json.dumps(row["details"], sort_keys=True)
        writer.writerow(row)
    return buf.getvalue()


def write_report(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    lambdas = parse_lambdas(args.lambdas)
    if not args.suite:
        raise ConfigError("verify needs at least one --suite")
    if not 0.0 <= args.tolerance < float("inf"):
        raise ConfigError(f"tolerance must be finite and nonnegative, got {args.tolerance}")
    records = run_suites(
        args.suite, lambdas, args.seed,
        tolerance=args.tolerance, kappa=args.kappa,
    )
    text = records_to_json(records) if args.format == "json" else records_to_csv(records)
    write_report(text, args.out)
    inconclusive = sum(r.inconclusive for r in records)
    passed = sum(r.passed and not r.inconclusive for r in records)
    failed = len(records) - passed - inconclusive
    sys.stderr.write(
        f"{len(records)} checks: {passed} passed, {failed} failed, {inconclusive} inconclusive\n"
    )
    return 1 if failed else 0


def _require_size(flag: str, value: int) -> int:
    """The commands' dense simulations take one or two qubits per party."""
    if not 1 <= value <= 2:
        raise ConfigError(f"{flag} must be 1 or 2, got {value}")
    return value


def cmd_net(args) -> int:
    _require_size("--m", args.m)
    packing = greedy_packing(args.m, args.eta, seed=args.seed,
                             max_candidates=args.max_candidates, deadline_s=args.deadline)
    if not separation_check(packing):
        sys.stderr.write("separation check failed\n")
        return 1
    report = packing_to_dict(packing)
    if packing.stop == "deadline":
        report["truncated"] = True
    write_report(json.dumps(report, sort_keys=True) + "\n", args.out)
    sys.stderr.write(f"{len(packing)} members from {packing.candidates} candidates "
                     f"(stopped: {packing.stop}), separation check passed\n")
    return 0


def cmd_counterexample(args) -> int:
    _require_size("--m", args.m)
    record = run_noninvariance_counterexample(args.m, args.eps, args.seed)
    if args.out:
        write_report(records_to_json([record]), args.out)
    if record.inconclusive:
        print(f"threshold: inconclusive (no grid eta beats the g2 term for m={args.m}, eps={args.eps})")
        print("verdict: inconclusive")
        return 0
    print(f"threshold eta: {record.details['threshold']}")
    print(f"packing overlap: {record.details['overlap']:.9f}")
    print(f"squashed upper bound: {record.lhs:.9f} (target < {args.m} - 1e-6)")
    print(f"verdict: {'pass' if record.passed else 'fail'}")
    return 0 if record.passed else 1


def _demo_budget_line(count: int, budget: float) -> str:
    verdict = "within" if count <= budget else "exceeds"
    return f"gate count: {count} ({verdict} budget {budget:g})"


def cmd_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.protocol == "teleport":
        n = _require_size("--n", args.n)
        circuit, target = random_pure_teleport(rng, n)
        err = p_err_dilute(circuit, target, n)
        print(f"teleportation dilution of a random pure target ({n} pairs consumed)")
        print(f"p_err: {err:.3e}")
        print(_demo_budget_line(gate_count(circuit), 20.0 * n + 10.0))
        return 0
    if args.protocol == "unrotate":
        m = _require_size("--m", args.m)
        u = haar_unitary(2 ** m, rng)
        circuit = unrotate_distillation(u, m)
        err = p_err_distill(circuit, rotated_epr(u, m), m)
        print(f"unrotation distillation of a Haar-rotated EPR block (m={m})")
        print(f"p_err: {err:.3e}")
        print(_demo_budget_line(gate_count(circuit), 4.0))
        return 0
    # bbpssw: the parser's choices admit no other protocol
    f = args.fidelity
    if not 0.0 <= f <= 1.0:
        raise ConfigError("input fidelity must lie in [0, 1]")
    phi = epr_pairs(1).matrix
    pair_matrix = f * phi + (1 - f) * (np.eye(4) - phi) / 3.0
    pair = bipartite_from_matrix(pair_matrix, (1, 1))
    circuit = bbpssw_round()
    out = apply(circuit, tensor_states(pair, pair))
    channel_fidelity = epr_expectation(out, 1)
    print(f"purification round on two isotropic pairs with F={f}")
    print(f"channel-output fidelity with the EPR pair: {channel_fidelity:.6f}")
    print(_demo_budget_line(gate_count(circuit), 20.0))
    return 0


@cache  # one parser per process: parsing leaves no state on it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compent",
        description="Certify structural properties of resource-bounded entanglement bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run theorem-check suites")
    verify.add_argument("--suite", action="append", default=None,
                        choices=all_selectors(), help="suite selector (repeatable)")
    verify.add_argument("--lambda", dest="lambdas", default="1..2",
                        help="growth parameters, 'a..b' inclusive or a single value")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tolerance", type=float, default=EQ_TOL)
    verify.add_argument("--kappa", type=int, default=1, choices=(1, 2, 3),
                        help="key length for keyed suites")
    verify.add_argument("--out", default=None, help="report file (default stdout)")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.set_defaults(func=cmd_verify)

    net = sub.add_parser("net", help="build a separated unitary packing")
    net.add_argument("--m", type=int, default=1)
    net.add_argument("--eta", type=float, required=True)
    net.add_argument("--seed", type=int, default=0)
    net.add_argument("--out", default=None)
    net.add_argument("--max-candidates", type=int, default=None, help="stop after N candidates")
    net.add_argument("--deadline", type=float, default=None,
                     help="draw no more candidates after S seconds (the first draw always runs); "
                          "the separation check that follows is not bounded")
    net.set_defaults(func=cmd_net)

    cex = sub.add_parser("counterexample", help="run the non-invariance pipeline")
    cex.add_argument("--m", type=int, default=1)
    cex.add_argument("--eps", type=float, default=0.0)
    cex.add_argument("--seed", type=int, default=0)
    cex.add_argument("--out", default=None)
    cex.set_defaults(func=cmd_counterexample)

    demo = sub.add_parser("demo", help="run a stock protocol")
    demo.add_argument("protocol", choices=("teleport", "unrotate", "bbpssw"))
    demo.add_argument("--n", type=int, default=1, help="teleported qubits")
    demo.add_argument("--m", type=int, default=1, help="rotated EPR block size")
    demo.add_argument("--fidelity", type=float, default=0.8, help="isotropic input fidelity")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:  # SizeLimitError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
