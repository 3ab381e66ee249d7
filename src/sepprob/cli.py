"""Command-line interface: exact formulas, Monte Carlo estimates,
conjecture search, empirical chi fits, and quadrature sweeps.

Subcommands emit JSON (or CSV for the tabular outputs) on stdout, or to
--out when given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import quadrature
from .exactmath import (
    CatalogMiss,
    PiRational,
    chi_catalog,
    factorize,
    master_chi,
    milz_strunz_volume,
    p_2qubits,
    p_2quaterbits,
    p_2rebits,
    u_closed,
    volume_hs,
    volume_lebesgue,
)
from .harness import (
    ExperimentConfig,
    conjecture_search,
    estimate_chi_empirical,
    run_experiment,
)
from .sampling import SamplerSpec

EPS_GRID_CAP = 10_000  # points of one --eps-grid, a quadrature each


def _emit(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _factorization_json(value: PiRational | Fraction) -> dict:
    fact = factorize(value)
    return {
        "num": ("-" if fact.sign < 0 else "") + fact.numerator.format(),
        "den": fact.denominator.format(),
    }


def _cmd_exact(args) -> None:
    formula = args.formula
    result: dict = {"formula": formula, "params": {}}
    if formula in ("p2qubits", "p2rebits", "p2quaterbits"):
        k = int(args.k)
        fn = {"p2qubits": p_2qubits, "p2rebits": p_2rebits,
              "p2quaterbits": p_2quaterbits}[formula]
        val = fn(k)
        result["params"] = {"k": k}
        result["exact"] = str(val)
        result["factorization"] = _factorization_json(val)
    elif formula == "u":
        eta = float(Fraction(args.eta))
        val = u_closed(eta, dps=args.dps)
        result["params"] = {"eta": args.eta}
        result["exact"] = str(val)
    elif formula == "chi":
        d = args.d
        k = Fraction(args.k)
        result["params"] = {"d": d, "k": args.k, "epsilon": args.epsilon,
                            "family": args.family}
        result["exact"] = repr(chi_catalog(d, k, args.epsilon, family=args.family))
    elif formula == "master":
        result["params"] = {"d": args.d, "epsilon": args.epsilon}
        result["exact"] = repr(master_chi(args.d, args.epsilon))
    elif formula == "volume":
        if args.measure == "lebesgue":
            val = volume_lebesgue(args.field, args.N)
            result["exact"] = val.format()
            result["factorization"] = _factorization_json(val)
        else:
            rad = volume_hs(args.field, args.N)
            result["exact"] = rad.format()
            result["factorization"] = _factorization_json(rad.coefficient)
            result["radicand"] = rad.radicand
            result["pi_twice"] = rad.pi_twice
        result["params"] = {"field": args.field, "N": args.N,
                            "measure": args.measure}
    elif formula == "mz":
        v0, profile = milz_strunz_volume(args.m, args.r)
        result["params"] = {"m": args.m, "r": args.r}
        result["exact"] = v0.format()
        result["profile"] = profile
        result["factorization"] = _factorization_json(v0.coefficient)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown formula {formula}")
    _emit(json.dumps(result, indent=2), args.out)


def _system_split(system: str) -> tuple[int, int]:
    a, b = system.split("x")
    return int(a), int(b)


def _cmd_estimate(args) -> None:
    dA, dB = _system_split(args.system)
    family = "x_state" if args.family == "xstate" else "full"
    spec = SamplerSpec(field=args.field, n=dA * dB, split=(dA, dB), k=args.k,
                       family=family, seed=args.seed)
    cfg = ExperimentConfig(sampler=spec, target_samples=args.samples,
                           streams=args.streams, threads=args.threads,
                           checkpoint=args.checkpoint)
    _tally, report = run_experiment(cfg)
    _emit(json.dumps(report, indent=2), args.out)


def _cmd_conjecture(args) -> None:
    primes = [int(p) for p in args.primes.split(",")]
    cands = conjecture_search(args.lo, args.hi, primes, args.max_den, args.max_exp)
    payload = {
        "interval": [args.lo, args.hi],
        "primes": primes,
        "max_denominator": args.max_den,
        "max_exponent": args.max_exp,
        "candidates": [
            {"p": c.numerator, "q": c.denominator, "value": c.value,
             "support": list(c.prime_support), "score": c.score}
            for c in cands[: args.top]
        ],
        "total_found": len(cands),
    }
    _emit(json.dumps(payload, indent=2), args.out)


def _cmd_chi_fit(args) -> None:
    table = estimate_chi_empirical(args.field, args.k, args.bins, args.samples,
                                   seed=args.seed, streams=args.streams,
                                   threads=args.threads)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(table["rows"][0]))
    writer.writeheader()
    writer.writerows(table["rows"])
    _emit(buf.getvalue(), args.out)


def _eps_grid(text: str) -> list[float]:
    """The values lo + i step <= hi (within 1e-12) of an --eps-grid
    lo:hi:step, refusing an endless grid or one of more than EPS_GRID_CAP
    points."""
    lo, hi, step = (float(x) for x in text.split(":"))
    last = (hi - lo + 1e-12) / step if step > 0 and lo <= hi else float("nan")
    if not last < EPS_GRID_CAP:  # NaN and infinity included
        raise argparse.ArgumentTypeError(
            f"{text}: need lo <= hi, step > 0 and at most {EPS_GRID_CAP} points")
    return [round(lo + i * step, 12) for i in range(int(last) + 1)]


def _cmd_quadrature(args) -> None:
    k = Fraction(args.k)
    rows = []
    if args.eta is not None:
        chi = quadrature.chi_from_catalog(args.d, k)
        val = quadrature.u_eta(float(Fraction(args.eta)), chi, n_outer=args.nodes,
                               n_inner=max(args.nodes // 2, 16))
        rows.append(("", val, "", ""))
    else:
        for eps in [args.epsilon] if args.epsilon is not None else args.eps_grid:
            if args.method == "qmc":
                val = quadrature.chi_numeric_qmc(args.d, k, eps)
            else:
                val = quadrature.chi_numeric(args.d, k, eps, nodes=args.nodes)
            try:
                ref = chi_catalog(args.d, k, eps)
                err = abs(val - ref)
            except CatalogMiss:
                ref, err = "", ""
            rows.append((eps, val, ref, err))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["epsilon", "value", "reference_value", "abs_err"])
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepprob",
        description="separability/PPT probability toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="evaluate a closed-form formula")
    p_exact.add_argument("--formula", required=True,
                         choices=["p2qubits", "p2rebits", "p2quaterbits", "u",
                                  "chi", "master", "volume", "mz"])
    p_exact.add_argument("--k", default="0", help="induced order (rational ok)")
    p_exact.add_argument("--eta", default="2")
    p_exact.add_argument("--d", type=int, default=2)
    p_exact.add_argument("--epsilon", type=float, default=0.5)
    p_exact.add_argument("--family", choices=["full", "xstate"], default="full")
    p_exact.add_argument("--field", choices=["R", "C", "H"], default="C")
    p_exact.add_argument("--N", type=int, default=4,
                         help="matrix dimension (half-dimension l for field R)")
    p_exact.add_argument("--measure", choices=["lebesgue", "hs"],
                         default="lebesgue")
    p_exact.add_argument("--m", type=int, default=2)
    p_exact.add_argument("--r", type=float, default=0.0)
    p_exact.add_argument("--dps", type=int, default=50)
    p_exact.add_argument("--out")
    p_exact.set_defaults(func=_cmd_exact)

    p_est = sub.add_parser("estimate", help="Monte Carlo PPT-probability run")
    p_est.add_argument("--system", required=True,
                       choices=["2x2", "2x3", "2x4", "2x5", "3x3"])
    p_est.add_argument("--field", required=True, choices=["R", "C"])
    p_est.add_argument("--k", type=int, default=0)
    p_est.add_argument("--family", choices=["full", "xstate"], default="full")
    p_est.add_argument("--samples", type=int, required=True)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--streams", type=int, default=8)
    p_est.add_argument("--threads", type=int, default=1)
    p_est.add_argument("--checkpoint")
    p_est.add_argument("--out")
    p_est.set_defaults(func=_cmd_estimate)

    p_conj = sub.add_parser("conjecture", help="smooth-rational search")
    p_conj.add_argument("--lo", required=True)
    p_conj.add_argument("--hi", required=True)
    p_conj.add_argument("--primes", required=True, help="comma-separated")
    p_conj.add_argument("--max-den", type=int, default=10**6)
    p_conj.add_argument("--max-exp", type=int, default=40)
    p_conj.add_argument("--top", type=int, default=25)
    p_conj.add_argument("--out")
    p_conj.set_defaults(func=_cmd_conjecture)

    p_fit = sub.add_parser("chi-fit", help="empirical chi vs catalog")
    p_fit.add_argument("--field", required=True, choices=["R", "C"])
    p_fit.add_argument("--k", type=int, default=1)
    p_fit.add_argument("--bins", type=int, default=50)
    p_fit.add_argument("--samples", type=int, required=True)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--streams", type=int, default=8)
    p_fit.add_argument("--threads", type=int, default=1)
    p_fit.add_argument("--out")
    p_fit.set_defaults(func=_cmd_chi_fit)

    p_quad = sub.add_parser("quadrature", help="chi integration sweeps")
    p_quad.add_argument("--d", type=int, required=True)
    p_quad.add_argument("--k", default="0")
    p_quad.add_argument("--eta", default=None)
    p_quad.add_argument("--epsilon", type=float, default=None)
    p_quad.add_argument("--eps-grid", type=_eps_grid, default="0.1:1.0:0.1",
                        help="lo:hi:step")
    p_quad.add_argument("--method", choices=["gl", "qmc"], default="gl")
    p_quad.add_argument("--nodes", type=int, default=120)
    p_quad.add_argument("--out")
    p_quad.set_defaults(func=_cmd_quadrature)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:  # an input the library refuses: a usage error
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
