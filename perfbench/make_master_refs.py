"""Regenerate master_refs.json: 50-digit references for the odd-d series table.

Each value is the Hilbert-Schmidt master formula chi_{d,0}(eps) evaluated
with mpmath at the exact binary value of the float eps the benchmark
passes to ``master_chi``.  The run takes a few seconds per point near
eps = 1, which is why the benchmark reads stored values instead.

    python3 perfbench/make_master_refs.py
"""

import json
from pathlib import Path

import mpmath

DPS = 60
DIGITS = 50
DEGREES = (1, 3)
EPS_GRID = (0.5, 0.9, 0.99, 0.999, 0.999999, 1.0)
CALL = ("eps**d * factorial(d)**3 / gamma(d/2+1)**2 "
        "* hyp3f2(-d/2, d/2, d, d/2+1, 3*d/2+1, eps**2) "
        "/ (gamma(d/2+1) * gamma(3*d/2+1))")
OUT = Path(__file__).resolve().parent / "master_refs.json"


def master_ref(d: int, eps: float) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        e = mpmath.mpf(eps)
        half = mpmath.mpf(d) / 2
        reg = mpmath.hyp3f2(-half, half, d, half + 1, 3 * half + 1, e * e)
        reg /= mpmath.gamma(half + 1) * mpmath.gamma(3 * half + 1)
        return e ** d * mpmath.factorial(d) ** 3 / mpmath.gamma(half + 1) ** 2 * reg


def main() -> None:
    values = {str(d): {repr(eps): mpmath.nstr(master_ref(d, eps), DIGITS)
                       for eps in EPS_GRID}
              for d in DEGREES}
    payload = {"mpmath": mpmath.__version__, "dps": DPS, "digits": DIGITS,
               "call": CALL, "values": values}
    OUT.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
