"""Per-layer microbenchmarks that every traced run makes, whatever its workload.

They time one layer in isolation on fixed or seeded inputs, so a change to
that layer shows here even when the traced workload leaves it idle.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction as F
from time import perf_counter

from subhess.scalars import Iv
from workloads import UNIT, sh

BITS = (100, 1000, 5000)
REPEATS = 5
NONMEMBER = {3: (1, -1, 1), 5: (1, -1, 1, 1, 1)}  # bruteforce must certify a floor
BF_CALLS = {3: 15, 5: 1}

# name, unit of every metric `run` returns
METRICS = (
    *((f"scalars.iv_{op}_us.b{b}", "us") for op in ("mul", "add") for b in BITS),
    ("synthesizer.class_pass_s", "s"),
    *((f"wavecone.bruteforce_s.n{n}", "s") for n in NONMEMBER),
)


def _operand(rng: random.Random, bits: int) -> Iv:
    def num():
        return rng.getrandbits(bits) | (1 << (bits - 1))

    den = num()
    lo = F(num(), den)
    return Iv(lo, lo + F(1, den))


def _per_call_us(fn, x, y, calls: int) -> float:
    per_call = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(calls):
            fn(x, y)
        per_call.append((perf_counter() - t0) / calls * 1e6)
    return statistics.median(per_call)


def run(seed: int, tiny: bool = False) -> tuple[dict[str, float], bool]:
    """Returns the probe metrics and whether every probe result was right.

    tiny=True times the class pass on a 4-level cascade instead of 20."""
    rng = random.Random(f"probes/{seed}")
    out: dict[str, float] = {}
    for b in BITS:
        x, y = _operand(rng, b), _operand(rng, b)
        calls = max(20, 400_000 // b)
        out[f"scalars.iv_mul_us.b{b}"] = _per_call_us(Iv.__mul__, x, y, calls)
        out[f"scalars.iv_add_us.b{b}"] = _per_call_us(Iv.__add__, x, y, calls)

    lam, _ = sh.constructions.doubling_cascade(F(13, 10), 4 if tiny else 20)
    pot = sh.synthesizer.realize_laminate(lam, UNIT, F(1, 16), dev_cap=F(1, 4))
    t0 = perf_counter()
    classes = sum(1 for _ in pot.cell_classes())
    out["synthesizer.class_pass_s"] = perf_counter() - t0

    ok = classes > 0
    for n, v in NONMEMBER.items():
        times = []
        for _ in range(BF_CALLS[n]):
            t0 = perf_counter()
            res = sh.wavecone.member_bruteforce(tuple(F(x) for x in v))
            times.append(perf_counter() - t0)
            ok &= not res.member and res.floor > 0
        out[f"wavecone.bruteforce_s.n{n}"] = statistics.median(times)
    return out, ok
