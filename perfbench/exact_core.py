"""The exact-core workload: one in-process batch through the library API.

`make_spec(seed)` (benchmark process) draws a batch of instances shaped
like acceptance criteria 4-8 and returns it as plain JSON; `run_batch`
(launch.py, timed) builds the library objects and calls each layer;
`check_batch` (launch.py, untimed) checks the results with oracles that
use only `fractions` and the spec, never the library's decision paths.
Every batch has the same shape, so its work does not depend on the seed
beyond the drawn values.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Batch shape.  Pigeonhole: (r, m) pairs on the scan path, each with n in
# [8, 64], so (mn)^r + 1 <= 192^3 + 1 stays under the default 2^23 scan
# budget; and (r, m, n) on the bucket path, reached through a scan budget
# below (mn)^r + 1 = 4097.  The bucket loop runs in Python for up to
# (mn)^r + 1 steps, so a space past the default budget would cost seconds
# to minutes depending on the seed.
SCAN_SHAPES = [(r, m) for r in (1, 2, 3) for m in (1, 2, 3) for _ in range(8)]
BUCKET_SHAPES = [(1, 1, 4096), (2, 1, 64), (3, 1, 16)]
BUCKET_SCAN_BUDGET = 1 << 10
INDEPENDENCE_SYSTEMS = 60
COMMENSURABILITY_INSTANCES = 8
EMBED_INSTANCES = 3
COMMENSURABILITY_POOL = ["1/2", "1/3", "2/3", "1/4", "3/4", "1/5", "2/5", "1/6", "5/6", "1/9"]
MINIMALITY_K_LIMIT = 20_000   # scan results up to this k get the brute-force minimality check
MINIMALITY_SAMPLE = 3


def _decimal(rng: random.Random) -> str:
    """A 55-digit decimal in (0.05, 0.95), declared irrational."""
    return f"{rng.uniform(0.05, 0.95):.6f}" + "".join(rng.choice("0123456789") for _ in range(49))


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def make_spec(seed: int) -> dict:
    rng = random.Random(seed)
    pigeonhole = []
    for r, m in SCAN_SHAPES:
        pigeonhole.append({"betas": [_decimal(rng) for _ in range(r)], "m": m,
                           "n": rng.randint(8, 64)})
    for r, m, n in BUCKET_SHAPES:
        pigeonhole.append({"betas": [_decimal(rng) for _ in range(r)], "m": m, "n": n,
                           "scan_budget": BUCKET_SCAN_BUDGET})

    independence = []
    for _ in range(INDEPENDENCE_SYSTEMS):
        r = rng.randint(1, 3)
        ell = rng.randint(1, 4)
        independence.append({
            "basis": [_decimal(rng) for _ in range(r)],
            "alphas": [
                {"q0": _frac(Fraction(rng.randint(-4, 4), rng.randint(1, 4))),
                 "coeffs": {f"b{j}": str(rng.randint(-4, 4)) for j in range(r)}}
                for _ in range(ell)
            ],
            "include_one": rng.random() < 0.5,
        })

    commensurability = []
    for _ in range(COMMENSURABILITY_INSTANCES):
        rhos = rng.sample(COMMENSURABILITY_POOL, 2)
        gammas = []
        for _ in range(2):  # products of integer powers: feasible by construction
            a, b = rng.randint(0, 3), rng.randint(1, 3)
            gammas.append(_frac(Fraction(rhos[0]) ** a * Fraction(rhos[1]) ** b))
        gammas.append(rng.choice(COMMENSURABILITY_POOL))
        commensurability.append({"rhos": rhos, "gammas": gammas, "feasible": [True, True, None]})

    ifs = []
    for ell, depth in ((2, 12), (2, 12), (3, 7)):
        ratio = Fraction(1, rng.randint(3, 5) if ell == 2 else rng.randint(4, 6))
        shifts = [Fraction(0), 1 - ratio] if ell == 2 else [Fraction(0), (1 - ratio) / 2, 1 - ratio]
        ifs.append({"maps": [[_frac(ratio), _frac(s)] for s in shifts],
                    "ssc_depth": 6, "sample_depth": depth})

    # M(F) + b = phi_w(F) inside E for a word w of E: F (ratio 1/9, digits 0
    # and 8) lies in the middle-thirds set E, and phi_w maps E into itself.
    embed = []
    for _ in range(EMBED_INSTANCES):
        word = [rng.randint(0, 1) for _ in range(rng.randint(0, 2))]
        m = Fraction(1, 3 ** len(word))
        b = sum((Fraction(2 * w, 3 ** (i + 1)) for i, w in enumerate(word)), Fraction(0))
        embed.append({"m": _frac(m), "b": _frac(b), "n_max": 40, "depth": 6})

    return {"seed": seed, "pigeonhole": pigeonhole, "independence": independence,
            "commensurability": commensurability, "ifs": ifs, "embed": embed}


def instance_count(spec: dict) -> int:
    return sum(len(spec[key]) for key in
               ("pigeonhole", "independence", "commensurability", "ifs", "embed"))


def run_batch(spec: dict) -> dict:
    """Timed part: every library call of the batch, in a fixed order."""
    from multirot import boxdim as bx
    from multirot.diophantine import DEFAULT_SCAN_BUDGET, pigeonhole_approx
    from multirot.embedtrace import build_instance, induced_step_system, sn_sequence
    from multirot.exact.commensurability import commensurability_witness
    from multirot.exact.independence import (
        q_independent_mod1,
        qplus_independent_mod1,
        rank_span,
    )
    from multirot.exact.symbolic import BasisEntry, BasisTable, SymbolicReal
    from multirot.ifs import SimilarIFS, attractor_sample, ssc_check
    from multirot.orbit import build_step_system

    out: dict = {"pigeonhole": [], "independence": [], "commensurability": [],
                 "ifs": [], "embed": []}
    for inst in spec["pigeonhole"]:
        betas = [Fraction(b) for b in inst["betas"]]
        budget = inst.get("scan_budget", DEFAULT_SCAN_BUDGET)
        out["pigeonhole"].append(pigeonhole_approx(betas, inst["m"], inst["n"],
                                                   scan_budget=budget))

    for inst in spec["independence"]:
        table = BasisTable(BasisEntry(f"b{j}", v, True) for j, v in enumerate(inst["basis"]))
        alphas = [SymbolicReal(table, Fraction(a["q0"]),
                               {k: Fraction(c) for k, c in a["coeffs"].items()})
                  for a in inst["alphas"]]
        steps = build_step_system(alphas)
        out["independence"].append((qplus_independent_mod1(steps), q_independent_mod1(steps),
                                    rank_span(alphas, inst["include_one"])))

    for inst in spec["commensurability"]:
        out["commensurability"].append(commensurability_witness(
            [Fraction(x) for x in inst["rhos"]], [Fraction(x) for x in inst["gammas"]]))

    for inst in spec["ifs"]:
        system = SimilarIFS.line_maps([(Fraction(r), Fraction(s)) for r, s in inst["maps"]])
        cert = ssc_check(system, inst["ssc_depth"])
        sample = attractor_sample(system, inst["sample_depth"])
        points = bx.CirclePoints.from_unit_reals([p[0] for p in sample], rescale=True)
        profile = bx.covering_profile(points, 2, 9)
        out["ifs"].append((cert, len(sample), profile))

    for inst in spec["embed"]:
        e_ifs = SimilarIFS.line_maps([(Fraction(1, 3), 0), (Fraction(1, 3), Fraction(2, 3))])
        f_ifs = SimilarIFS.line_maps([(Fraction(1, 9), 0), (Fraction(1, 9), Fraction(8, 9))])
        built = build_instance(e_ifs, f_ifs, Fraction(inst["m"]), Fraction(inst["b"]),
                               coding_len=inst["n_max"])
        trace = sn_sequence(built, inst["n_max"], inst["depth"])
        steps = induced_step_system([mp.ratio for mp in e_ifs.maps], built.gamma1)
        out["embed"].append((trace, steps))
    return out


# -- oracles ---------------------------------------------------------------------

def _dist_to_int(x: Fraction) -> Fraction:
    frac = x - (x.numerator // x.denominator)
    return min(frac, 1 - frac)


def _first_k(betas: list[Fraction], mn: int, k_stop: int) -> int | None:
    """Smallest k < k_stop with ||k beta_j|| <= 1/(mn) for all j, in integers."""
    nums = [(b.numerator, b.denominator) for b in betas]
    for k in range(1, k_stop):
        for p, q in nums:
            rem = (k * p) % q
            if mn * min(rem, q - rem) > q:
                break
        else:
            return k
    return None


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _exponents(x: Fraction) -> dict[int, int]:
    vec = dict(_factor(x.numerator))
    for p, e in _factor(x.denominator).items():
        vec[p] = vec.get(p, 0) - e
    return vec


def check_batch(spec: dict, out: dict) -> dict[str, str]:
    """Oracle failures of one batch by instance, e.g. {"pigeonhole 3": why}."""
    failures: dict[str, str] = {}
    rng = random.Random(spec["seed"] + 1)

    scan_ok = []
    for i, (inst, res) in enumerate(zip(spec["pigeonhole"], out["pigeonhole"])):
        betas = [Fraction(b) for b in inst["betas"]]
        mn = inst["m"] * inst["n"]
        # the bucket path is exact up to the documented evaluation slack
        slack = Fraction(0) if res.path == "scan" else Fraction(1, 1 << (res.bits - 4))
        achieved = [_dist_to_int(res.k * b) for b in betas]
        if not 1 <= res.k <= mn ** len(betas) + 1:
            failures[f"pigeonhole {i}"] = f"k={res.k} outside [1, (mn)^r + 1]"
        if any(a > Fraction(1, mn) + slack for a in achieved) or tuple(achieved) != res.achieved:
            failures[f"pigeonhole {i}"] = "achieved distances exceed 1/(mn)"
        if res.path == "scan" and res.k <= MINIMALITY_K_LIMIT:
            scan_ok.append((i, betas, mn, res.k))
    for i, betas, mn, k in rng.sample(scan_ok, min(MINIMALITY_SAMPLE, len(scan_ok))):
        earlier = _first_k(betas, mn, k)
        if earlier is not None:
            failures[f"pigeonhole {i}"] = f"k={k} is not minimal ({earlier} works)"

    for i, (inst, verdicts) in enumerate(zip(spec["independence"], out["independence"])):
        alphas = inst["alphas"]
        labels = sorted({k for a in alphas for k in a["coeffs"]})
        for kind, verdict in zip(("qplus", "q"), verdicts[:2]):
            if verdict.independent:
                continue
            t = verdict.witness
            integral = (
                len(t) == len(alphas) and any(t)
                and all(sum(ti * Fraction(a["coeffs"].get(lbl, "0")) for ti, a in zip(t, alphas)) == 0
                        for lbl in labels)
                and sum(ti * Fraction(a["q0"]) for ti, a in zip(t, alphas)).denominator == 1
            )
            if not integral or (kind == "qplus" and min(t) < 0):
                failures[f"independence {i}"] = f"{kind} witness is not an exact integer combination"

    for i, (inst, outcome) in enumerate(zip(spec["commensurability"], out["commensurability"])):
        rho_vecs = [_exponents(Fraction(x)) for x in inst["rhos"]]
        for j, (gamma, column) in enumerate(zip(inst["gammas"], outcome.columns)):
            if inst["feasible"][j] and not column.feasible:
                failures[f"commensurability {i}"] = f"gamma {j} ({gamma}) is feasible but reported infeasible"
            if not column.feasible:
                continue
            target = _exponents(Fraction(gamma))
            primes = set(target).union(*rho_vecs)
            if any(t < 0 for t in column.exponents) or any(
                sum(t * v.get(p, 0) for t, v in zip(column.exponents, rho_vecs)) != target.get(p, 0)
                for p in primes
            ):
                failures[f"commensurability {i}"] = f"witness {j} does not give gamma {gamma}"

    for i, (inst, (cert, points, _)) in enumerate(zip(spec["ifs"], out["ifs"])):
        if not cert.certified:
            failures[f"ifs {i}"] = "separated IFS not certified"
        if points != len(inst["maps"]) ** inst["sample_depth"]:
            failures[f"ifs {i}"] = f"sample has {points} points"

    for i, (trace, _) in enumerate(out["embed"]):
        if not trace.all_within_bounds():
            failures[f"embed {i}"] = "trace ratio outside its bounds"
    return failures
