"""Seeded inputs for the four workloads and the references their outputs
are checked against.

Nothing here imports langkit.  The references come from the statements the
library encodes (theorem verdicts, closed-form counts, Weyl-group degrees)
and from the golden reports under tests/golden/, never from a run of the
code under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

LIBRARY = (
    "thmA", "thmB", "thmC", "thmD", "thmE", "thmF",
    "appendix_block", "appendix_mixed", "appendix_pair",
)
TEMPLATES = LIBRARY[:6]
APPENDIX_STATEMENT = "holomorphic on Re(s) >= 1/2; not identically zero on Re(s) = 1/2"
TEXT_SHARE = 4  # one op in four asks for --format text

# Per template: the pipeline verdict family, the ambient of the pole
# decision (None: `pole` rejects the scenario), the accepted induction datum
# and the archimedean sign of one embedding copy (None: transport ratio).
TEMPLATE_FACTS = {
    "thmA": {"check": "nonvanishing", "ambient": "Sp8", "block": "pi", "sign": -1},
    "thmB": {"check": "nonvanishing", "ambient": "Sp10", "block": "pi", "sign": -1},
    "thmC": {"check": "nonvanishing", "ambient": "SO12^1", "block": "pi", "sign": -1},
    "thmD": {"check": "sign", "ambient": None, "block": "pi", "sign": -1},
    "thmE": {"check": "nonvanishing", "ambient": "U5", "block": "piu", "sign": None},
    "thmF": {"check": "ratio", "ambient": "U5", "block": "piu", "sign": None},
}


def sign_verdict(sign: int) -> str:
    return f"sign {sign}: order parity {'odd' if sign < 0 else 'even'} invariant"


def template_verdict(template: str, command: str, k: int) -> str:
    """Verdict of `command` on `template` with its embeddings copied k times.

    The archimedean sign is a product over real embeddings, so k copies give
    base_sign**k; the transport ratio, the pole and the classification do
    not depend on the embedding set.
    """
    facts = TEMPLATE_FACTS[template]
    if command == "pole":
        return "pole"
    if command == "classify":
        return "1 induction datum accepted"
    if command == "root-number" or facts["check"] in ("sign", "ratio"):
        if facts["sign"] is None:
            return "sign invariant: ratio 1"
        return sign_verdict(facts["sign"] ** k)
    return "nonvanishing invariant: YES"


def appendix_counts(t: int, u: int) -> dict:
    """Closed forms for t discrete blocks against u inverse pairs."""
    tri = t * (t - 1) // 2
    ratios = t + 2 * t * u + tri + t
    return {
        "holomorphic": ratios - t * u,  # all but the t·u minus-twist ratios
        "word_lengths": {"shuffle": t * u, "flip": t * u + tri + t, "full": tri + 2 * t * u + t},
    }


# ---------------------------------------------------------------------------
# scenario generation


def _replicate(template: dict, k: int, rng: random.Random, name: str) -> dict:
    """Copy every embedding of the template k times under fresh labels."""
    scn = json.loads(json.dumps(template))
    scn["name"] = name
    emb = scn["embeddings"]
    copies = {}  # new label -> original label
    real = list(emb.get("real", []))
    pairs = [list(p) for p in emb.get("complex_pairs", [])]
    for j in range(2, k + 1):
        tag = f"{rng.choice('uvwxyz')}{j}"
        for lab in emb.get("real", []):
            copies[f"{lab}_{tag}"] = lab
            real.append(f"{lab}_{tag}")
        for a, b in emb.get("complex_pairs", []):
            copies[f"{a}_{tag}"], copies[f"{b}_{tag}"] = a, b
            pairs.append([f"{a}_{tag}", f"{b}_{tag}"])
    scn["embeddings"] = {"real": real, "complex_pairs": pairs}
    for rec in scn["records"]:
        if "infchar" in rec:
            for new, old in copies.items():
                rec["infchar"][new] = list(rec["infchar"][old])
    emb_map = scn.get("aut_spec", {}).get("embedding_map")
    if emb_map is not None:
        for new in copies:
            emb_map[new] = new
    return scn


def _frac_inside(rng: random.Random, lo_open: Fraction, hi_open: Fraction) -> str:
    while True:
        d = rng.choice((3, 4, 5, 6, 8, 10, 12))
        n = rng.randint(int(lo_open * d) - 1, int(hi_open * d) + 1)
        x = Fraction(n, d)
        if lo_open < x < hi_open:
            return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _appendix(t: int, u: int, rng: random.Random, name: str) -> dict:
    half = Fraction(1, 2)
    segments = [
        {"label": f"p{i + 1}", "m": rng.randint(1, 2), "h": rng.randint(1, 4),
         "a": _frac_inside(rng, -half, half)}
        for i in range(t)
    ]
    pairs = [{"label": f"r{j + 1}", "b": _frac_inside(rng, Fraction(0), half)} for j in range(u)]
    return {
        "schema": "1",
        "name": name,
        "theorem_target": "appendix",
        "quasi_tempered": {
            "pi": {"segments": segments},
            "rho": {"selfdual": ["r0"], "pairs": pairs},
            "aux": rng.choice(("wedge2", "sym2")),
        },
    }


def library_cases() -> list:
    """(command, scenario, expectation) for every library pair that exits 0."""
    cases = []
    for name in TEMPLATES:
        for cmd in ("check-scenario", "pole", "classify", "root-number"):
            if cmd == "pole" and TEMPLATE_FACTS[name]["ambient"] is None:
                continue
            cases.append((cmd, name, {"kind": "template", "template": name, "k": 1, "golden": name}))
    for name in LIBRARY[6:]:
        for cmd in ("check-scenario", "normalize"):
            cases.append((cmd, name, {"kind": "appendix", "golden": name}))
    return cases


def _with_formats(pairs: list, rng: random.Random) -> list:
    """Give exactly one pair in TEXT_SHARE the text format, chosen by seed."""
    order = list(range(len(pairs)))
    rng.shuffle(order)
    text = set(order[: len(pairs) // TEXT_SHARE])
    return [(cmd, scn, "text" if i in text else "json", exp) for i, (cmd, scn, exp) in enumerate(pairs)]


def cli_ops(seed: int) -> list:
    """The valid library (command, scenario, format) ops, in seeded order."""
    rng = random.Random(seed)
    ops = _with_formats(library_cases(), rng)
    rng.shuffle(ops)
    return ops


def pipeline_inputs(seed: int, root: Path, workdir: Path) -> list:
    """Write the scaled variants and return every valid op on them and on
    the library, each as (command, scenario path or name, format, expectation).

    Every template appears with k = 1..8 embedding copies.  Appendix
    variants pair each t in 1..12 with a seeded u and with 12 - u, so the
    total (t+u)^2 work is nearly the same for every seed.
    """
    rng = random.Random(seed)
    lib_dir = root / "src" / "langkit" / "scenarios"
    pairs = list(library_cases())
    for name in TEMPLATES:
        template = json.loads((lib_dir / f"{name}.json").read_text(encoding="utf-8"))
        for k in range(1, 9):
            vname = f"{name}_k{k}"
            path = workdir / f"{vname}.json"
            path.write_text(json.dumps(_replicate(template, k, rng, vname), indent=1), encoding="utf-8")
            for cmd in ("check-scenario", "pole", "classify", "root-number"):
                if cmd == "pole" and TEMPLATE_FACTS[name]["ambient"] is None:
                    continue
                pairs.append((cmd, str(path), {"kind": "template", "template": name, "k": k}))
    for t in range(1, 13):
        u0 = rng.randint(0, 12)
        for u in (u0, 12 - u0):
            vname = f"appendix_t{t}_u{u}_{len(pairs)}"
            path = workdir / f"{vname}.json"
            path.write_text(json.dumps(_appendix(t, u, rng, vname), indent=1), encoding="utf-8")
            for cmd in ("check-scenario", "normalize"):
                pairs.append((cmd, str(path), {"kind": "appendix", "t": t, "u": u}))
    return _with_formats(pairs, rng)


def stream(ops: list, seed: int, length: int) -> list:
    """`length` ops: whole seeded permutations of `ops`, one after another,
    so every op appears equally often."""
    rng = random.Random(seed ^ 0x5EED)
    out = []
    while len(out) < length:
        cycle = list(ops)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:length]


def load_goldens(root: Path) -> dict:
    gold = root / "tests" / "golden"
    return {name: (gold / f"{name}.json").read_text(encoding="utf-8") for name in LIBRARY}


# ---------------------------------------------------------------------------
# checking one report


def _appendix_t_u(exp: dict, root: Path, scenario: str) -> tuple:
    if "t" in exp:
        return exp["t"], exp["u"]
    scn = json.loads((root / "src" / "langkit" / "scenarios" / f"{scenario}.json").read_text())
    qt = scn["quasi_tempered"]
    return len(qt["pi"]["segments"]), len(qt["rho"].get("pairs", []))


def check_report(cmd: str, scenario: str, fmt: str, exp: dict, text: str, goldens: dict,
                 root: Path) -> str | None:
    """None when `text` (the rendered report) matches the reference, else why not."""
    try:
        return _check_report(cmd, scenario, fmt, exp, text, goldens, root)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed report: {exc!r}"


def _check_report(cmd, scenario, fmt, exp, text, goldens, root):
    if fmt == "json" and cmd == "check-scenario" and exp.get("golden"):
        return None if text == goldens[exp["golden"]] else "differs from golden"
    if exp["kind"] == "appendix":
        t, u = _appendix_t_u(exp, root, scenario)
        want = appendix_counts(t, u)
        if fmt == "text":
            if f"statement: {APPENDIX_STATEMENT}\n" not in text:
                return "statement line"
            if f"part normalization-ratio: {want['holomorphic']} ratio factors" not in text:
                return "ratio count"
            return None
        rep = json.loads(text)
        if rep.get("statement") != APPENDIX_STATEMENT:
            return "statement"
        if rep.get("word_lengths") != want["word_lengths"]:
            return f"word lengths {rep.get('word_lengths')} != {want['word_lengths']}"
        claim = rep["certificate"][0]["claim"]
        if not claim.startswith(f"{want['holomorphic']} ratio factors"):
            return f"ratio count: {claim[:40]}"
        return None
    verdict = template_verdict(exp["template"], cmd, exp["k"])
    if fmt == "text":
        return None if f"\nverdict: {verdict}\n" in text else f"verdict line, want {verdict!r}"
    rep = json.loads(text)
    if rep.get("verdict") != verdict:
        return f"verdict {rep.get('verdict')!r} != {verdict!r}"
    facts = TEMPLATE_FACTS[exp["template"]]
    if cmd == "pole" and rep.get("ambient") != facts["ambient"]:
        return f"ambient {rep.get('ambient')!r}"
    if cmd == "classify" and rep.get("accepted") != [{"label": facts["block"], "shift": "1/2"}]:
        return f"accepted {rep.get('accepted')!r}"
    return None


def check_selftest(fmt: str, text: str) -> str | None:
    try:
        return _check_selftest(fmt, text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed report: {exc!r}"


def _check_selftest(fmt, text):
    verdict = "all oracle suites pass"
    if fmt == "text":
        lines = text.splitlines()
        if f"verdict: {verdict}" not in lines:
            return "verdict line"
        passes = [ln for ln in lines if ln.startswith("  PASS ")]
    else:
        rep = json.loads(text)
        if rep.get("verdict") != verdict:
            return f"verdict {rep.get('verdict')!r}"
        passes = [ln for ln in rep.get("checks", []) if ln.startswith("PASS ")]
    return None if len(passes) == 9 else f"{len(passes)} PASS lines"


# ---------------------------------------------------------------------------
# the Kostant ladder

# (name, family, rank, GL blocks, core rank)
LADDER = (
    ("C4_2_2", "C", 4, (2,), 2),
    ("C5_2_3", "C", 5, (2,), 3),
    ("C6_3_3", "C", 6, (3,), 3),
    ("B5_2_3", "B", 5, (2,), 3),
    ("D5_2_3", "D", 5, (2,), 3),
    ("A6_3_4", "A", 6, (3, 4), 0),
)


def weyl_degrees(family: str, rank: int) -> list:
    """Degrees of the basic invariants of the Weyl group."""
    if rank == 0:
        return []
    if family == "A":
        return list(range(2, rank + 2))
    if family in "BC":
        return [2 * i for i in range(1, rank + 1)]
    if rank == 1:  # D1 is trivial
        return []
    return [2 * i for i in range(1, rank)] + [rank]


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_div(p: list, q: list) -> list:
    """Exact division of integer polynomials (q monic in its top term)."""
    p = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = p[i + len(q) - 1] // q[-1]
        out[i] = c
        for j, b in enumerate(q):
            p[i + j] -= c * b
    if any(p):
        raise ArithmeticError("Poincare quotient is not a polynomial")
    return out


def length_distribution(family: str, rank: int, blocks: tuple, core: int) -> list:
    """Coefficients of prod [d_i]_t / prod [d_j^M]_t: the number of minimal
    coset representatives of each length."""
    num = [1]
    for d in weyl_degrees(family, rank):
        num = _poly_mul(num, [1] * d)
    den = [1]
    levi = [("A", b - 1) for b in blocks] + ([(family, core)] if core else [])
    for fam, r in levi:
        for d in weyl_degrees(fam, r):
            den = _poly_mul(den, [1] * d)
    return _poly_div(num, den)


def rho_coords(family: str, rank: int) -> list:
    if family == "A":
        return [Fraction(rank - 2 * i, 2) for i in range(rank + 1)]
    if family == "B":
        return [Fraction(2 * (rank - i) - 1, 2) for i in range(rank)]
    if family == "C":
        return [Fraction(rank - i) for i in range(rank)]
    return [Fraction(rank - 1 - i) for i in range(rank)]


def dominant_weight(family: str, rank: int, rng: random.Random) -> list:
    """A small dominant integral weight: non-increasing entries in 0..3."""
    dim = rank + 1 if family == "A" else rank
    return sorted((rng.randint(0, 3) for _ in range(dim)), reverse=True)


def ladder_inputs(seed: int) -> list:
    rng = random.Random(seed)
    return [(case, dominant_weight(case[1], case[2], rng)) for case in LADDER]


def _levi_dominant(coords: list, family: str, blocks: tuple, core: int) -> bool:
    off = 0
    for b in blocks:
        if any(coords[i] < coords[i + 1] for i in range(off, off + b - 1)):
            return False
        off += b
    if core:
        seg = coords[off:]
        if any(seg[i] < seg[i + 1] for i in range(len(seg) - 1)):
            return False
        if family in "BC" and seg[-1] < 0:
            return False
        if family == "D" and core >= 2 and seg[-2] + seg[-1] < 0:
            return False
    return True


def check_kostant(case: tuple, lam: list, reps: list, weights: list) -> str | None:
    """Count, length distribution and Levi-dominance of the shifted weights.

    `reps` is [(window tuple, length)], `weights` is [(degree, coords)].
    """
    _, family, rank, blocks, core = case
    dist = length_distribution(family, rank, blocks, core)
    if len(reps) != sum(dist):
        return f"{len(reps)} representatives, want {sum(dist)}"
    got = [0] * len(dist)
    for _, ell in reps:
        if ell >= len(dist):
            return f"length {ell} beyond the Poincare polynomial"
        got[ell] += 1
    if got != dist:
        return f"length distribution {got} != {dist}"
    if sorted(d for d, _ in weights) != sorted(ell for _, ell in reps):
        return "weight degrees differ from representative lengths"
    rho = rho_coords(family, rank)
    target = sorted(abs(x + r) for x, r in zip(lam, rho)) if family != "A" else \
        sorted(x + r for x, r in zip(lam, rho))
    seen = set()
    for _, coords in weights:
        shifted = [c + r for c, r in zip(coords, rho)]
        key = tuple(shifted)
        if key in seen:
            return "repeated shifted weight"
        seen.add(key)
        mags = sorted(abs(x) for x in shifted) if family != "A" else sorted(shifted)
        if mags != target:
            return "shifted weight is not in the Weyl orbit of lambda+rho"
        if not _levi_dominant(list(coords), family, blocks, core):
            return "shifted weight is not Levi-dominant"
    return None
