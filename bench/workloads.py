"""The three seeded workloads: request decks and their oracle checks.

A workload produces one *pass* at a time: a fixed composition of requests
whose documents and order come from the seeded generator.  A timed run
repeats passes, so every run sees the same mix of request kinds however the
seed falls.  Each request is checked after the timed window by ``check``
(and, for ``classify-groups``, by ``check_batch`` across requests); both use
only :mod:`oracles`, never the library.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles


@dataclass
class Request:
    label: str
    argv: list[str]
    stdin: str | None = None
    expect: dict = field(default_factory=dict)


def _dump(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _parse(out: str):
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


def _angle_str(f: Fraction) -> str:
    return str(f % 1)


# --------------------------------------------------------------------------
# verify-suites

SUITES = ("torsor", "functor-laws", "ses", "wreath-iso", "division-rules", "equivalence")
SUITE_GROUPS = {"z1": 1, "z2": 2, "z3": 3, "z4": 4, "z2xz2": 4}
CHECKS_PER_FIXTURE = {
    "torsor": 4,
    "functor-laws": 2,
    "ses": 4,
    "wreath-iso": 6,
    "division-rules": 4,
    "equivalence": 3,
}
FUNCTOR_PAIR_BOUND = 50  # functor-laws skips the pair check above this many morphisms


def _suite_counters(suite: str, order: int, n: int) -> dict[str, int]:
    """Counters a suite reports for one fixture; m = |G|^n n! frames/morphisms."""
    m = order**n * math.factorial(n)
    return {
        "torsor": {"frames": m, "wreath elements": m},
        "functor-laws": {"composable pairs": m * m} if m <= FUNCTOR_PAIR_BOUND else {},
        "ses": {"automorphisms": m},
        "wreath-iso": {"homomorphism pairs": m * m},
        "division-rules": {"fixtures": 1},
        "equivalence": {"morphisms": m},
    }[suite]


class VerifySuites:
    name = "verify-suites"

    def __init__(self, seed: int):
        self.seed = seed

    def _request(self, suite: str, group: str | None = None, n: int | None = None) -> Request:
        argv = ["verify", suite]
        if group is None:
            expect = {"suite": suite, "total": 6, "counters": {"conjugators": 30}}
            return Request("verify appendix-b", argv + ["--seed", str(self.seed)], expect=expect)
        argv += ["--group", group, "--orbits", str(n), "--seed", str(self.seed)]
        expect = {
            "suite": suite,
            "total": CHECKS_PER_FIXTURE[suite],
            "counters": _suite_counters(suite, SUITE_GROUPS[group], n),
        }
        return Request(f"verify {suite} {group} n={n}", argv, expect=expect)

    def warmup(self) -> Request:
        return self._request("appendix-b")

    def deck(self, rng: random.Random) -> list[Request]:
        reqs = [
            self._request(s, g, n) for s in SUITES for g in SUITE_GROUPS for n in (1, 2, 3)
        ]
        reqs.append(self._request("appendix-b"))
        rng.shuffle(reqs)
        return reqs

    def check(self, req: Request, code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit {code}: {err.strip()[:160]}"
        p = _parse(out)
        if p is None:
            return "stdout is not a JSON object"
        d, e = p.get("data", {}), req.expect
        if p.get("status") != "ok" or d.get("suite") != e["suite"]:
            return f"status {p.get('status')!r}, suite {d.get('suite')!r}"
        if d.get("seed") != self.seed:
            return f"seed echoed as {d.get('seed')!r}"
        if d.get("passed") != e["total"] or d.get("total") != e["total"] or d.get("failures"):
            return f"checks {d.get('passed')}/{d.get('total')}, expected {e['total']}/{e['total']}"
        if d.get("counters") != e["counters"]:
            return f"counters {d.get('counters')} != {e['counters']}"
        return None

    def check_batch(self, results) -> dict[int, str]:
        return {}


# --------------------------------------------------------------------------
# classify-groups


def _cyclic_doc(n):
    return {"kind": "cyclic", "n": n}


def _symmetric_doc(n):
    return {"kind": "symmetric", "n": n}


def _product_doc(*factors):
    return {"kind": "product", "factors": list(factors)}


def _named_products():
    """(key, document, oracle table) of the named product groups."""
    c2, c3, c4 = oracles.cyclic(2), oracles.cyclic(3), oracles.cyclic(4)
    s3, s4 = oracles.symmetric(3), oracles.symmetric(4)
    return [
        ("Z2^3", _product_doc(_cyclic_doc(2), _cyclic_doc(2), _cyclic_doc(2)),
         oracles.product(oracles.product(c2, c2), c2)),
        ("Z3^2", _product_doc(_cyclic_doc(3), _cyclic_doc(3)), oracles.product(c3, c3)),
        ("Z2xZ4", _product_doc(_cyclic_doc(2), _cyclic_doc(4)), oracles.product(c2, c4)),
        ("S3xZ3", _product_doc(_symmetric_doc(3), _cyclic_doc(3)), oracles.product(s3, c3)),
        ("S4xZ2", _product_doc(_symmetric_doc(4), _cyclic_doc(2)), oracles.product(s4, c2)),
    ]


CYCLIC_PER_PASS = 8
RELABELLINGS_PER_GROUP = 3
# S5 gets one: about one random relabelling in twenty gives the greedy search four
# generators and costs 30x the others, which would swing a run by a quarter.
RELABELLINGS_S5 = 1
# Z2^4 has |Aut| = |GL(4,2)| = 20160, past the 5040-element table bound: exit 2.
Z2_4_DOC = _product_doc(*[_cyclic_doc(2)] * 4)


class ClassifyGroups:
    name = "classify-groups"

    def __init__(self, seed: int):
        self.seed = seed
        self.symmetric = {n: oracles.symmetric(n) for n in (3, 4, 5)}
        self.products = _named_products()
        self.relabel_bases = {
            "S4": self.symmetric[4],
            "S5": self.symmetric[5],
            "A5": oracles.alternating5(),
            "Q8": oracles.quaternion(),
            "D5": oracles.dihedral(5),
            "D6": oracles.dihedral(6),
            "Z2^3": oracles.product(oracles.product(oracles.cyclic(2), oracles.cyclic(2)), oracles.cyclic(2)),
        }

    @staticmethod
    def _request(label: str, key: str, doc, table) -> Request:
        return Request(
            f"classify-circle {label}",
            ["classify-circle", "--group", "-"],
            stdin=_dump(doc),
            expect={"key": key, "table": table},
        )

    def warmup(self) -> Request:
        return self._request("S3", "S3", _symmetric_doc(3), self.symmetric[3])

    def deck(self, rng: random.Random) -> list[Request]:
        reqs = []
        for n in rng.sample(range(2, 61), CYCLIC_PER_PASS):
            reqs.append(self._request(f"Z{n}", f"Z{n}", _cyclic_doc(n), oracles.cyclic(n)))
        for n, table in self.symmetric.items():
            reqs.append(self._request(f"S{n}", f"S{n}", _symmetric_doc(n), table))
        for key, doc, table in self.products:
            reqs.append(self._request(key, key, doc, table))
        for key, base in self.relabel_bases.items():
            for _ in range(RELABELLINGS_S5 if key == "S5" else RELABELLINGS_PER_GROUP):
                perm = list(range(len(base)))
                rng.shuffle(perm)
                table = oracles.relabel(base, perm)
                reqs.append(self._request(f"{key} table", key, {"kind": "table", "mul": table}, table))
        reqs.append(Request("classify-circle Z2^4", ["classify-circle", "--group", "-"],
                            stdin=_dump(Z2_4_DOC), expect={"key": "Z2^4", "refused": True}))
        rng.shuffle(reqs)
        return reqs

    def check(self, req: Request, code: int, out: str, err: str) -> str | None:
        e = req.expect
        if e.get("refused"):
            if code != 2 or "table bound" not in err:
                return f"exit {code}, expected 2 with a table-bound message: {err.strip()[:120]!r}"
            return None
        if code != 0:
            return f"exit {code}: {err.strip()[:160]}"
        p = _parse(out)
        if p is None:
            return "stdout is not a JSON object"
        d = p.get("data", {})
        table = e["table"]
        aut_order, class_count = oracles.aut_literature(e["key"])
        if d.get("order") != len(table):
            return f"order {d.get('order')} != {len(table)}"
        if d.get("aut_order") != aut_order:
            return f"|Aut| {d.get('aut_order')} != {aut_order}"
        rows = d.get("classes", [])
        if len(rows) != class_count:
            return f"{len(rows)} classes != {class_count}"
        if [r["class"] for r in rows] != list(range(class_count)):
            return "class indices are not 0..k-1"
        if sum(r["size"] for r in rows) != aut_order:
            return "class sizes do not sum to |Aut|"
        for r in rows:
            rep = r["representative"]
            if not oracles.is_automorphism(table, rep):
                return f"class {r['class']} representative is not an automorphism"
            if r["components"] != oracles.cycle_count(rep):
                return f"class {r['class']} components {r['components']} != cycle count"
        return None

    def check_batch(self, results) -> dict[int, str]:
        """Relabelling must not change the multiset of (size, components) rows."""
        first: dict[str, list] = {}
        bad = {}
        for i, (req, code, out, _err) in enumerate(results):
            if req.expect.get("refused") or code != 0:
                continue
            p = _parse(out)
            if p is None:
                continue
            rows = sorted((r["size"], r["components"]) for r in p["data"].get("classes", []))
            key = req.expect["key"]
            if first.setdefault(key, rows) != rows:
                bad[i] = f"(size, components) rows {rows} differ from {first[key]} for {key}"
        return bad


# --------------------------------------------------------------------------
# bundle-queries

FIBER_GROUPS = {
    "Z2": ({"kind": "cyclic", "n": 2}, lambda: oracles.cyclic(2)),
    "Z3": ({"kind": "cyclic", "n": 3}, lambda: oracles.cyclic(3)),
    "Z2xZ2": (_product_doc(_cyclic_doc(2), _cyclic_doc(2)),
              lambda: oracles.product(oracles.cyclic(2), oracles.cyclic(2))),
    "S3": (_symmetric_doc(3), lambda: oracles.symmetric(3)),
}
# Sizes are fixed per pass so that every pass costs about the same; the seed
# draws the contents (group elements, permutations, angles, words) and the order.
# frame-bundle on winding bundles: (group, k); frames |G|^k k!, components (k-1)! |G|^k
WINDING_CASES = [("Z2", 2), ("Z2", 3), ("Z2", 4), ("Z3", 3), ("Z4", 3), ("Z2xZ2", 3)]
# flat bundles with standard semi-torsor fibers: (group, sheets n, loops); holonomy word lengths
GSPACE_CASES = [("Z2", 6, 3), ("Z3", 5, 2), ("Z2xZ2", 4, 3), ("S3", 3, 1), ("Z2", 2, 2), ("S3", 6, 3)]
FINITE_WORDS = [500, 1000, 1500, 2000, 2500, 3000]
# sn-action coverings: (sheets, loops) with trivial clutching (exit 0) and with a moved sheet (exit 1)
SN_TRIVIAL = [(3, 1), (5, 2), (7, 3)]
SN_MOVED = [(4, 3), (6, 1), (8, 2)]
# circle bundles: (sheets k, loops, largest denominator, word letters or path samples)
U1_HOLONOMY = [(2, 1, 12, 1000), (5, 2, 12, 6000), (3, 3, 10**6, 2000), (6, 4, 10**6, 4000)]
U1_TRANSPORT = [(8, 1, 12, 5000), (4, 2, 12, 3000), (2, 3, 10**6, 6000), (8, 4, 10**6, 10_000)]
PUSHFORWARD = [(2, 1, 12), (8, 4, 12), (5, 2, 10**6), (7, 3, 10**6)]
DIVISION = [(2, 1, 12, 20_000), (4, 2, 12, 8000), (3, 1, 10**6, 12_000), (8, 3, 10**6, 20_000)]


def _word(rng: random.Random, loops: int, length: int) -> list[int]:
    letters = [i for i in range(1, loops + 1)] + [-i for i in range(1, loops + 1)]
    return [rng.choice(letters) for _ in range(length)]


def _word_arg(word: list[int]) -> str:
    return "--word=" + ",".join(map(str, word))


def _rand_angle(rng: random.Random, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randrange(den), den)


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


class BundleQueries:
    name = "bundle-queries"

    def __init__(self, seed: int):
        self.seed = seed
        self.tables = {k: make() for k, (_doc, make) in FIBER_GROUPS.items()}
        self.tables["Z4"] = oracles.cyclic(4)

    def _gspace_bundle(self, rng: random.Random, gname: str, n: int, loops: int):
        mul = self.tables[gname]
        clutching, tables = [], []
        for _ in range(loops):
            g = [rng.randrange(len(mul)) for _ in range(n)]
            sigma = _perm(rng, n)
            clutching.append({"wreath": {"g": g, "perm": sigma}})
            tables.append(oracles.wreath_table(mul, n, g, sigma))
        doc = {
            "kind": "flat",
            "mode": "gspace",
            "fiber": {"kind": "standard_semitorsor", "group": FIBER_GROUPS[gname][0], "n": n},
            "loops": loops,
            "clutching": clutching,
        }
        sigmas = [c["wreath"]["perm"] for c in clutching]
        return _dump(doc), {"order": len(mul), "n": n, "tables": tables, "sigmas": sigmas}

    def _covering(self, rng: random.Random, k: int, loops: int, moved: bool) -> Request:
        perms = [_perm(rng, k) if moved else list(range(k)) for _ in range(loops)]
        if moved and all(p == list(range(k)) for p in perms):
            perms[-1] = [(x + 1) % k for x in range(k)]
        doc = {
            "kind": "flat",
            "mode": "gspace",
            "fiber": {"kind": "standard_semitorsor", "group": _cyclic_doc(1), "n": k},
            "loops": loops,
            "clutching": [{"perm": p} for p in perms],
        }
        return Request(f"sn-action k={k} loops={loops}", ["sn-action", "-"], _dump(doc),
                       {"k": k, "perms": perms})

    @staticmethod
    def _u1_bundle(rng: random.Random, k: int, loops: int, max_den: int):
        gens = [([_rand_angle(rng, max_den) for _ in range(k)], _perm(rng, k)) for _ in range(loops)]
        doc = {
            "k": k,
            "loops": loops,
            "generators": [{"angles": [str(a) for a in angles], "perm": perm} for angles, perm in gens],
        }
        return gens, _dump(doc)

    def _u1_requests(self, rng: random.Random) -> list[Request]:
        reqs = []
        for k, loops, max_den, letters in U1_HOLONOMY:
            gens, doc = self._u1_bundle(rng, k, loops, max_den)
            word = _word(rng, loops, letters)
            reqs.append(Request(f"u1-holonomy k={k} loops={loops} den<={max_den} letters={letters}",
                                ["u1-holonomy", "-", _word_arg(word)], doc,
                                {"k": k, "gens": gens, "word": word}))
        for k, loops, max_den, letters in U1_TRANSPORT:
            gens, doc = self._u1_bundle(rng, k, loops, max_den)
            word = _word(rng, loops, letters)
            start = (_rand_angle(rng, max_den), rng.randrange(k))
            start_doc = _dump({"angle": str(start[0]), "sheet": start[1]})
            reqs.append(Request(f"u1-transport k={k} loops={loops} den<={max_den} letters={letters}",
                                ["u1-transport", "-", _word_arg(word), "--start", start_doc], doc,
                                {"gens": gens, "word": word, "start": start}))
        for k, loops, max_den in PUSHFORWARD:
            gens, doc = self._u1_bundle(rng, k, loops, max_den)
            q = rng.randint(2, 12)
            reqs.append(Request(f"pushforward k={k} loops={loops} den<={max_den} q={q}",
                                ["pushforward", "-", "--power", str(q)], doc, {"gens": gens, "q": q}))
        for i, (k, loops, max_den, samples) in enumerate(DIVISION):
            _, doc = self._u1_bundle(rng, k, loops, max_den)
            reqs.append(self._division_request(rng, k, doc, max_den, samples, constant=i % 2 == 0))
        return reqs

    @staticmethod
    def _division_request(rng, k, spec_doc, max_den, samples, constant) -> Request:
        """A path on one sheet at constant rate, or with one sample in a hundred moved."""
        den = rng.randint(2, max_den)  # every sample angle is a multiple of 1/den
        step = Fraction(1, rng.randint(2, max_den))
        sheet = rng.randrange(k)
        start, incr = rng.randrange(den), rng.randrange(den)
        nums = [(start + incr * i) % den for i in range(samples)]
        if not constant:
            for i in rng.sample(range(samples), samples // 100):
                nums[i] = rng.randrange(den)
        points = [Fraction(a, den) for a in nums]
        path = {"step": str(step), "points": [{"angle": str(a), "sheet": sheet} for a in points]}
        return Request(
            f"division-check samples={samples} den<={max_den}",
            ["division-check", spec_doc, "--path", "-"],
            _dump(path),
            {"points": [(a, sheet) for a in points], "step": step, "sheet": sheet},
        )

    def warmup(self) -> Request:
        return self._winding_request("Z2", 2)

    def _winding_request(self, gname: str, k: int) -> Request:
        doc = FIBER_GROUPS[gname][0] if gname in FIBER_GROUPS else _cyclic_doc(int(gname[1:]))
        order = len(self.tables[gname])
        return Request(
            f"frame-bundle winding {gname} k={k}",
            ["frame-bundle", "-"],
            _dump({"kind": "winding", "group": doc, "k": k}),
            {"frames": order**k * math.factorial(k), "components": math.factorial(k - 1) * order**k},
        )

    def deck(self, rng: random.Random) -> list[Request]:
        reqs = []
        for (gname, n, loops), letters in zip(GSPACE_CASES, FINITE_WORDS):
            label = f"{gname} n={n} loops={loops}"
            doc, exp = self._gspace_bundle(rng, gname, n, loops)
            reqs.append(Request(f"components {label}", ["components", "-"], doc, exp))
            doc, exp = self._gspace_bundle(rng, gname, n, loops)
            reqs.append(Request(f"decompose {label}", ["decompose", "-"], doc, exp))
            doc, exp = self._gspace_bundle(rng, gname, n, loops)
            word = _word(rng, loops, letters)
            reqs.append(Request(f"holonomy {label} letters={letters}",
                                ["holonomy", "-", _word_arg(word)], doc, dict(exp, word=word)))
        reqs.extend(self._covering(rng, k, loops, moved=False) for k, loops in SN_TRIVIAL)
        reqs.extend(self._covering(rng, k, loops, moved=True) for k, loops in SN_MOVED)
        reqs.extend(self._winding_request(g, k) for g, k in WINDING_CASES)
        reqs.extend(self._u1_requests(rng))
        rng.shuffle(reqs)
        return reqs

    def check(self, req: Request, code: int, out: str, err: str) -> str | None:
        cmd = req.argv[0]
        e = req.expect
        want_exit = 0
        if cmd == "sn-action" and any(p != list(range(e["k"])) for p in e["perms"]):
            want_exit = 1
        if code != want_exit:
            return f"exit {code}, expected {want_exit}: {err.strip()[:160]}"
        p = _parse(out)
        if p is None:
            return "stdout is not a JSON object"
        d = p.get("data", {})
        got = _CHECKS[cmd](e, d)
        return None if got is None else f"{cmd}: {got}"

    def check_batch(self, results) -> dict[int, str]:
        return {}


def _check_components(e, d):
    want = oracles.orbit_partition(e["tables"], e["order"] * e["n"])
    got = {frozenset(c) for c in d.get("partition", [])}
    if d.get("components") != len(want) or got != want:
        return f"{d.get('components')} components, expected {len(want)}"
    return None


def _check_decompose(e, d):
    cover = oracles.orbit_partition(e["sigmas"], e["n"])
    want = {
        "sheets": e["n"],
        "covering_clutching": e["sigmas"],
        "covering_components": len(cover),
        "principal_fiber": e["order"],
    }
    return None if d == want else f"{d} != {want}"


def _check_holonomy(e, d):
    value = oracles.finite_holonomy(e["tables"], e["word"])
    want = {"word": e["word"], "value": value, "is_identity": value == list(range(len(value)))}
    return None if d == want else "holonomy differs from the composed clutching tables"


def _check_sn_action(e, d):
    k, perms = e["k"], e["perms"]
    moved = [i for i, p in enumerate(perms) if p != list(range(k))]
    if not moved:
        want = {"ok": True, "n": k}
    else:
        want = {
            "ok": False,
            "n": k,
            "obstruction_generator": moved[0] + 1,
            "obstruction_permutation": perms[moved[0]],
        }
    return None if d == want else f"{d} != {want}"


def _check_frame_bundle(e, d):
    if d.get("frames") != e["frames"] or d.get("components") != e["components"]:
        return f"frames {d.get('frames')}, components {d.get('components')}; expected {e['frames']}, {e['components']}"
    return None


def _check_u1_holonomy(e, d):
    angles, sigma = oracles.u1_holonomy(e["gens"], e["word"], e["k"])
    want = {"word": e["word"], "angles": [_angle_str(a) for a in angles], "sigma": sigma}
    return None if d == want else "circle holonomy differs from transport of each sheet"


def _check_u1_transport(e, d):
    angle, sheet = e["start"]
    end_angle, end_sheet = oracles.u1_transport(e["gens"], e["word"], angle, sheet)
    want = {
        "start": {"angle": _angle_str(angle), "sheet": sheet},
        "end": {"angle": _angle_str(end_angle), "sheet": end_sheet},
    }
    return None if d == want else f"{d} != {want}"


def _check_pushforward(e, d):
    q = e["q"]
    want = {
        "power": q,
        "generators": [
            {"angles": [_angle_str(a * q) for a in angles], "perm": perm} for angles, perm in e["gens"]
        ],
    }
    return None if d == want else "pushed-forward angles differ from q * angle mod 1"


def _check_division(e, d):
    rates = oracles.division_rates(e["points"], e["step"])
    constant = rates[0] if all(r == rates[0] for r in rates) else None
    want = {
        "sheet": e["sheet"],
        "rates": [str(r) for r in rates],
        "constant_rate": None if constant is None else str(constant),
    }
    return None if d == want else "division rates differ from forward differences"


_CHECKS = {
    "components": _check_components,
    "decompose": _check_decompose,
    "holonomy": _check_holonomy,
    "sn-action": _check_sn_action,
    "frame-bundle": _check_frame_bundle,
    "u1-holonomy": _check_u1_holonomy,
    "u1-transport": _check_u1_transport,
    "pushforward": _check_pushforward,
    "division-check": _check_division,
}

WORKLOADS = {w.name: w for w in (VerifySuites, ClassifyGroups, BundleQueries)}
