"""Spans around the benchmark's calls into octoplane's layers.

Wrappers are installed where each name is looked up: public functions in
their module's namespace (``topology`` binds ``sphere_to_line`` and
``random_unit`` at import, so those are wrapped in ``topology`` too),
constructors on their class, and products on ``CDNumber.__mul__``.  Each
wrapped call records a span (name, start, end, parent span, item id);
spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover,
where a child covers its own duration plus the tracer's bookkeeping for
it, so bookkeeping is charged to no layer.  Two boundaries aggregate
instead of recording a span per call, because a zero-divisor scan makes
about a million of them: products (count and time per scalar type and
level) and ``CDNumber`` constructions (count only).

A ``smith_normal_form`` call made inside ``invariant_factors`` gets no
span of its own, so its time is ``invariant_factors`` self time, and the
``topology.snf.*`` figures cover only the SNF-with-transforms items.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional

from octoplane import projective, properties, topology
from octoplane.algebra import CDNumber

MUL_LEVELS = {"int": range(6), "float": range(4), "fraction": range(1, 4)}
PROPERTY_SPANS = {
    "check_commutative": "commutative",
    "check_associative": "associative",
    "check_alternative": "alternative",
    "check_flexible": "flexible",
    "check_norm_multiplicative": "norm_multiplicative",
    "check_two_generated_associativity": "two_generated",
    "find_zero_divisors": "zero_divisors",
}
PROJECTIVE_SPANS = (
    "chart_backward",
    "chart_forward",
    "equivalent_representative",
    "invariants_of",
    "separating_functional",
    "sphere",
    "random_unit",
)
SNF_CLASSES = ("small", "medium", "large")


def snf_class(matrix) -> str:
    """Size class by largest side: <= 16, 17-32, > 32."""
    side = max(len(matrix), len(matrix[0]) if matrix else 0)
    return "small" if side <= 16 else "medium" if side <= 32 else "large"


def decimal_digits(n: int) -> int:
    n = abs(n)
    digits = max(1, int((n.bit_length() - 1) * 0.30102999566398120) + 1)
    while n >= 10 ** digits:
        digits += 1
    while digits > 1 and n < 10 ** (digits - 1):
        digits -= 1
    return digits


def _scalar_kind(a: CDNumber, b: CDNumber) -> str:
    """Scalar type of a product, read off each operand's first coordinate."""
    kinds = (type(a.coords[0]), type(b.coords[0]))
    if Fraction in kinds:
        return "fraction"
    return "float" if float in kinds else "int"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, item id, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.mul: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0])
        self.new_count = [0]
        self._ids = itertools.count()
        # frames: [span id, name, time children cover, products made inside]
        self._stack: list[list] = [[next(self._ids), "run", 0.0, 0]]
        self._patches: list[tuple[object, str, object]] = []
        self.item = -1
        self._item_start = 0.0

    # -- spans -----------------------------------------------------------

    def begin_item(self, item: int, kind: str) -> None:
        self.item = item
        self._stack[:] = [[next(self._ids), "item:" + kind, 0.0, 0]]
        self._item_start = perf_counter()

    def end_item(self) -> None:
        sid, name, _, _ = self._stack[0]
        self.spans.append((sid, None, name, self.item, self._item_start, perf_counter()))

    def _wrap(self, name: Callable[[tuple], Optional[str]], fn, after=None):
        """Trace fn under name(args); a None name calls fn untraced."""
        stack, ids, tracer = self._stack, self._ids, self

        def traced(*args, **kwargs):
            label = name(args)
            if label is None:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [next(ids), label, 0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((frame[0], parent[0], label, tracer.item, t0, t1))
                tracer.self_s[label] += (t1 - t0) - frame[2]
                tracer.calls[label] += 1
                parent[3] += frame[3]
                if label.startswith("properties."):
                    tracer.counters["properties.products"] += frame[3]
            if after is not None:
                after(args, result)
            parent[2] += perf_counter() - t0
            return result

        return traced

    def _patch(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name if callable(name) else (lambda args, n=name: n), original, after))

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        for attr, short in PROPERTY_SPANS.items():
            after = self._after_zero_divisors if short == "zero_divisors" else self._after_check
            self._patch(properties, attr, "properties." + short, after)

        for attr in ("chart_backward", "chart_forward", "equivalent_representative", "invariants_of"):
            self._patch(projective, attr, "projective." + attr)
        self._patch(projective, "separating_functional", "projective.separating_functional", self._after_separation)
        for owner in (projective, topology):
            self._patch(owner, "sphere_to_line", "projective.sphere")
            self._patch(owner, "random_unit", "projective.random_unit")
        self._patch(projective, "line_to_sphere", "projective.sphere")
        self._patch(projective.TriplePoint, "__init__", "projective.triple_point")

        def snf_name(args):
            if self._stack[-1][1] == "topology.invariant_factors":
                return None
            return "topology.snf." + snf_class(args[0])

        self._patch(topology, "smith_normal_form", snf_name, self._after_snf)
        self._patch(topology, "invariant_factors", "topology.invariant_factors")
        self._patch(topology, "homology", "topology.homology")
        self._patch(topology, "cohomology", "topology.cohomology")
        self._patch(topology, "cohomology_profile", "topology.cohomology")
        self._patch(topology.CWDescription, "__init__", "topology.cw")
        self._patch(topology, "linking_hopf_invariant", "topology.linking")
        self._patch(topology, "multiplication_bidegree", "topology.bidegree")

        self._install_algebra()
        return self

    def _install_algebra(self) -> None:
        mul, init = CDNumber.__mul__, CDNumber.__init__
        self._patches += [(CDNumber, "__mul__", mul), (CDNumber, "__init__", init)]
        stats, stack, new_count = self.mul, self._stack, self.new_count

        def traced_mul(a, b):
            if not isinstance(b, CDNumber):
                return mul(a, b)  # scaling by a scalar is not a product of two numbers
            t0 = perf_counter()
            result = mul(a, b)
            t1 = perf_counter()
            entry = stats[(_scalar_kind(a, b), a.level)]
            entry[0] += 1
            entry[1] += t1 - t0
            frame = stack[-1]
            frame[3] += 1
            frame[2] += perf_counter() - t0
            return result

        def counted_init(self_, level, coords):
            new_count[0] += 1
            init(self_, level, coords)

        CDNumber.__mul__ = traced_mul
        CDNumber.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters at the same boundaries -------------------------------------

    def _after_check(self, args, report) -> None:
        self.counters["properties.candidates"] += report.samples

    def _after_zero_divisors(self, args, pairs) -> None:
        level = args[0]
        dim = 1 << level
        scanned = (dim * (dim - 1)) ** 2 if level >= 4 else 0  # (2 * C(dim, 2))^2 pairs
        self.counters["properties.candidates"] += scanned
        self.counters["properties.zero_divisors.scanned"] += scanned
        self.counters["properties.zero_divisors.found"] += len(pairs)

    def _after_separation(self, args, functional) -> None:
        self.counters["projective.separating_functional.calls"] += 1
        if all(c in (0.0, 1.0, -1.0) for c in functional.coefficients()):
            self.counters["projective.separating_functional.grid"] += 1

    def _after_snf(self, args, result) -> None:
        biggest = max((abs(x) for m in (result.u, result.v) for row in m for x in row), default=0)
        key = "topology.snf.transform_digits_max"
        self.counters[key] = max(self.counters[key], decimal_digits(biggest))

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures as name -> (value, unit); zero where a layer did no work."""
        c = self.counters
        out: dict[str, tuple[float, str]] = {}
        out["algebra.mul.count"] = (sum(n for n, _ in self.mul.values()), "count")
        out["algebra.mul.self_s"] = (sum(t for _, t in self.mul.values()), "s")
        for kind, levels in MUL_LEVELS.items():
            for level in levels:
                n, t = self.mul.get((kind, level), (0, 0.0))
                out[f"algebra.mul.mean_us.{kind}.L{level}"] = (1e6 * t / n if n else 0.0, "us")
        out["algebra.new.count"] = (self.new_count[0], "count")

        for short in PROPERTY_SPANS.values():
            out[f"properties.{short}.self_s"] = (self.self_s.get("properties." + short, 0.0), "s")
        candidates = c["properties.candidates"]
        out["properties.candidates"] = (candidates, "count")
        out["properties.mul_per_candidate"] = (
            c["properties.products"] / candidates if candidates else 0.0,
            "ratio",
        )
        scanned = c["properties.zero_divisors.scanned"]
        out["properties.zero_divisors.hit_ratio"] = (
            c["properties.zero_divisors.found"] / scanned if scanned else 0.0,
            "ratio",
        )

        out["projective.triple_point.count"] = (self.calls.get("projective.triple_point", 0), "count")
        out["projective.triple_point.self_s"] = (self.self_s.get("projective.triple_point", 0.0), "s")
        for short in PROJECTIVE_SPANS:
            out[f"projective.{short}.self_s"] = (self.self_s.get("projective." + short, 0.0), "s")
        calls = c["projective.separating_functional.calls"]
        out["projective.separating_functional.grid_ratio"] = (
            c["projective.separating_functional.grid"] / calls if calls else 0.0,
            "ratio",
        )

        for cls in SNF_CLASSES:
            out[f"topology.snf.self_s.{cls}"] = (self.self_s.get("topology.snf." + cls, 0.0), "s")
        out["topology.snf.transform_digits_max"] = (c["topology.snf.transform_digits_max"], "digits")
        for short, key in (
            ("invariant_factors", "invariant_factors.self_s"),
            ("homology", "homology.self_s"),
            ("cohomology", "cohomology.self_s"),
            ("cw", "cw.validate_s"),
            ("linking", "linking.self_s"),
            ("bidegree", "bidegree.self_s"),
        ):
            out["topology." + key] = (self.self_s.get("topology." + short, 0.0), "s")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "item", "start", "end"], "spans": self.spans}, fh)
