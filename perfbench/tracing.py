"""Spans and counters recorded from outside the program.

`Tracer` swaps every public function of the traced layers, in every subhess
module that holds a reference to it, for a wrapper, and does the same for
`PiecewisePotential.cell_classes`; leaving the `with` block puts the
originals back. A call records a span (name, layer, start, end, parent,
op id) when it enters a layer from another one, and always for the calls
that per-layer metrics are defined over (`ALWAYS_SPAN`). Calls inside one
layer record nothing, which keeps hot helpers such as `wavecone.residual`
cheap to trace. Spans stay in memory until `dump`.

`scalars` and `sym2` are not wrapped: they are per-number arithmetic called
millions of times, so their cost shows inside their callers' self time.
Counters are taken from return values at the same call boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from subhess.laminate import Laminate
from subhess.scalars import Iv
from subhess.synthesizer import PiecewisePotential

LAYERS = ("constructions", "laminate", "synthesizer", "verifier", "obstacle", "wavecone", "cli")
CELL_CLASSES = "synthesizer.cell_classes"
ALWAYS_SPAN = frozenset({"obstacle.solve", "obstacle.sample_potential", CELL_CLASSES})
BUILD_CALLS = frozenset(f"synthesizer.{name}" for name in
                     ("realize_laminate", "realize_simple", "staircase_build", "build_pattern_node"))

# name, unit of every metric `Tracer.metrics` returns
METRICS = (
    *((f"{layer}.self_s", "s") for layer in (*LAYERS, "bench")),
    ("scalars.max_endpoint_bits", "bits"),
    ("synthesizer.build_s", "s"),
    ("synthesizer.pattern_nodes", "count"),
    ("synthesizer.cell_classes", "count"),
    ("synthesizer.cell_count_log10", "log10"),
    ("verifier.busy_s", "s"),
    ("verifier.calls", "count"),
    ("verifier.class_passes", "count"),
    ("constructions.busy_s", "s"),
    ("constructions.calls", "count"),
    ("laminate.atoms", "count"),
    ("obstacle.solve_s", "s"),
    ("obstacle.sweeps", "count"),
    ("obstacle.sweep_ms", "ms"),
    ("obstacle.sample_s", "s"),
    ("obstacle.sample_points_per_s", "1/s"),
    ("wavecone.busy_s", "s"),
    ("wavecone.calls", "count"),
    ("wavecone.patches", "count"),
)


def endpoint_bits(x, depth: int = 0) -> int:
    """Most numerator or denominator bits of any interval endpoint inside x.

    Exact rationals outside intervals (cell areas, weights' exact parts) are
    not enclosures and are left out."""
    if isinstance(x, Iv):
        return max(f.numerator.bit_length() if i else f.denominator.bit_length()
                   for f in (x.lo, x.hi) for i in (0, 1))
    if depth > 8:
        return 0
    if isinstance(x, Laminate):
        x = x.atoms
    elif isinstance(x, dict):
        x = x.values()
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        x = [getattr(x, f.name) for f in dataclasses.fields(x)]
    elif not isinstance(x, (list, tuple)):
        return 0
    return max((endpoint_bits(v, depth + 1) for v in x), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(int)
        self.max_bits = 0
        self.op_id = None
        self._open: list[int] = []  # indices of open spans
        self._layers: list[str] = []  # layers of the open wrapped calls
        self._passed = weakref.WeakSet()  # potentials whose classes were counted
        self._saved: list[tuple] = []

    # ---- patching -------------------------------------------------------------------

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"subhess.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and name[0] != "_":
                    wrappers[obj] = self._wrap(layer, f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "subhess" or modname.startswith("subhess."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrappers:
                        self._saved.append((mod, attr, val))
                        setattr(mod, attr, wrappers[val])
        orig = PiecewisePotential.cell_classes
        self._saved.append((PiecewisePotential, "cell_classes", orig))
        PiecewisePotential.cell_classes = self._wrap("synthesizer", CELL_CLASSES, orig)
        return self

    def __exit__(self, *exc):
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    def _wrap(self, layer: str, name: str, fn):
        always = name in ALWAYS_SPAN
        gen = inspect.isgeneratorfunction(fn)
        layers = self._layers

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            boundary = not layers or layers[-1] != layer
            if not (boundary or always):
                res = fn(*args, **kwargs)
                self._count(name, args, res)
                return res
            idx = len(self.spans)
            self.spans.append([name, layer, perf_counter(), None,
                               self._open[-1] if self._open else None, self.op_id])
            self._open.append(idx)
            layers.append(layer)
            try:
                res = fn(*args, **kwargs)
                if gen:
                    res = list(res)  # keep the producer's time inside its span
            finally:
                layers.pop()
                self._open.pop()
                self.spans[idx][3] = perf_counter()
            self._count(name, args, res)
            if boundary:
                self._inspect(name, res)
            return iter(res) if gen else res

        return wrapper

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one benchmark operation; its self time is the harness's."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append([f"bench.{kind}", "bench", perf_counter(), None, None, op_id])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][3] = perf_counter()
            self.op_id = None

    # ---- counters -------------------------------------------------------------------

    def _count(self, name: str, args, res) -> None:
        """Counters taken on every call, nested ones included."""
        if name == "wavecone.member_bruteforce":
            self.counts["wavecone.patches"] += res.patches
        elif name == "obstacle.solve":
            self.counts["obstacle.sweeps"] += res.iterations
        elif name == "obstacle.sample_potential":
            self.counts["obstacle.sample_points"] += res.size
        elif name == CELL_CLASSES:
            if "verifier" in self._layers:
                self.counts["verifier.class_passes"] += 1
            pot = args[0]
            if pot not in self._passed:
                self._passed.add(pot)
                self.counts["synthesizer.cell_classes"] += len(res)
                for cc in res:
                    self.max_bits = max(self.max_bits, endpoint_bits((cc.hess, cc.h_box)))

    def _inspect(self, name: str, res) -> None:
        """Counters taken from results handed across a layer boundary."""
        self.max_bits = max(self.max_bits, endpoint_bits(res))
        items = res if isinstance(res, tuple) else (res,)
        for item in items:
            if isinstance(item, Laminate):
                self.counts["laminate.atoms"] += len(item)
        if name in BUILD_CALLS:
            pot = getattr(res, "potential", res)
            if isinstance(pot, PiecewisePotential):
                self.counts["synthesizer.pattern_nodes"] += sum(1 for _ in pot.nodes())
                cells = pot.cell_count()
                self.counts["synthesizer.cell_count_log10"] = max(
                    self.counts["synthesizer.cell_count_log10"], math.log10(cells) if cells else 0.0)

    # ---- results --------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = dict.fromkeys((*LAYERS, "bench"), 0.0)
        for (name, layer, start, end, parent, op), child in zip(self.spans, covered):
            out[layer] += end - start - child
        return out

    def _entries(self):
        """Spans with no open span of the same layer above them."""
        for span in self.spans:
            parent = span[4]
            while parent is not None and self.spans[parent][1] != span[1]:
                parent = self.spans[parent][4]
            if parent is None:
                yield span

    def metrics(self) -> dict[str, float]:
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        build_s = 0.0
        for name, layer, start, end, parent, op in self._entries():
            busy[layer] += end - start
            calls[layer] += 1
            build_s += (end - start) if name in BUILD_CALLS else 0.0
        named: dict[str, float] = defaultdict(float)
        for name, layer, start, end, parent, op in self.spans:
            named[name] += end - start
        solve_s, sample_s = named["obstacle.solve"], named["obstacle.sample_potential"]
        sweeps, points = self.counts["obstacle.sweeps"], self.counts["obstacle.sample_points"]
        out = {f"{layer}.self_s": t for layer, t in self.self_times().items()}
        out.update({
            "scalars.max_endpoint_bits": self.max_bits,
            "synthesizer.build_s": build_s,
            "synthesizer.pattern_nodes": self.counts["synthesizer.pattern_nodes"],
            "synthesizer.cell_classes": self.counts["synthesizer.cell_classes"],
            "synthesizer.cell_count_log10": self.counts["synthesizer.cell_count_log10"],
            "verifier.class_passes": self.counts["verifier.class_passes"],
            "laminate.atoms": self.counts["laminate.atoms"],
            "obstacle.solve_s": solve_s,
            "obstacle.sweeps": sweeps,
            "obstacle.sweep_ms": 1000 * solve_s / sweeps if sweeps else 0.0,
            "obstacle.sample_s": sample_s,
            "obstacle.sample_points_per_s": points / sample_s if sample_s else 0.0,
            "wavecone.patches": self.counts["wavecone.patches"],
        })
        for layer in ("verifier", "constructions", "wavecone"):
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.calls"] = calls[layer]
        return out

    def dump(self, path, **meta) -> None:
        keys = ("name", "layer", "start", "end", "parent", "op")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": [dict(zip(keys, s)) for s in self.spans]}))
