"""Per-layer tracing of k3lat from outside its source.

``Tracer.install()`` replaces each public layer function listed in
``LAYERS`` by a wrapper, in its defining module and in every k3lat module
that re-binds it through ``from .x import y`` (``hnf`` is bound in
exactla, lattice, roots, cusps and kulikov).  Methods are wrapped on
their class.  The library itself is not modified on disk.

Every call is timed.  A call's self time is its duration minus the time
of the traced calls made inside it.  Calls of the functions in
``AGGREGATED`` (exactla kernels and ``Lattice.pair``, called up to about
a million times per run) are kept only as counts and self time; every
other call is also kept in memory as a span ``(name, start, end,
parent_index, unit)``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = {
    "exactla": ["hnf", "snf", "rat_express", "int_express", "rat_mul", "det"],
    "lattice": [
        "Lattice.pair",
        "glue_overlattice",
        "disc_group",
        "signature_with_radical",
        "Sublattice.orth_complement",
    ],
    "roots": ["enumerate_norm", "root_system", "complement_root_type"],
    "eisenstein": ["is_estar", "primitive_part", "fixed_sublattice", "eisenstein_gram"],
    "cusps": [
        "family_data",
        "build_niemeier",
        "embed_multiset",
        "enumerate_embeddings",
        "star_of",
        "classify_cusps",
    ],
    "kulikov": [
        "build_component",
        "glue_lambda",
        "root_split_check",
        "primitive_picard",
        "semifan",
        "order4_suite",
    ],
    "cli": ["parse_lattice_expr"],
}

AGGREGATED = {f"exactla.{f}" for f in LAYERS["exactla"]} | {"lattice.pair"}

# Argument keys for ``repeat_ratio``: the share of calls whose key was
# already seen earlier in the run.
KEYS: Dict[str, Callable] = {
    "roots.root_system": lambda l: l.gram,
    "cusps.family_data": lambda n, k: (n, k),
    "cusps.embed_multiset": lambda comp, factors: (comp, tuple(factors)),
    "kulikov.build_component": lambda spec: spec,
    "kulikov.primitive_picard": lambda c: c.spec,
}

# Result sizes, summed over calls and reported under the given name.
SIZES: Dict[str, Tuple[str, Callable]] = {
    "roots.enumerate_norm": ("vectors", len),
    "roots.root_system": ("roots", lambda r: r[0].root_count()),
    "cusps.enumerate_embeddings": ("records", len),
}


@dataclass
class Stat:
    calls: int = 0
    returned: int = 0  # calls that did not raise
    self_s: float = 0.0
    repeats: int = 0
    size: int = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.spans: List[Tuple[str, float, float, int, Optional[str]]] = []
        self.unit: Optional[str] = None  # label of the unit of work running now
        self._frames: List[List[float]] = []  # child time of each open call
        self._open: List[int] = []  # span index of each open non-aggregated call
        self.toplevel_s = 0.0  # summed duration of the calls made outside any traced call

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` of the k3lat modules imported so
        far; the functions of a module not imported keep zero counts."""
        modules = [m for n, m in sys.modules.items() if n == "k3lat" or n.startswith("k3lat.")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"k3lat.{layer}")
            for qual in names:
                cls_name, _, attr = qual.rpartition(".")
                metric = f"{layer}.{attr}"
                if home is None:
                    self.stats[metric] = Stat()
                elif cls_name:
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self._wrap(metric, getattr(cls, attr)))
                else:
                    original = getattr(home, attr)
                    wrapper = self._wrap(metric, original)
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, name, wrapper)

    def _wrap(self, metric: str, fn: Callable) -> Callable:
        stat = self.stats[metric] = Stat()
        frames, spans, open_ = self._frames, self.spans, self._open
        key = KEYS.get(metric)
        seen: set = set()
        size = SIZES.get(metric, (None, None))[1]
        aggregated = metric in AGGREGATED

        def wrapper(*args, **kwargs):
            if key is not None:
                k = key(*args, **kwargs)
                if k in seen:
                    stat.repeats += 1
                else:
                    seen.add(k)
            if not aggregated:
                index = len(spans)
                spans.append(None)
                parent = open_[-1] if open_ else -1
                open_.append(index)
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                stat.calls += 1
                stat.self_s += end - start - frame[0]
                if frames:
                    frames[-1][0] += end - start
                else:
                    self.toplevel_s += end - start
                if not aggregated:
                    open_.pop()
                    spans[index] = (metric, start, end, parent, self.unit)
            stat.returned += 1
            if size is not None:
                stat.size += size(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> Dict[str, float]:
        """Flat per-layer metrics: ``<layer>.<function>.<stat>``."""
        out: Dict[str, float] = {}
        for metric, st in self.stats.items():
            out[f"{metric}.calls"] = st.calls
            out[f"{metric}.self_s"] = st.self_s
            if metric in KEYS:
                out[f"{metric}.repeat_ratio"] = st.repeats / st.calls if st.calls else 0.0
            if metric in SIZES:
                out[f"{metric}.{SIZES[metric][0]}"] = st.size
        glue = self.stats["lattice.glue_overlattice"]
        out["lattice.glue_overlattice.accepted"] = glue.returned
        out["lattice.glue_overlattice.accept_ratio"] = (
            glue.returned / glue.calls if glue.calls else 0.0
        )
        return out

    def attributed_s(self) -> float:
        """Sum of all self times: the traced time spent inside k3lat layers.
        It equals ``toplevel_s``, measured separately, unless the child
        times are booked wrongly."""
        return sum(st.self_s for st in self.stats.values())
