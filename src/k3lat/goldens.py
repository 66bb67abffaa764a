"""The paper's tables: the family definitions and the reference values.

One table is input, which ``cusps`` reads to define the families: the
S, T and P summands of ``LATTICE_TABLE``.  The vectors of
``DIRECT_WITNESSES`` are inputs of the ``direct`` suite, each filed
under the cusp row it is expected to give.  The rest, ``a3`` of
``LATTICE_TABLE`` and ``GENUS`` included, are expected values: only the
suites and tests read them, and they compare them entry by entry against
values computed independently.  Each fact is stored once: an embedding
class count is the length of its row list in ``EMBEDDING_TABLES``.
Embedding descriptors are stored per component in expanded form: one
row per component, ``(assigned factors, complement type, dual quotient
order)``, as a sorted tuple so comparisons are order-free.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

FAMILIES = ((0, 2), (0, 1), (1, 1), (2, 1))

# the verification suites in the order ``verify --suite all`` runs them;
# the CLI reads the names here without loading ``suites``
SUITE_ORDER = ("tab3", "tab4", "expl", "eis", "order4", "tschirnhausen", "glue", "semifan", "direct")

# family -> genus of the fixed curve
GENUS = {(0, 2): 5, (0, 1): 4, (1, 1): 3, (2, 1): 2}

# family -> summands of the three lattices (S, T, P)
LATTICE_TABLE: Dict[Tuple[int, int], Dict[str, Tuple]] = {
    (0, 2): {
        "S": (("U", 1),),
        "T": (("U", 1), ("U", 1), ("E", 8), ("E", 8)),
        "P": (("E", 8),),
        "a3": 0,
    },
    (0, 1): {
        "S": (("U", 3),),
        "T": (("U", 1), ("U", 3), ("E", 8), ("E", 8)),
        "P": (("E", 6), ("A", 2)),
        "a3": 2,
    },
    (1, 1): {
        "S": (("U", 3), ("A", 2)),
        "T": (("U", 1), ("U", 3), ("E", 6), ("E", 8)),
        "P": (("E", 6), ("A", 2), ("A", 2)),
        "a3": 3,
    },
    (2, 1): {
        "S": (("U", 3), ("A", 2), ("A", 2)),
        "T": (("U", 1), ("U", 3), ("E", 6), ("E", 6)),
        "P": (("E", 6), ("A", 2), ("A", 2), ("A", 2)),
        "a3": 4,
    },
}

# family -> quotient root types at the 1-cusps (stars mark index-3
# overlattices of the root span)
CUSP_TABLE: Dict[Tuple[int, int], List[str]] = {
    (0, 2): ["E8^2"],
    (0, 1): ["E8^2", "E8+E6+A2", "E6^2+A2^2*"],
    (1, 1): ["E8+E6", "E6^2+A2", "E8+A2^3", "E6+A2^4*"],
    (2, 1): ["E8+A2^2", "E6^2", "E6+A2^3", "A2^6*"],
}

# family -> cusp type -> a primitive isotropic vector e of T whose plane
# J = sat(e, rho e) has that J-perp/J, in the coordinates of
# ``cusps.family_data(n, k).t``: the four hyperbolic coordinates first,
# then the root-lattice blocks
DIRECT_WITNESSES: Dict[Tuple[int, int], Dict[str, Tuple[int, ...]]] = {
    (0, 2): {"E8^2": (1,) + (0,) * 19},
    (0, 1): {
        "E8^2": (1,) + (0,) * 19,
        "E8+E6+A2": (-1, -1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0),
        "E6^2+A2^2*": (1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, -1),
    },
    (1, 1): {
        "E8+E6": (1, 2, -2, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
        "E8+A2^3": (1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        "E6^2+A2": (1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
        "E6+A2^4*": (1, 0, -1, -1, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    },
    (2, 1): {
        "E8+A2^2": (1, 1, -2, -1, 0, 0, 1, 0, 0, -2, 0, 0, 0, -1, 0, -1),
        "E6^2": (2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, -1),
        "E6+A2^3": (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
        "A2^6*": (-1, -2, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    },
}

# the five orthogonal-complement identities inside E8 and E6: sublattice,
# ambient, complement, and the simple roots (Bourbaki nodes) spanning the
# sublattice
COMPLEMENT_FACTS = (
    ("A2", "E8", "E6", (1, 3)),
    ("E6", "E8", "A2", (1, 2, 3, 4, 5, 6)),
    ("A2", "E6", "A2^2", (1, 3)),
    ("A2^2", "E6", "A2", (1, 3, 5, 6)),
    ("A2^2", "E8", "A2^2", (1, 3, 5, 6)),
)

Row = Tuple[str, str, int]
Embedding = Tuple[Row, ...]


def _emb(*rows: Row) -> Embedding:
    return tuple(sorted(rows))


# (family, model) -> distinct embedding descriptors.  The reference list
# for the (2,1) embeddings into E6^4 contains one column twice with
# identical data; descriptors collapse such duplicates.
EMBEDDING_TABLES: Dict[Tuple[Tuple[int, int], str], List[Embedding]] = {
    ((0, 2), "E8^3"): [
        _emb(("E8", "0", 1), ("0", "E8", 1), ("0", "E8", 1)),
    ],
    ((0, 2), "E6^4"): [],
    ((0, 1), "E8^3"): [
        _emb(("E6+A2", "0", 1), ("0", "E8", 1), ("0", "E8", 1)),
        _emb(("E6", "A2", 1), ("A2", "E6", 1), ("0", "E8", 1)),
    ],
    ((0, 1), "E6^4"): [
        _emb(("E6", "0", 1), ("A2", "A2^2", 3), ("0", "E6", 3), ("0", "E6", 3)),
    ],
    ((1, 1), "E8^3"): [
        _emb(("E6+A2", "0", 1), ("A2", "E6", 1), ("0", "E8", 1)),
        _emb(("E6", "A2", 1), ("A2^2", "A2^2", 1), ("0", "E8", 1)),
        _emb(("E6", "A2", 1), ("A2", "E6", 1), ("A2", "E6", 1)),
    ],
    ((1, 1), "E6^4"): [
        _emb(("E6", "0", 1), ("A2^2", "A2", 1), ("0", "E6", 3), ("0", "E6", 3)),
        _emb(("E6", "0", 1), ("A2", "A2^2", 3), ("A2", "A2^2", 3), ("0", "E6", 3)),
    ],
    ((2, 1), "E8^3"): [
        _emb(("E6+A2", "0", 1), ("A2^2", "A2^2", 1), ("0", "E8", 1)),
        _emb(("E6+A2", "0", 1), ("A2", "E6", 1), ("A2", "E6", 1)),
        _emb(("E6", "A2", 1), ("A2^3", "A2", 1), ("0", "E8", 1)),
        _emb(("E6", "A2", 1), ("A2^2", "A2^2", 1), ("A2", "E6", 1)),
    ],
    ((2, 1), "E6^4"): [
        _emb(("E6", "0", 1), ("A2^3", "0", 1), ("0", "E6", 3), ("0", "E6", 3)),
        _emb(("E6", "0", 1), ("A2^2", "A2", 1), ("A2", "A2^2", 3), ("0", "E6", 3)),
        _emb(("E6", "0", 1), ("A2", "A2^2", 3), ("A2", "A2^2", 3), ("A2", "A2^2", 3)),
    ],
}

# the six triple-cover component rows: (pinch count, cover pieces) ->
# root type of the primitive Picard part
COMPONENT_TABLE: Tuple[Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], str], ...] = (
    ((0, ((1, 3),)), "E6+A2"),
    ((0, ((0, 1), (2, 2))), "E8"),
    ((1, ((0, 3),)), "A2^3"),
    ((1, ((0, 1), (1, 2))), "E6"),
    ((2, ((0, 1), (0, 2))), "A2^2"),
    ((3, ((0, 1), (0, 1), (0, 1))), "A2"),
)

# family -> component pairings of the two-component degenerations and the
# root type (with star) of the resulting primitive part
GLUE_PAIRINGS: Dict[Tuple[int, int], List[Tuple[Tuple, Tuple, str, bool]]] = {
    (0, 2): [
        ((0, ((0, 1), (2, 2))), (0, ((0, 1), (2, 2))), "E8^2", False),
    ],
    (0, 1): [
        ((0, ((1, 3),)), (0, ((1, 3),)), "E6^2+A2^2", True),
        ((0, ((0, 1), (2, 2))), (0, ((1, 3),)), "E8+E6+A2", False),
        ((0, ((0, 1), (2, 2))), (0, ((0, 1), (2, 2))), "E8^2", False),
    ],
    (1, 1): [
        ((0, ((1, 3),)), (1, ((0, 3),)), "E6+A2^4", True),
        ((0, ((0, 1), (2, 2))), (1, ((0, 3),)), "E8+A2^3", False),
        ((0, ((1, 3),)), (1, ((0, 1), (1, 2))), "E6^2+A2", False),
        ((0, ((0, 1), (2, 2))), (1, ((0, 1), (1, 2))), "E8+E6", False),
    ],
    (2, 1): [
        ((1, ((0, 3),)), (1, ((0, 3),)), "A2^6", True),
        ((1, ((0, 1), (1, 2))), (1, ((0, 3),)), "E6+A2^3", False),
        ((1, ((0, 1), (1, 2))), (1, ((0, 1), (1, 2))), "E6^2", False),
        ((0, ((0, 1), (2, 2))), (2, ((0, 1), (0, 2))), "E8+A2^2", False),
        ((0, ((1, 3),)), (2, ((0, 1), (0, 2))), "E6+A2^3", False),
    ],
}

# [primitive part : span of the two component primitive parts] of a
# gluing, by the star of its quotient type
GLUE_SPLIT_INDEX = {False: 1, True: 3}

# (family, cusp with star flag) -> (rank of the semifan sublattice, index
# in it of the span of the A2 factors)
SEMIFAN_TABLE: Dict[Tuple[int, int], Tuple[Tuple[str, int, int], ...]] = {
    (0, 2): (("E8^2", 0, 1),),
    (0, 1): (("E6^2+A2^2*", 4, 1), ("E8+E6+A2", 2, 1), ("E8^2", 0, 1)),
    (1, 1): (("E6+A2^4*", 8, 1), ("E8+A2^3", 6, 1), ("E6^2+A2", 2, 1), ("E8+E6", 0, 1)),
    (2, 1): (("A2^6*", 12, 3), ("E6+A2^3", 6, 1), ("E6^2", 0, 1), ("E8+A2^2", 4, 1)),
}

# (rank, |det|, elementary divisors) of the order-4 quotient D4^2+A1^2
_D4D4A1A1 = (10, 64, (2, 2, 2, 2, 2, 2))

# the order-4 aside: check id of ``kulikov.order4_suite`` -> (anchor,
# expected value); each value lists the parts of its check in the order
# that the check's comment in ``order4_suite`` names them
ORDER4_TABLE: Dict[str, Tuple[str, Tuple]] = {
    "nikulin-invariants": ("(1,9,4,0)", ((1, 9, 4, 0), (1, 9, 4, 0))),
    "order-4-action": ("rho^4 = 1, rho^2 = -1", (4, True)),
    "quotient-root-type": ("D4^2+A1^2", ("D4^2+A1^2",)),
    "exceptional-span": (
        "differences of cycled classes span A1^2",
        (((-2, 0), (0, -2)), ((0, 1, 0, -1), (-1, 0, 1, 0)), True, True, (2, 8, 10), (64, 64)),
    ),
    "semifan-summand": ("the A1^2 summand", (True, _D4D4A1A1, _D4D4A1A1)),
}
