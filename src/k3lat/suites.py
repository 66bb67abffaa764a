"""Verification suites: named checks with computed vs expected values.

Every suite records each of its items one way, ``Report.add(id, anchor,
computed, expected, provenance)``, and an item passes exactly when the
two values print the same.  The library returns computed values without
judging them; the expected values live in ``goldens``, apart from a few
constants written once beside their item, so a wrong expected value
shows as a FAIL item rather than an exception.  Each item carries a
short anchor (the value or identity being reproduced), the computed and
expected values as strings, and a provenance tag: ``paper`` for
tabulated reference values, ``derived`` for values computed by an
independent oracle, ``trivial`` for forced cases.  A suite that raises a
k3lat error is one ``error`` item, and the suites after it still run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from traceback import walk_tb
from typing import Callable, Dict, List

from . import __version__
from .exactla import ExactLAError, IntMatrix
from .lattice import (
    LatticeError,
    Sublattice,
    disc_group,
    is_p_elementary,
    rescale,
    root_lattice,
    signature,
)
from .roots import complement_root_type
from .eisenstein import (
    eisenstein_gram,
    fixed_sublattice,
    fpf_order3,
    hermitian_normal_2x2,
    is_estar,
    rho3_u_u,
    rho3_u_u3,
    RhoLattice,
    THETA,
)
from . import goldens
from .cusps import (
    NIEMEIER_GLUE,
    classify_cusps,
    cusp_of_plane,
    cusp_quotient_lattice,
    enumerate_embeddings,
    family_data,
    isotropic_plane,
    root_type_with_star,
)
from .kulikov import (
    ComponentSpec,
    build_component,
    glue_lambda,
    order4_suite,
    primitive_picard,
    quotient_model_fingerprint,
    root_split_check,
    semifan,
)


@dataclass
class Item:
    id: str
    anchor: str
    status: str
    computed: str
    expected: str
    provenance: str


@dataclass
class Report:
    suite: str
    items: List[Item] = field(default_factory=list)
    version: str = __version__

    def add(self, id: str, anchor: str, computed, expected, provenance: str) -> None:
        c, e = str(computed), str(expected)
        self.items.append(
            Item(id, anchor, "pass" if c == e else "fail", c, e, provenance)
        )

    @property
    def passed(self) -> bool:
        return all(i.status == "pass" for i in self.items)

    def as_dict(self) -> Dict:
        """The report with its items, field by field, in declaration order."""
        return asdict(self)

    def as_text(self) -> str:
        lines = [f"suite {self.suite} (version {self.version})"]
        width = max((len(i.id) for i in self.items), default=0)
        for i in self.items:
            lines.append(
                f"  {i.status.upper():4} {i.id:<{width}}  {i.anchor}"
                + ("" if i.status == "pass" else f"  [computed {i.computed} expected {i.expected}]")
            )
        n_pass = sum(1 for i in self.items if i.status == "pass")
        lines.append(f"  {n_pass}/{len(self.items)} checks passed")
        return "\n".join(lines)


def _sum_label(symbols) -> str:
    parts = []
    for sym, n in symbols:
        if sym == "U":
            parts.append("U" if n == 1 else f"U({n})")
        else:
            parts.append(f"{sym}{n}")
    return "+".join(parts)


def suite_tab3() -> Report:
    """Invariants of the period and complement lattices of the families."""
    r = Report("tab3")
    for n, k in goldens.FAMILIES:
        fd = family_data(n, k)
        row = goldens.LATTICE_TABLE[(n, k)]
        fam = f"({n},{k})"
        anchor = _sum_label(row["T"])
        r.add(f"{fam}-T-signature", anchor, signature(fd.t), (2, fd.t.rank - 2), "paper")
        r.add(
            f"{fam}-S-signature",
            _sum_label(row["S"]),
            signature(fd.s),
            (1, fd.s.rank - 1),
            "paper",
        )
        r.add(
            f"{fam}-P-signature",
            _sum_label(row["P"]),
            signature(fd.p),
            (0, fd.p.rank),
            "paper",
        )
        r.add(f"{fam}-rank-sum", "rk T + rk P = 28", fd.t.rank + fd.p.rank, 28, "paper")
        r.add(
            f"{fam}-disc-orders",
            "|A_T| = |A_P|",
            abs(fd.t.det()),
            abs(fd.p.det()),
            "paper",
        )
        r.add(
            f"{fam}-3-elementary",
            "3 T* in T",
            is_p_elementary(fd.t, 3),
            True,
            "paper",
        )
        r.add(
            f"{fam}-a3",
            f"a_3 = {row['a3']}",
            disc_group(fd.t).a(3),
            row["a3"],
            "paper",
        )
        block_sig = [0, 0]
        for sym, m in row["T"]:
            if sym == "U":
                block_sig[0] += 1
                block_sig[1] += 1
            else:
                block_sig[1] += m
        r.add(
            f"{fam}-signature-additivity",
            "signature adds over summands",
            signature(fd.t),
            tuple(block_sig),
            "derived",
        )
    return r


def suite_tab4() -> Report:
    """The twelve 1-cusp records and the complement identities feeding them."""
    r = Report("tab4")
    starred_total = 0
    for n, k in goldens.FAMILIES:
        recs = classify_cusps(n, k)
        computed = sorted(str(c.jperp_root) for c in recs)
        expected = sorted(goldens.CUSP_TABLE[(n, k)])
        r.add(f"({n},{k})-cusps", " ".join(expected), computed, expected, "paper")
        starred_total += sum(1 for c in recs if c.jperp_root.starred)
    r.add("starred-count", "three index-3 extensions", starred_total, 3, "paper")
    # orthogonal complement identities inside E8 and E6, on simple roots
    for sub, amb, expected, nodes in goldens.COMPLEMENT_FACTS:
        n = int(amb[1:])
        span = IntMatrix.identity(n).submatrix([i - 1 for i in nodes])
        got = complement_root_type(Sublattice(root_lattice(amb[0], n), span))
        r.add(
            f"complement-{sub}-in-{amb}",
            f"({sub})-perp in {amb} = {expected}",
            str(got),
            expected,
            "paper",
        )
    return r


def _embedding_descriptors(fam, kind) -> List:
    recs = enumerate_embeddings(family_data(*fam).p_factors, kind)
    return sorted(tuple(sorted(rec.rows())) for rec in recs)


def suite_expl() -> Report:
    """Per-embedding complements against the explicit reference tables."""
    r = Report("expl")
    for fam in goldens.FAMILIES:
        for kind in NIEMEIER_GLUE:
            computed = _embedding_descriptors(fam, kind)
            expected = sorted(goldens.EMBEDDING_TABLES[(fam, kind)])
            r.add(
                f"({fam[0]},{fam[1]})-{kind}-rows",
                f"embeddings of P({fam[0]},{fam[1]}) into {kind}",
                computed,
                expected,
                "paper",
            )
            r.add(
                f"({fam[0]},{fam[1]})-{kind}-count",
                "distinct embedding classes",
                len(computed),
                len(expected),
                "paper",
            )
    return r


def suite_eis() -> Report:
    """Order-3 structure of the rank-4 hyperbolic pairs and the period actions."""
    r = Report("eis")
    uu = rho3_u_u()
    uu3 = rho3_u_u3()
    blocks = (("U+U", uu), ("U+U(3)", uu3))
    estar = {name: is_estar(rl) for name, rl in blocks}
    for name, rl in blocks:
        r.add(f"{name}-order", "order 3 isometry", rl.order, 3, "paper")
        r.add(
            f"{name}-fixed-free",
            "no nonzero fixed vector",
            fixed_sublattice(rl).rank,
            0,
            "paper",
        )
        r.add(f"{name}-disc-trivial", "trivial discriminant action", estar[name], True, "paper")
    _, h = eisenstein_gram(uu)
    norm = hermitian_normal_2x2(h)
    r.add(
        "U+U-hermitian",
        "[[0,theta],[conj theta,0]]",
        [[str(x) for x in row] for row in norm],
        [["0", str(THETA)], [str(THETA.conj()), "0"]],
        "paper",
    )
    _, h3 = eisenstein_gram(uu3)
    norm3 = hermitian_normal_2x2(h3)
    r.add(
        "U+U(3)-hermitian",
        "[[0,3],[3,0]]",
        [[str(x) for x in row] for row in norm3],
        [["0", "3"], ["3", "0"]],
        "paper",
    )
    _, ha = eisenstein_gram(fpf_order3("A", 2))
    r.add("A2-hermitian", "[[3]]", [[str(x) for x in row] for row in ha], [["3"]], "derived")
    r33 = RhoLattice(rescale(uu.lattice, 3), uu.matrix)
    r.add(
        "U(3)+U(3)-not-estar",
        "induced action nontrivial on the discriminant",
        is_estar(r33),
        False,
        "paper",
    )
    # trivial discriminant action forces 3-elementarity; family_data
    # raises unless the action on T(n,k) is trivial on the discriminant
    pairs = [(name, rl) for name, rl in blocks if estar[name]]
    pairs += [(f"T({n},{k})", family_data(n, k).rho_t) for n, k in goldens.FAMILIES]
    for name, rl in pairs:
        r.add(
            f"{name}-3-elementary",
            "trivial disc action implies 3-elementary",
            is_p_elementary(rl.lattice, 3),
            True,
            "paper",
        )
    return r


def _add_order4(r: Report, id: str, cid: str) -> None:
    """Record check ``cid`` of the order-4 family under ``id``."""
    anchor, expected = goldens.ORDER4_TABLE[cid]
    r.add(id, anchor, dict(order4_suite())[cid], expected, "paper")


def suite_order4() -> Report:
    """The lattice checks of the order-4 family."""
    r = Report("order4")
    for cid, _ in order4_suite():
        _add_order4(r, cid, cid)
    return r


def suite_tschirnhausen() -> Report:
    """Primitive Picard types of the six triple-cover component rows."""
    r = Report("tschirnhausen")
    for (row, expected) in goldens.COMPONENT_TABLE:
        c = build_component(ComponentSpec(*row))
        _, rtype = primitive_picard(c)
        r.add(
            f"component-m{row[0]}-{row[1]}",
            f"primitive part {expected}",
            str(rtype),
            expected,
            "paper",
        )
    return r


def suite_glue() -> Report:
    """Two-component gluings: shape of the glued lattice, root types of the
    primitive parts against the cusp table, and root splitting."""
    r = Report("glue")
    for fam, pairings in goldens.GLUE_PAIRINGS.items():
        seen = set()
        for s0, s1, expected, starred in pairings:
            c0 = build_component(ComponentSpec(*s0))
            c1 = build_component(ComponentSpec(*s1))
            k = glue_lambda(c0, c1)
            pid = f"({fam[0]},{fam[1]})-{expected}" + ("*" if starred else "")
            lat = k.lattice
            r.add(
                f"{pid}-shape",
                "even unimodular of rank 18",
                (lat.rank, lat.det(), lat.is_even),
                (18, -1, True),  # signature (1,17) makes the determinant -1
                "paper",
            )
            rtype = root_type_with_star(k.prim.lattice())
            r.add(f"{pid}-root-type", expected, str(rtype.with_star(False)), expected, "paper")
            r.add(
                f"{pid}-star-index",
                "index of the root span",
                3 if rtype.starred else 1,
                3 if starred else 1,
                "paper",
            )
            r.add(
                f"{pid}-root-split",
                "finite index, roots split over components",
                root_split_check(k, c0, c1),
                (True, goldens.GLUE_SPLIT_INDEX[starred]),
                "paper",
            )
            seen.add(str(rtype))
        r.add(
            f"({fam[0]},{fam[1]})-cusp-set",
            " ".join(sorted(goldens.CUSP_TABLE[fam])),
            sorted(seen),
            sorted(goldens.CUSP_TABLE[fam]),
            "paper",
        )
    return r


def suite_semifan() -> Report:
    """Semifan sublattices for every tabulated boundary case."""
    r = Report("semifan")
    for fam, entries in goldens.SEMIFAN_TABLE.items():
        recs = {str(c.jperp_root): c for c in classify_cusps(*fam)}
        for cusp, rank, slot_index in entries:
            rec = semifan(fam[0], fam[1], cusp)
            pid = f"({fam[0]},{fam[1]})-{cusp}"
            r.add(f"{pid}-rank", f"semifan rank {rank}", rec.fj_rank, rank, "paper")
            r.add(
                f"{pid}-primitive",
                "index of the A2-slot span in its saturation",
                rec.slot_index,
                slot_index,
                "paper",
            )
            r.add(
                f"{pid}-invariant",
                "preserved by the order-3 action",
                rec.rho_invariant,
                True,
                "paper",
            )
            sat = cusp_quotient_lattice(recs[cusp].witnesses[0])
            r.add(
                f"{pid}-model-fingerprint",
                "quotient model matches the embedded complement",
                quotient_model_fingerprint(rec.model),
                quotient_model_fingerprint(sat),
                "derived",
            )
    _add_order4(r, "order4-semifan", "semifan-summand")
    return r


def suite_direct() -> Report:
    """The cusp table from its definition: for each listed witness e, the
    quotient J-perp/J of the invariant isotropic plane J = sat(e, rho e),
    its root type with star against the witness's cusp row, and the
    action rho induces on it; each family's types against tab4's."""
    r = Report("direct")
    for fam, witnesses in goldens.DIRECT_WITNESSES.items():
        rho_t = family_data(*fam).rho_t
        seen = []
        for cusp, e in witnesses.items():
            rtype, rho_q = cusp_of_plane(rho_t, isotropic_plane(rho_t, e))
            pid = f"({fam[0]},{fam[1]})-{cusp}"
            r.add(f"{pid}-root-type", f"J-perp/J = {cusp}", str(rtype), cusp, "paper")
            r.add(
                f"{pid}-action",
                "descended rho: order 3, fixed rank 0, E*",
                (rho_q.order, fixed_sublattice(rho_q).rank, is_estar(rho_q)),
                (3, 0, True),
                "derived",
            )
            seen.append(str(rtype))
        r.add(
            f"({fam[0]},{fam[1]})-tab4-set",
            "the Niemeier route's cusp types",
            sorted(seen),
            sorted(str(c.jperp_root) for c in classify_cusps(*fam)),
            "derived",
        )
    return r


SUITES: Dict[str, Callable[[], Report]] = dict(zip(goldens.SUITE_ORDER, (
    suite_tab3, suite_tab4, suite_expl, suite_eis,
    suite_order4, suite_tschirnhausen, suite_glue, suite_semifan, suite_direct,
), strict=True))


def run_suites(name: str) -> List[Report]:
    if name == "all":
        return [_run(n) for n in SUITES]
    if name not in SUITES:
        raise KeyError(name)
    return [_run(name)]


def _run(name: str) -> Report:
    """The suite's report, or one ``error`` item naming the k3lat error it
    raised and, if any, the innermost k3lat function below this one that
    raised it, so that the suites after it still run."""
    try:
        return SUITES[name]()
    except (LatticeError, ExactLAError) as e:
        where = ""
        for frame, _ in walk_tb(e.__traceback__.tb_next):
            module = frame.f_globals.get("__name__", "")
            if module.startswith("k3lat."):
                where = f" (in {module[6:]}.{frame.f_code.co_name})"
        error = Item("error", "suite raised", "error", f"{type(e).__name__}: {e}{where}", "no error", "trivial")
        return Report(name, [error])
