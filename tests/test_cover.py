from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from serrekit import cover as cover_module
from serrekit import ideals
from serrekit.algebra import (LocElem, MatrixL, at_zero, default_names,
                              dehomogenize, parse_poly, transport)
from serrekit.cli import bundle_doc
from serrekit.cover import (AmbientSpec, Cover, LineBundleData, SectionData,
                            extend_off_Y, load_sections, load_subscheme,
                            read_ambient)
from serrekit.errors import (CompatibilityFailure, Inconclusive, NotCodimTwo,
                             NotGenerating, PreconditionViolated,
                             ShapeViolation)
from serrekit.ideals import (in_ideal, is_unit_ideal, lift_pair,
                             member_with_lift, regular_hyperplane,
                             regular_pair, unit_certificate)
from serrekit.serre import build_bundle
from serrekit.verify import run_all


def _poly(ctx, text):
    """A polynomial in the variables of the context ctx."""
    return parse_poly(text, ctx.var_names())


def _p3():
    return Cover(AmbientSpec(3))


def _p2():
    return Cover(AmbientSpec(2))


def test_standard_cover_charts():
    assert _p3().charts == (0, 1, 2, 3)
    assert Cover(AmbientSpec(1)).charts == (0, 1)
    for kind in ("weird", "affine"):
        with pytest.raises(ShapeViolation,
                           match=f"unknown ambient kind '{kind}'"):
            read_ambient({"ambient": {"kind": kind, "dim": 2}})


def test_cover_builds_each_context_once():
    cover = _p3()
    ctx = cover.ctx((2, 0))
    assert cover.ctx([0, 2]) is ctx
    assert cover.chart_ctx(1) is cover.ctx((1,))
    assert Cover(cover.ambient).ctx((0, 2)) is not ctx


def test_line_bundle_cocycle():
    cover = _p3()
    lb = LineBundleData(cover.ambient, 2)
    for i, j, k in itertools.permutations((0, 2, 3), 3):
        ctx = cover.ctx((i, j, k))
        assert lb.h(i, j, ctx) * lb.h(j, k, ctx) == lb.h(i, k, ctx)
        assert lb.h(i, j, ctx) * lb.h(j, i, ctx) == LocElem.one(ctx)
    ctx = cover.ctx((1, 2))
    assert lb.h(1, 1, ctx) == LocElem.one(ctx)


def test_load_subscheme_global_ci_line_in_p3():
    cover = _p3()
    sub = load_subscheme(cover, {"mode": "global_ci", "F": "x0", "G": "x1"})
    assert sub.meets_Y == {0: False, 1: False, 2: True, 3: True}
    f2, g2 = sub.pairs[2]
    ctx2 = cover.chart_ctx(2)
    assert f2 == LocElem(ctx2, _poly(ctx2, "x0"))
    assert g2 == LocElem(ctx2, _poly(ctx2, "x1"))
    # off-Y charts carry the canonical pair
    f0, g0 = sub.pairs[0]
    assert f0 == LocElem.one(cover.chart_ctx(0)) and g0.is_zero()


def test_load_subscheme_rejects_non_regular():
    cover = _p3()
    with pytest.raises(NotCodimTwo):
        load_subscheme(cover, {"mode": "global_ci", "F": "x0*x1", "G": "x0*x2"})


def test_load_subscheme_rejects_dim1():
    cover = Cover(AmbientSpec(1))
    with pytest.raises(NotCodimTwo):
        load_subscheme(cover, {"mode": "global_ci", "F": "x0", "G": "x1"})


def test_load_subscheme_charts_mode_consistency():
    cover = _p2()
    # the point [0:0:1] described consistently on charts 0 and 2 is fine ...
    doc = {"mode": "charts", "pairs": {"2": ["x0", "x1"]}}
    sub = load_subscheme(cover, doc)
    assert sub.meets_Y == {0: False, 1: False, 2: True}
    # ... but incompatible pairs on overlapping charts are rejected
    bad = {"mode": "charts",
           "pairs": {"0": ["x1", "x2"], "1": ["x0 - 1", "x2"]}}
    with pytest.raises(PreconditionViolated):
        load_subscheme(cover, bad)


def test_extend_off_Y_gluing_identity():
    cover = _p3()
    lb = LineBundleData(cover.ambient, 2)
    sub = load_subscheme(cover, {"mode": "global_ci", "F": "x0", "G": "x1"})
    # what `load_sections` gives for {"2": ["1"], "3": ["1"]}
    secs = SectionData({i: (LocElem.one(cover.chart_ctx(i)),)
                        for i in cover.charts},
                       dict.fromkeys(cover.charts, 1),
                       {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    As = extend_off_Y(sub, secs, lb)
    # one matrix per sorted overlap; no reversed A_ji is built
    assert set(As) == set(itertools.combinations(cover.charts, 2))
    for i, j in itertools.combinations(cover.charts, 2):
        ctx = cover.ctx((i, j))
        fi, gi = sub.pair_on(i, ctx)
        fj, gj = sub.pair_on(j, ctx)
        assert As[(i, j)].matvec((fj, gj)) == (fi, gi)
    # overlap emptiness: U_2 cap U_3 still meets the line x0 = x1 = 0
    assert sub.empty_overlap[(2, 3)] is False
    assert sub.empty_overlap[(0, 1)] is True
    assert sub.empty_overlap[(0, 2)] is True


def test_load_sections_line_in_p3():
    cover = _p3()
    sub = load_subscheme(cover, {"mode": "global_ci", "F": "x0", "G": "x1"})
    secs = load_sections(cover, sub, {"2": ["1"], "3": ["1"]}, rank=2)
    assert secs.t == {0: 1, 1: 1, 2: 1, 3: 1}
    assert secs.tier[2] == 1 and secs.tier[3] == 1
    # off-Y charts got the canonical tuple
    assert secs.sections[0][0] == LocElem.one(cover.chart_ctx(0))


def test_load_sections_rejects_non_generating():
    cover = _p2()
    sub = load_subscheme(cover, {"mode": "charts", "pairs": {"2": ["x0", "x1"]}})
    with pytest.raises(NotGenerating):
        load_sections(cover, sub, {"2": ["x0"]}, rank=2)


def test_load_sections_tier4_registers_unit():
    cover = _p2()
    sub = load_subscheme(cover, {"mode": "charts", "pairs": {"2": ["x0", "x1"]}})
    secs = load_sections(cover, sub, {"2": ["1 + x0"]}, rank=2)
    assert secs.t[2] == 1 and secs.tier[2] == 4
    ctx2 = sub.cover.chart_ctx(2)
    assert "s2" in ctx2.unit_keys()
    # with the unit registered, the pivot is invertible on the shrunk chart
    assert is_unit_ideal([secs.sections[2][0]])


def test_load_sections_monomial_pivot_must_be_nonvanishing_on_Y():
    # Y = {x0 = x1 = 0} is the point [0:0:1]; the monomial x0 vanishes there,
    # so registering it as a unit would shrink chart 2 off Y.  The pivot is
    # the second component, nonvanishing on Y, and its form is registered.
    cover = _p2()
    sub = load_subscheme(cover, {"mode": "global_ci", "F": "x0", "G": "x1"})
    secs = load_sections(cover, sub, {"2": ["x0", "1 + x1"]}, rank=3)
    assert secs.t[2] == 2 and secs.tier[2] == 4
    ctx2 = sub.cover.chart_ctx(2)
    assert ctx2.unit_keys() == ("s2",)
    assert ctx2.sunit(2).form == parse_poly("x1 + x2",
                                            sub.cover.hom_names())
    f, g = sub.pairs[2]
    assert is_unit_ideal([f, g, secs.sections[2][1]])
    assert not is_unit_ideal([f, g, secs.sections[2][0]])


def test_load_sections_schema_errors():
    cover = _p2()
    sub = load_subscheme(cover, {"mode": "charts", "pairs": {"2": ["x0", "x1"]}})
    with pytest.raises(ShapeViolation):
        load_sections(cover, sub, {"2": ["1", "x0"]}, rank=2)  # too many
    with pytest.raises(ShapeViolation):
        load_sections(cover, sub, {"0": ["1"], "2": ["1"]}, rank=2)  # off-Y
    with pytest.raises(ShapeViolation):
        load_sections(cover, sub, {}, rank=2)  # missing Y-chart data


def test_load_sections_compatibility_failure():
    # The point [1:1:1] is visible on all three charts of P^2.  With twist 0
    # the sections must agree with det A times each other modulo the point's
    # ideal on every overlap; constants 1 and 2 cannot (evaluating the
    # residue at the point gives 1 - 2*det A(point) != 0 for det = +-1).
    # The sections load; `extend_off_Y` rejects them on the first overlap.
    cover = _p2()
    lb = LineBundleData(cover.ambient, 0)
    sub = load_subscheme(cover, _THREE_POINT_DOC)
    secs = load_sections(cover, sub, _THREE_POINT_SECTIONS, rank=2)
    with pytest.raises(CompatibilityFailure, match=r"overlap \(0, 1\)"):
        extend_off_Y(sub, secs, lb)


# -- the reversed compatibility check ----------------------------------------

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"

_THREE_POINT_DOC = {"mode": "charts", "pairs": {
    "0": ["x1 - 1", "x2 - 1"],
    "1": ["x0 - 1", "x2 - 1"],
    "2": ["x0 - 1", "x1 - 1"],
}}
_THREE_POINT_SECTIONS = {"0": ["1"], "1": ["2"], "2": ["1"]}


def _reversed_A(sub, i, j):
    """A_ji for a sorted overlap i < j, with (f_j; g_j) = A_ji (f_i; g_i),
    built the way `extend_off_Y` builds A_ij: from unit certificates where
    the overlap misses Y, by `lift_pair` where it meets it."""
    ctx = sub.cover.ctx((i, j))
    fi, gi = sub.pair_on(i, ctx)
    fj, gj = sub.pair_on(j, ctx)
    if sub.empty_overlap[(i, j)]:
        ui, vi = unit_certificate(fi, gi)
        uj, vj = unit_certificate(fj, gj)
        a = (MatrixL(ctx, [[fj, -vj], [gj, uj]])
             @ MatrixL(ctx, [[ui, vi], [-gi, fi]]))
    else:
        top, bot = lift_pair(fj, fi, gi), lift_pair(gj, fi, gi)
        a = MatrixL(ctx, [list(top), list(bot)])
    assert a.matvec((fi, gi)) == (fj, gj)
    return a


def _compatible(s, t, factor, f, g):
    """s = factor * t modulo (f, g)."""
    residue = s - factor * t
    return residue.is_zero() or in_ideal(residue, [f, g])


def _check_reversed_is_implied(sub, lb, sections, rank, As, pairs=None):
    """Reference for the lemma in `extend_off_Y`: run the section
    compatibility check on both orders (i, j) and (j, i) of every sorted
    overlap in `pairs` (default: all), with A_ij from As and A_ji from
    `_reversed_A`.
    Asserts det A_ij det A_ji = 1 modulo (f_i, g_i) and that the two orders
    agree, component by component.  Returns the sorted verdicts {(i, j, m):
    compatible}."""
    verdicts = {}
    if pairs is None:
        pairs = itertools.combinations(sub.cover.charts, 2)
    for i, j in pairs:
        ctx = sub.cover.ctx((i, j))
        fi, gi = sub.pair_on(i, ctx)
        fj, gj = sub.pair_on(j, ctx)
        A_ij, A_ji = As[(i, j)], _reversed_A(sub, i, j)
        unit = A_ij.det() * A_ji.det() - LocElem.one(ctx)
        assert unit.is_zero() or in_ideal(unit, [fi, gi]), (i, j)
        forward = A_ij.det() * lb.h(j, i, ctx)     # det A_ij / h_ij
        backward = A_ji.det() * lb.h(i, j, ctx)    # det A_ji / h_ji
        for m in range(rank - 1):
            si = transport(sections[i][m], ctx)
            sj = transport(sections[j][m], ctx)
            verdict = _compatible(si, sj, forward, fi, gi)
            assert _compatible(sj, si, backward, fj, gj) == verdict, (i, j, m)
            verdicts[(i, j, m)] = verdict
    return verdicts


@pytest.mark.parametrize("path", sorted(INPUTS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_reversed_compatibility_check_is_implied(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    cover = Cover(read_ambient(doc))
    lb = LineBundleData(cover.ambient, doc["line_bundle"]["twist"])
    sub = load_subscheme(cover, doc["subscheme"])
    secs = load_sections(cover, sub, doc.get("sections"), doc["rank"])
    As = extend_off_Y(sub, secs, lb)
    verdicts = _check_reversed_is_implied(sub, lb, secs.sections, secs.rank,
                                          As)
    assert verdicts and all(verdicts.values())


def test_reversed_compatibility_check_fails_with_the_sorted_one():
    cover = _p2()
    lb = LineBundleData(cover.ambient, 0)
    sub = load_subscheme(cover, _THREE_POINT_DOC)
    secs = load_sections(cover, sub, _THREE_POINT_SECTIONS, rank=2)
    with pytest.raises(CompatibilityFailure):
        extend_off_Y(sub, secs, lb)
    # sub keeps the cover of the build; with no section component there is
    # nothing to check, and `extend_off_Y` returns every A_ij
    assert sub.cover is cover
    As = extend_off_Y(sub, secs._replace(
        sections={c: () for c in cover.charts}, rank=1), lb)
    sections = {int(c): (LocElem.const(cover.chart_ctx(int(c)), int(v[0])),)
                for c, v in _THREE_POINT_SECTIONS.items()}
    verdicts = _check_reversed_is_implied(sub, lb, sections, 2, As, [(0, 1)])
    assert not verdicts[(0, 1, 0)]


def test_fixing_a_section_unit_keeps_the_other_contexts():
    """`skew_unit` fixes a unit on chart 0 only: the overlaps without chart
    0 keep the contexts, and the bases, of `load_subscheme`."""
    doc = json.loads((INPUTS / "skew_unit.json").read_text(encoding="utf-8"))
    cover = Cover(read_ambient(doc))
    lb = LineBundleData(cover.ambient, doc["line_bundle"]["twist"])
    sub = load_subscheme(cover, doc["subscheme"])
    ctx12, ctx01 = cover.ctx((1, 2)), cover.ctx((0, 1))
    bases = {k for k in ctx12._memo if k != "axes"}
    assert bases and ctx01.sunits == ()
    load_sections(cover, sub, doc["sections"], doc["rank"])
    assert sub.cover is cover and [u.chart for u in cover.sunits] == [0]
    assert cover.ctx((1, 2)) is ctx12 and bases <= set(ctx12._memo)
    new01 = cover.ctx((0, 1))
    assert new01 is not ctx01 and new01.unit_keys() == ("c1", "s0")
    for ctx in cover._ctxs.values():
        assert all(u.chart in ctx.indices for u in ctx.sunits), ctx.indices


# -- overlaps decided without a saturated basis -------------------------------
# The reference decides every overlap with `is_unit_ideal` and lifts every
# row of A_ij with `lift_pair`: no codimension premise and no diagonal rows.

def reference_unit_certificate(f, g):
    """(u, v) with u*f + v*g == 1, as a lift of 1 over the saturated basis
    of (f, g)."""
    return tuple(member_with_lift(LocElem.one(f.ctx), [f, g]))


def reference_overlap(sub, i, j):
    """(empty, A_ij) of a sorted overlap, with a saturated basis on every
    overlap."""
    ctx = sub.cover.ctx((i, j))
    fi, gi = sub.pair_on(i, ctx)
    fj, gj = sub.pair_on(j, ctx)
    empty = is_unit_ideal([fi, gi])
    if empty:
        ui, vi = reference_unit_certificate(fi, gi)
        uj, vj = reference_unit_certificate(fj, gj)
        a = (MatrixL(ctx, [[fi, -vi], [gi, ui]])
             @ MatrixL(ctx, [[uj, vj], [-gj, fj]]))
    else:
        a = MatrixL(ctx, [list(lift_pair(fi, fj, gj)),
                          list(lift_pair(gi, fj, gj))])
    return empty, a


def _printed(a):
    """What a document prints of a matrix, entry by entry."""
    return [[(repr(e), e.num.terms, e.den) for e in row] for row in a.rows]


def _regular(cover, subscheme):
    """The charts j whose hyperplane x_j = 0 is regular for a global
    complete intersection; none in `charts` mode."""
    if subscheme["mode"] != "global_ci":
        return set()
    F, G = (parse_poly(subscheme[tag], cover.hom_names()) for tag in "FG")
    return {j for j in cover.charts if regular_hyperplane(F, G, j)}


def _loaded(doc):
    """The subscheme data of an input document after `load_sections`, the
    A_ij of `extend_off_Y`, and its regular hyperplanes."""
    cover = Cover(read_ambient(doc))
    lb = LineBundleData(cover.ambient, doc["line_bundle"]["twist"])
    sub = load_subscheme(cover, doc["subscheme"])
    secs = load_sections(cover, sub, doc.get("sections"), doc["rank"])
    return sub, extend_off_Y(sub, secs, lb), _regular(cover, doc["subscheme"])


def _check_overlaps(sub, As, regular, seen):
    """Asserts that every overlap's empty bit and A_ij are the reference's,
    byte for byte, and that the premise (chart i meets Y and the hyperplane
    x_j = 0 is regular) says "meets" only where the reference does; counts
    in `seen` how each overlap was decided and how many rows of A_ij were
    diagonal."""
    for (i, j), a in As.items():
        ctx = a.ctx
        empty, ref = reference_overlap(sub, i, j)
        premise = sub.meets_Y[i] and j in regular
        assert not (premise and empty), (i, j)
        assert sub.empty_overlap[(i, j)] == empty, (i, j)
        assert _printed(a) == _printed(ref), (i, j)
        seen["premise" if premise else "empty" if empty else "full"] += 1
        if not empty:
            fi, gi = sub.pair_on(i, ctx)
            fj, gj = sub.pair_on(j, ctx)
            seen["diagonal"] += (fi.num == fj.num) + (gi.num == gj.num)


def test_overlaps_match_the_reference_on_the_corpus():
    """The reference decides each overlap on the cover with the section
    units, `load_subscheme` on the unit-free one: the section-unit lemma
    says they agree, and it matters where an overlap meeting Y carries a
    section unit."""
    seen, with_units = Counter(), set()
    for path in sorted(INPUTS.glob("*.json")):
        sub, As, regular = _loaded(
            json.loads(path.read_text(encoding="utf-8")))
        _check_overlaps(sub, As, regular, seen)
        with_units |= {(path.stem, key, a.ctx.unit_keys())
                       for key, a in As.items()
                       if not sub.empty_overlap[key]
                       and len(a.ctx.unit_keys()) > 1}
    # 58 overlaps decided by the premise, 50 empty, 4 meeting Y by the full
    # computation, 124 diagonal rows
    assert seen["premise"] >= 58 and seen["empty"] >= 50
    assert seen["full"] >= 4 and seen["diagonal"] >= 120
    assert ("skew_unit", (0, 1), ("c1", "s0")) in with_units


def _random_form(rng, names, degree):
    """A form of the given degree: two to four monomials with small
    coefficients."""
    monomials = list(itertools.combinations_with_replacement(names, degree))
    count = rng.randint(2, min(4, len(monomials)))
    return " + ".join(f"{rng.choice([1, -1, 2, -3])}*{'*'.join(m)}"
                      for m in rng.sample(monomials, count))


def test_overlaps_match_the_reference_on_random_complete_intersections():
    """Fifteen seeded global complete intersections on P^2 .. P^4 with
    constant sections and twist deg F + deg G; those that are no regular
    pair on some chart are skipped."""
    rng = random.Random(7)
    seen, loaded = Counter(), 0
    for dim in (2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4):
        names = [f"x{k}" for k in range(dim + 1)]
        degrees = rng.choice([(1, 2), (2, 1), (2, 2), (1, 3)])
        cover = Cover(AmbientSpec(dim))
        doc = {"mode": "global_ci", **{tag: _random_form(rng, names, d)
                                       for tag, d in zip("FG", degrees)}}
        try:
            sub = load_subscheme(cover, doc)
        except NotCodimTwo:
            continue
        lb = LineBundleData(cover.ambient, sum(degrees))
        secs = load_sections(cover, sub, {i: ["1"] for i in cover.charts
                                          if sub.meets_Y[i]}, 2)
        _check_overlaps(sub, extend_off_Y(sub, secs, lb),
                        _regular(cover, doc), seen)
        loaded += 1
    # all 15 load: 84 overlaps decided by the premise, 3 empty, 8 meeting Y
    # by the full computation, 180 diagonal rows
    assert loaded >= 12
    assert min(seen["premise"], seen["empty"], seen["full"]) >= 3
    assert seen["diagonal"] >= 150


def test_curved_builds_make_no_saturated_basis(monkeypatch):
    """The six `curved` builds of the benchmark ran 40 Rabinowitsch bases,
    one per overlap, before the codimension premise."""
    made = []
    real = ideals._rabinowitsch

    def counted(ctx):
        made.append(ctx)
        return real(ctx)
    monkeypatch.setattr(ideals, "_rabinowitsch", counted)
    for name in ("ci22_p3", "ci23_p3", "ci33_dense_p3", "ci23_p4",
                 "ci33_p3_r3", "ci44_p3"):
        doc = json.loads((INPUTS / f"{name}.json").read_text(encoding="utf-8"))
        assert run_all(build_bundle(doc)).ok
    assert made == []


def test_curved_builds_make_one_basis_per_hyperplane(monkeypatch):
    """The six `curved` builds made 65 bases before the hyperplane lemma:
    25 for the charts of `load_subscheme` and 40 for the premises of
    `extend_off_Y`.  Every hyperplane of them is regular, so one basis per
    hyperplane decides all of it."""
    made = []
    real = ideals.buchberger

    def counted(gens, arity, key=None):
        made.append(arity)
        return real(gens, arity, key)
    monkeypatch.setattr(ideals, "buchberger", counted)
    per_build = []
    for name in ("ci22_p3", "ci23_p3", "ci33_dense_p3", "ci23_p4",
                 "ci33_p3_r3", "ci44_p3"):
        doc = json.loads((INPUTS / f"{name}.json").read_text(encoding="utf-8"))
        before = len(made)
        assert run_all(build_bundle(doc)).ok
        per_build.append(len(made) - before)
    assert per_build == [4, 4, 4, 5, 4, 4]
    # each basis lives on a hyperplane: n variables on P^n, no T
    assert made == [3] * 12 + [4] * 5 + [3] * 8


def test_charts_builds_decide_overlaps_with_the_consistency_bases(
        monkeypatch):
    """A `charts` input decides each overlap by `is_unit_ideal` in
    `load_subscheme`, on the saturated bases that the consistency check
    has just built there, so no overlap makes a basis of its own: 18, 11
    and 24 bases where a codimension premise per overlap made 22, 14 and
    31.  `skew_unit` fixes a unit on chart 0 only, so the overlaps (1, 2)
    and (1, 3) keep their contexts and `unit_certificate` rebuilds none of
    their 4 bases (28 when a unit replaced the whole cover)."""
    made = []
    real = ideals.buchberger

    def counted(gens, arity, key=None):
        made.append(arity)
        return real(gens, arity, key)
    monkeypatch.setattr(ideals, "buchberger", counted)
    per_build = []
    for name in ("skew_lines_p3", "two_points_p2_r3", "skew_unit"):
        doc = json.loads((INPUTS / f"{name}.json").read_text(encoding="utf-8"))
        before = len(made)
        if name == "skew_unit":
            # the bounded ansatz at degree 4 cannot correct it
            with pytest.raises(Inconclusive):
                build_bundle(doc, lift_order="gf", max_degree=4)
        else:
            assert run_all(build_bundle(doc)).ok
        per_build.append(len(made) - before)
    assert per_build == [18, 11, 24]


# -- the hyperplane lemma against today's decisions --------------------------
# The reference decides each chart with `is_unit_ideal` and then
# `regular_pair`, and each overlap (i, j) by a codimension premise read from
# chart i's pair with x_j := 0.

_NOT_REGULAR = ("chart {}: (f, g) is not a regular pair, so it does not cut "
                "out a codimension-two local complete intersection")


def reference_charts(cover, F, G):
    """(meets_Y, None) as `load_subscheme` decides it chart by chart, or
    (None, the message of its NotCodimTwo)."""
    meets = {}
    for i in cover.charts:
        ctx = cover.chart_ctx(i)
        f, g = (LocElem(ctx, dehomogenize(e, i)) for e in (F, G))
        if is_unit_ideal([f, g]):
            meets[i] = False
        elif regular_pair(f, g):
            meets[i] = True
        else:
            return None, _NOT_REGULAR.format(i)
    if not any(meets.values()):
        return None, "the subscheme is empty on every chart"
    return meets, None


def reference_premise(cover, F, G, i, j):
    """Chart i's pair with x_j := 0 is a regular pair or the unit ideal.
    p and q, its numerators, do not involve x_j, so on the chart of
    dimension n, dim V(p, q) = 1 + dim V(f_i, g_i, x_j): if (p, q) is a
    regular pair or the unit ideal, no component of V(f_i, g_i), of
    dimension n - 2 where chart i meets Y, lies in V(x_j), and Y meets
    U_i ∩ U_j."""
    ctx = cover.chart_ctx(i)
    pos = ctx.axes().index(j)
    p, q = (LocElem(ctx, at_zero(dehomogenize(e, i), pos)) for e in (F, G))
    return regular_pair(p, q)


def _random_ci(rng, dim):
    """Forms F of degree 1-3 and G of degree 1-2; about one pair in five
    shares a linear factor."""
    names = default_names(dim + 1)
    F = _random_form(rng, names, rng.randint(1, 3))
    G = _random_form(rng, names, rng.randint(1, 2))
    if rng.random() < 0.2:
        common = _random_form(rng, names, 1)
        F, G = f"({common})*({F})", f"({common})*({G})"
    return F, G


def test_regular_hyperplanes_agree_with_todays_decisions():
    """Forty seeded global complete intersections on P^2 .. P^4: every claim
    the lemma makes for a regular hyperplane H_j holds by the reference
    (chart j meets Y, every chart is a regular pair or the unit ideal, and
    the premise holds on each overlap (i, j) whose chart i meets Y), and an
    input with no regular hyperplane loads, or fails, as the reference
    does."""
    rng = random.Random(11)
    claims = Counter()
    for _ in range(40):
        dim = rng.choice((2, 3, 4))
        F_text, G_text = _random_ci(rng, dim)
        names = default_names(dim + 1)
        F, G = parse_poly(F_text, names), parse_poly(G_text, names)
        ref_cover = Cover(AmbientSpec(dim))
        meets, message = reference_charts(ref_cover, F, G)
        regular = {j for j in ref_cover.charts
                   if regular_hyperplane(F, G, j)}
        cover = Cover(AmbientSpec(dim))
        doc = {"mode": "global_ci", "F": F_text, "G": G_text}
        if message is not None:
            assert not regular, (F_text, G_text)
            with pytest.raises(NotCodimTwo) as exc:
                load_subscheme(cover, doc)
            assert str(exc.value) == message
            claims["failed"] += 1
            continue
        sub = load_subscheme(cover, doc)
        assert sub.meets_Y == meets
        claims["loaded"] += 1
        for j in regular:
            assert meets[j]
            claims["chart"] += len(meets) + 1
            for i in ref_cover.charts:
                if i == j or not meets[i]:
                    continue
                assert reference_premise(ref_cover, F, G, i, j), (i, j)
                claims["premise"] += 1
                # `extend_off_Y` asks it on sorted overlaps only
                if i < j:
                    assert not sub.empty_overlap[(i, j)], (i, j)
    # 29 load, each with a regular hyperplane, and 11 fail with none:
    # 417 chart claims and 245 premise claims
    assert claims["failed"] >= 5 and claims["loaded"] >= 25
    assert claims["chart"] >= 350 and claims["premise"] >= 200


def test_empty_overlap_is_decided_by_the_full_computation(monkeypatch):
    """Each overlap of `two_points_p2_r3` misses both points; a `charts`
    input has no regular hyperplane, so `is_unit_ideal` decides each
    overlap whose chart i meets Y, and the bundle prints it empty."""
    decided = {}
    real = cover_module.is_unit_ideal

    def recorded(gens):
        out = real(gens)
        if len(gens[0].ctx.indices) == 2:
            decided[gens[0].ctx.indices] = out
        return out
    monkeypatch.setattr(cover_module, "is_unit_ideal", recorded)
    doc = json.loads((INPUTS / "two_points_p2_r3.json").read_text(
        encoding="utf-8"))
    bundle = build_bundle(doc)
    overlaps = bundle_doc(bundle, run_all(bundle))["overlaps"]
    assert decided == {(0, 1): True, (0, 2): True, (1, 2): True}
    assert {key: ov["empty"] for key, ov in overlaps.items()} == {
        "0,1": True, "0,2": True, "1,2": True}
