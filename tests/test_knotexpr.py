"""Expression language: parsing, normal form, rendering, Alexander polynomials."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defslice import knotexpr
from defslice.knotexpr import (
    Atom,
    Cable,
    KnotExpr,
    Mirror,
    MAX_GENUS,
    MAX_SUMMANDS,
    ParseError,
    SizeLimitError,
    Sum,
    UNKNOT,
    WHITEHEAD_TREFOIL,
    _size,
    alexander,
    check_size,
    flip,
    normalize,
    parse,
    render,
    topologically_slice_certified,
    torus_atom,
)
from defslice.certificates import AtomCertificate, default_db
from defslice.cli import _json_value, family_jk, family_kkl
from defslice.laurent import LaurentPoly
from defslice.signatures import sigma

from oracles import alexander_torus_division, family_kn, size_by_walk
from strategies import expressions_any_cable, expressions_over_normal_parts
from workload_inputs import workload_reports

WH = Atom(WHITEHEAD_TREFOIL)


def _is_normal(e):
    """The conditions of normal form, read off the tree itself."""
    if isinstance(e, Mirror):
        return not isinstance(e.child, (Mirror, Sum)) and e.child != UNKNOT and _is_normal(e.child)
    if isinstance(e, Sum):
        return all(not isinstance(p, Sum) and _is_normal(p) for p in e.parts)
    if isinstance(e, Cable):
        return e.p > 1 and e.q >= 1 and e.companion != UNKNOT and _is_normal(e.companion)
    return True


def _cables(e):
    """Every cable node of the expression."""
    if isinstance(e, Mirror):
        return _cables(e.child)
    if isinstance(e, Sum):
        return [c for p in e.parts for c in _cables(p)]
    if isinstance(e, Cable):
        return [e, *_cables(e.companion)]
    return []


class TestParse:
    def test_single_atom(self):
        assert parse("T(2,3)") == Atom("T(2,3)")

    def test_unknot(self):
        assert parse("O") == UNKNOT

    def test_k1_construction(self):
        # (#^3 Wh(T(2,3))) # ((Wh(T(2,3)))_{4,1})*
        e = parse("(3*Wh(T(2,3))) # cable(4,1,Wh(T(2,3)))*")
        assert e == Sum((WH, WH, WH, Mirror(Cable(4, 1, WH))))

    def test_cable_gcd_error(self):
        with pytest.raises(ParseError, match="gcd"):
            parse("cable(2,4,T(2,3))")

    def test_cable_p_error(self):
        with pytest.raises(ParseError, match="p >= 1"):
            parse("cable(0,1,T(2,3))")

    def test_cable_p_limit(self):
        # an atom without a genus counts 0, so only p bounds the Wu step
        db = default_db().with_atom(AtomCertificate(name="Y"))
        assert parse(f"cable({MAX_GENUS},1,Y)", db) == Cable(MAX_GENUS, 1, Atom("Y"))
        for p in (MAX_GENUS + 1, 10**400):
            with pytest.raises(SizeLimitError, match=f"cable with p={p}, above the limit {MAX_GENUS}"):
                parse(f"cable({p},1,Y)", db)

    def test_unknown_atom(self):
        with pytest.raises(ParseError, match="unknown atom"):
            parse("Mystery")

    def test_unknown_whitehead_companion(self):
        with pytest.raises(ParseError, match="unknown atom"):
            parse("Wh(T(2,5))")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("T(2,3) # # T(2,5)")
        assert exc.value.position is not None

    def test_bad_torus_params(self):
        with pytest.raises(ParseError):
            parse("T(2,1)")
        with pytest.raises(ParseError):
            parse("T(2,4)")

    def test_multiplicity(self):
        assert parse("2*T(2,3)") == Sum((Atom("T(2,3)"), Atom("T(2,3)")))
        assert parse("1*T(2,3)") == Atom("T(2,3)")
        with pytest.raises(ParseError, match="multiplicity"):
            parse("0*T(2,3)")

    def test_long_postfix_mirror_run(self):
        assert parse("T(2,3)" + "*" * 3000) == Atom("T(2,3)")
        assert parse("T(2,3)" + "*" * 3001) == Mirror(Atom("T(2,3)"))

    def test_mirror_forms_agree(self):
        assert parse("mirror(T(2,3))") == parse("T(2,3)*")

    def test_whitespace_insensitive(self):
        assert parse(" cable( 4 , 1 , Wh( T(2,3) ) ) * ") == Mirror(Cable(4, 1, WH))

    def test_negative_cable_q_parses(self):
        # (K_{p,q})* = (K*)_{p,-q}: the mirror of the positive cable of K*
        t = Atom("T(2,3)")
        assert parse("cable(3,-2,T(2,3))") == Mirror(Cable(3, 2, Mirror(t)))
        assert parse("cable(3,-2,T(2,3)*)") == Mirror(Cable(3, 2, t))
        assert parse("cable(2,-1,T(2,3) # T(2,5))") == Mirror(
            Cable(2, 1, Sum((Mirror(t), Mirror(Atom("T(2,5)")))))
        )


class TestNormalize:
    def test_double_mirror(self):
        assert normalize(Mirror(Mirror(Atom("T(2,3)")))) == Atom("T(2,3)")

    def test_mirror_distributes_over_sum(self):
        a, b = Atom("T(2,3)"), Atom("T(2,5)")
        assert normalize(Mirror(Sum((a, b)))) == Sum((Mirror(a), Mirror(b)))

    def test_cable_p1(self):
        assert normalize(Cable(1, 5, Atom("T(2,3)"))) == Atom("T(2,3)")

    def test_cable_of_unknot(self):
        assert normalize(Cable(2, 3, UNKNOT)) == torus_atom(2, 3)
        assert normalize(Cable(3, 1, UNKNOT)) == UNKNOT
        # the unknot is its own mirror
        assert normalize(Cable(2, -3, UNKNOT)) == Mirror(torus_atom(2, 3))
        assert normalize(Cable(3, -1, UNKNOT)) == UNKNOT
        assert normalize(Mirror(UNKNOT)) == UNKNOT

    def test_sum_flattening(self):
        a, b, c = Atom("T(2,3)"), Atom("T(2,5)"), WH
        e = Sum((Sum((a, b)), c))
        assert normalize(e) == Sum((a, b, c))

    @settings(max_examples=200, deadline=None)
    @given(expressions_any_cable())
    def test_idempotent(self, e):
        n = normalize(e)
        assert normalize(n) == n

    @settings(max_examples=300, deadline=None)
    @given(expressions_over_normal_parts())
    def test_normal_flag(self, e):
        # _n is the conditions of normal form, and normalize returns
        # exactly the expressions that meet them unchanged
        assert e._n == _is_normal(e)
        assert (normalize(e) is e) == (normalize(e) == e) == e._n
        assert normalize(e)._n

    def test_not_an_expression(self):
        for x in ("T(2,3)", None, (Atom("T(2,3)"),)):
            with pytest.raises(TypeError, match="not a knot expression"):
                normalize(x)

    @settings(max_examples=200, deadline=None)
    @given(expressions_any_cable())
    def test_flip_of_normal_form(self, e):
        n = normalize(e)
        f = flip(n)
        assert _is_normal(n) and _is_normal(f)
        assert flip(f) == n
        assert sigma(f).jumps == tuple((x, -d) for x, d in sigma(n).jumps)

    @settings(max_examples=200, deadline=None)
    @given(expressions_any_cable())
    def test_cables_positive(self, e):
        # the only cables normal form holds have p >= 2 and q >= 1
        assert all(c.p >= 2 and c.q >= 1 for c in _cables(normalize(e)))

    @settings(max_examples=200, deadline=None)
    @given(expressions_any_cable())
    def test_roundtrip(self, e):
        n = normalize(e)
        assert parse(render(n)) == n


class TestAlexander:
    def test_trefoil(self):
        assert alexander(Atom("T(2,3)")) == LaurentPoly({-1: 1, 0: -1, 1: 1})

    def test_torus_against_division_oracle(self):
        for p, q in [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]:
            assert alexander(torus_atom(p, q)) == alexander_torus_division(p, q)

    def test_whitehead_is_one(self):
        assert alexander(WH) == LaurentPoly.one()

    def test_kn_family_is_one(self):
        for n in range(1, 6):
            e = parse(f"(3*Wh(T(2,3))) # cable({n + 3},1,Wh(T(2,3)))*")
            assert alexander(e) == LaurentPoly.one()

    @settings(max_examples=150, deadline=None)
    @given(expressions_any_cable(max_leaves=4))
    def test_mirror_invariance(self, e):
        assert alexander(Mirror(e)) == alexander(e)

    @settings(max_examples=150, deadline=None)
    @given(expressions_any_cable(max_leaves=3), expressions_any_cable(max_leaves=3))
    def test_multiplicative_under_sum(self, a, b):
        assert alexander(Sum((a, b))) == alexander(a) * alexander(b)

    def test_symmetric_and_one_at_one(self):
        for text in ["T(3,4)", "cable(2,3,T(2,3))", "T(2,3) # T(2,5)*"]:
            poly = alexander(parse(text))
            assert poly.is_symmetric()
            assert poly.eval_at_one() == 1


class TestTopologicallySlice:
    def test_kn_certified(self):
        e = parse("(3*Wh(T(2,3))) # cable(4,1,Wh(T(2,3)))*")
        assert topologically_slice_certified(e)

    def test_unknot(self):
        assert topologically_slice_certified(UNKNOT)

    def test_trefoil_not_certified(self):
        assert not topologically_slice_certified(Atom("T(2,3)"))


class _CountingPart:
    """A hashable part that counts the calls of its __hash__."""

    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


def _rebuild(e, change=None):
    """e built again node by node with the raw constructors, and the number
    of its atoms and cables; with change = i, the i-th of them in preorder
    gets another name, or another q with the same gcd."""
    seen = 0

    def build(x):
        nonlocal seen
        if isinstance(x, Mirror):
            return Mirror(build(x.child))
        if isinstance(x, Sum):
            return Sum(tuple(build(p) for p in x.parts))
        hit = seen == change
        seen += 1
        if isinstance(x, Atom):
            return Atom(x.name + "'" if hit else x.name)
        return Cable(x.p, x.q + x.p if hit else x.q, build(x.companion))

    return build(e), seen


class TestHashOnce:
    """An expression stores its field tuple and that tuple's hash when it
    is built, in slots _k and _h that are no fields, and == compares the
    stored tuples."""

    def test_identity_is_defined_once(self):
        for cls in KnotExpr:
            assert "__eq__" not in vars(cls), cls
            assert "__hash__" not in vars(cls), cls

    @settings(max_examples=200, deadline=None)
    @given(expressions_any_cable(max_leaves=8))
    def test_hash_is_the_field_tuple_hash(self, e):
        for k in (e, normalize(e)):
            fields = tuple(getattr(k, name) for name in k.__slots__)
            assert hash(k) == hash(fields)
            for slot in ("_k", "_h"):
                assert slot not in repr(k)
                assert slot not in _json_value(k)
            assert list(_json_value(k)) == list(k.__slots__)

    @settings(max_examples=200, deadline=None)
    @given(expressions_any_cable(max_leaves=8))
    def test_rebuilt_copy_is_equal(self, e):
        copy, _ = _rebuild(e)
        assert copy is not e
        assert copy == e and not copy != e
        assert hash(copy) == hash(e)

    @settings(max_examples=200, deadline=None)
    @given(expressions_any_cable(max_leaves=8), st.integers(min_value=0, max_value=63))
    def test_copy_with_one_leaf_changed_differs(self, e, i):
        _, leaves = _rebuild(e)
        changed, _ = _rebuild(e, i % leaves)
        assert changed != e and not changed == e
        assert changed not in {e: 1}

    def test_parts_are_hashed_once_when_built(self):
        for build in (Mirror, lambda c: Sum((c, c)), lambda c: Cable(2, 3, c)):
            part = _CountingPart()
            e = build(part)
            built = part.calls
            assert built >= 1
            memo = {e: 1}
            for _ in range(5):
                hash(e)
                assert memo[e] == 1
                assert memo[build(part)] == 1
            # each lookup by a fresh equal expression hashed the part when
            # that expression was built, and never again on lookup
            assert part.calls == 6 * built
            # two equal trees built apart compare by their stored tuples
            a, b = Sum((Mirror(build(part)), e)), Sum((Mirror(build(part)), e))
            calls = part.calls
            assert a is not b and a == b and hash(a) == hash(b)
            assert part.calls == calls

    def test_unhashable_part_refused_when_built(self):
        for build in (Mirror, lambda c: Sum((c, c)), lambda c: Cable(2, 3, c)):
            with pytest.raises(TypeError, match="unhashable"):
                build([])


class TestSizeAgainstWalk:
    """_size reads each distinct summand once, times its copies; the walk
    over every part is the reference, for the count and for the first
    error raised."""

    def test_workload_and_suite_expressions(self):
        db = default_db()
        exprs = workload_reports(("cables", "cli-mix", "wide-sums"))
        exprs += [family_kn(n) for n in range(1, 21)]
        exprs += [family_kkl(k, l) for k in range(1, 11) for l in range(1, 11)]
        exprs += [family_jk(k) for k in range(1, 21)]
        assert sum(isinstance(e, Sum) and len(set(e.parts)) < len(e.parts) for e in exprs) >= 140
        for e in exprs:
            assert _size(e, db) == size_by_walk(e, db)

    @pytest.mark.parametrize(
        "parts",
        [
            # the first cable past the limit in the walk is p=600, after a repeat
            [torus_atom(2, 3), Cable(600, 1, torus_atom(2, 5)), torus_atom(2, 3),
             Cable(513, 1, torus_atom(2, 3)), Cable(600, 1, torus_atom(2, 5))],
            [torus_atom(2, 3)] * 40 + [Mirror(torus_atom(2, 5))] * 20 + [torus_atom(2, 3)] * 5,
            [torus_atom(2, 3)] * 10 + [torus_atom(2, 101)] * 11,
        ],
        ids=["cable-p", "summands", "genus"],
    )
    def test_same_refusal(self, monkeypatch, parts):
        e = Sum(tuple(parts))
        with pytest.raises(SizeLimitError) as fold:
            check_size(e)
        monkeypatch.setattr(knotexpr, "_size", size_by_walk)
        with pytest.raises(SizeLimitError) as walk:
            check_size(e)
        assert str(fold.value) == str(walk.value)
        if len(parts) > MAX_SUMMANDS:
            assert str(fold.value) == f"expression has more than {MAX_SUMMANDS} summands"
