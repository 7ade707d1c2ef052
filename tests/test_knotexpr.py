"""Expression language: parsing, normal form, rendering, Alexander polynomials."""

import pytest
from hypothesis import given, settings

from defslice.knotexpr import (
    Atom,
    Cable,
    CableSignError,
    Mirror,
    MAX_GENUS,
    ParseError,
    SizeLimitError,
    Sum,
    UNKNOT,
    WHITEHEAD_TREFOIL,
    alexander,
    check_positive_cables,
    flip,
    normalize,
    parse,
    render,
    topologically_slice_certified,
    torus_atom,
)
from defslice.certificates import AtomCertificate, default_db
from defslice.laurent import LaurentPoly
from defslice.signatures import sigma

from oracles import alexander_torus_division
from strategies import expressions_any_cable

WH = Atom(WHITEHEAD_TREFOIL)


def _is_normal(e):
    """The conditions of normal form, read off the tree itself."""
    if isinstance(e, Mirror):
        return not isinstance(e.child, (Mirror, Sum)) and _is_normal(e.child)
    if isinstance(e, Sum):
        return all(not isinstance(p, Sum) and _is_normal(p) for p in e.parts)
    if isinstance(e, Cable):
        collapses = e.companion == UNKNOT and e.q >= 0
        return e.p > 1 and not collapses and _is_normal(e.companion)
    return True


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
        e = parse("cable(3,-2,T(2,3))")
        assert e == Cable(3, -2, Atom("T(2,3)"))


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

    def test_sum_flattening(self):
        a, b, c = Atom("T(2,3)"), Atom("T(2,5)"), WH
        e = Sum((Sum((a, b)), c))
        assert normalize(e) == Sum((a, b, c))

    @settings(max_examples=200, deadline=None)
    @given(expressions_any_cable())
    def test_idempotent(self, e):
        n = normalize(e)
        assert normalize(n) == n

    @settings(max_examples=200, deadline=None)
    @given(expressions_any_cable())
    def test_flip_of_normal_form(self, e):
        n = normalize(e)
        f = flip(n)
        assert _is_normal(n) and _is_normal(f)
        assert flip(f) == n
        try:
            check_positive_cables(n)
        except CableSignError:
            return
        assert sigma(f).jumps == tuple((x, -d) for x, d in sigma(n).jumps)

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
