"""Certificate database, registry loading, and the substitution axiom."""

import json
import re

import pytest
from hypothesis import given, settings

from defslice.certificates import (
    AtomCertificate,
    CertificateError,
    UnknownAtomError,
    builtin,
    default_db,
    load_registry,
    nu_equiv_reduce,
    resolve_db,
)
from defslice.hf_invariants import Evaluator
from defslice.knotexpr import Atom, Mirror, Sum, WHITEHEAD_TREFOIL, alexander, normalize, parse, torus_atom
from defslice.laurent import LaurentPoly
from defslice.signatures import sigma

from strategies import expressions

WH = Atom(WHITEHEAD_TREFOIL)


class TestOneRule:
    """A db is a CertificateDB or None; a session passed where a db is
    taken raises instead of being read for its database."""

    def test_db_or_none(self):
        db = default_db().with_atom(AtomCertificate(name="Y"))
        assert resolve_db(db) is db
        assert resolve_db(None) is default_db()
        assert Evaluator(db).db is db

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sigma(parse("T(2,3) # T(2,5)"), Evaluator()),
            lambda: alexander(parse("T(2,3) # T(2,5)"), Evaluator()),
            lambda: parse("T(2,3)", Evaluator()),
            lambda: Evaluator(Evaluator()),
        ],
        ids=["sigma", "alexander", "parse", "Evaluator"],
    )
    def test_session_is_not_a_db(self, call):
        with pytest.raises(TypeError, match="not a CertificateDB"):
            call()


class TestBuiltin:
    def test_unknot(self):
        c = builtin("O")
        assert c.tau == 0 and c.genus == 0 and c.v0 == 0 and c.v0_mirror == 0

    def test_whitehead(self):
        c = builtin(WHITEHEAD_TREFOIL)
        assert c.tau == 1 and c.genus == 1
        assert not c.lspace
        assert c.alexander == LaurentPoly.one()
        assert c.v0 == 1 and c.v0_mirror is None

    def test_torus_t27(self):
        c = builtin("T(2,7)")
        assert c.lspace
        assert c.tau == c.genus == 3
        assert c.v0 == 2  # torsion coefficient, consistent with ceil(3/2)

    def test_lspace_consistency(self):
        for name in ["T(2,3)", "T(2,9)", "T(3,4)", "T(3,5)", "T(4,5)"]:
            c = builtin(name)
            assert c.tau == c.genus == c.alexander.degree

    def test_unknown(self):
        with pytest.raises(UnknownAtomError):
            builtin("Nope")
        with pytest.raises(UnknownAtomError):
            builtin("T(1,5)")
        with pytest.raises(ValueError):
            builtin("T(2,4)")


class TestValidation:
    def test_negative_v0(self):
        with pytest.raises(CertificateError):
            AtomCertificate(name="X", v0=-1)

    def test_lspace_needs_alexander(self):
        with pytest.raises(CertificateError):
            AtomCertificate(name="X", tau=1, genus=1, lspace=True)

    def test_asymmetric_alexander_rejected(self):
        with pytest.raises(CertificateError):
            AtomCertificate(name="X", alexander=LaurentPoly({0: 1, 1: 1}))


class TestRegistry:
    def test_load_and_use(self, tmp_path):
        reg = tmp_path / "atoms.json"
        reg.write_text(
            json.dumps(
                {
                    "atoms": [
                        {
                            "name": "Gadget",
                            "tau": 2,
                            "genus": 2,
                            "alexander": [[-1, 1], [0, -1], [1, 1]],
                            "v0": 1,
                            "v0_mirror": 0,
                        }
                    ]
                }
            )
        )
        db = load_registry(reg)
        e = parse("Gadget # T(2,3)", db)
        s = Evaluator(db).v_seq(e)
        assert s.at(0).lo >= 0
        # built-ins still resolve
        assert db.get("T(2,3)").lspace

    def test_unknown_keys_ignored(self, tmp_path):
        # tau = genus is read from tau and genus, so a declared flag is
        # ignored like any other unknown key, even when it contradicts them
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": [{"name": "K", "tau": 1, "genus": 2, "tau_equals_genus": True}]}))
        db = load_registry(reg)
        assert db.get("K") == AtomCertificate(name="K", tau=1, genus=2)
        assert not Evaluator(db).tau(parse("cable(2,1,K)", db)).is_exact

    @pytest.mark.parametrize(
        "record, key",
        [
            ({"name": "T(2,3)", "tau": -1, "genus": 1, "v0_mirror": 1}, "tau"),
            # v0 = 0 is a value given, not one left out
            ({"name": "T(2,3)", "v0": 0}, "v0"),
            ({"name": "T(2,5)", "genus": 3}, "genus"),
            ({"name": "T(3,4)", "alexander": [[0, 1]]}, "alexander"),
            # the built-in torus atoms carry no v0_mirror
            ({"name": "T(2,5)", "v0_mirror": 0}, "v0_mirror"),
            ({"name": "Wh(T(2,3))", "tau": 5, "genus": 5}, "tau"),
            ({"name": "Wh(T(2,3))", "alexander": [[-1, 1], [0, -1], [1, 1]]}, "alexander"),
            ({"name": "Wh(T(2,3))", "v0": 0}, "v0"),
            ({"name": "Wh(T(2,3))", "v0_mirror": 0}, "v0_mirror"),
            # an L-space record of the Whitehead double differs in tau
            ({"name": "Wh(T(2,3))", "lspace": True, "tau": 0, "genus": 0, "alexander": [[0, 1]]}, "tau"),
        ],
    )
    def test_builtin_contradiction_refused(self, tmp_path, record, key):
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": [record]}))
        with pytest.raises(CertificateError, match=rf"^registry record '{re.escape(record['name'])}': {key} ") as exc:
            load_registry(reg)
        assert "\n" not in str(exc.value)

    def test_builtin_partial_record_loads(self, tmp_path):
        # a record of a built-in atom may leave any data out
        records = [
            {"name": "T(2,3)", "genus": 1},
            {"name": "T(2,5)", "tau": 2, "lspace": False, "v0": 1},
            {"name": "T(3,4)", "tau": 3, "genus": 3, "lspace": True,
             "alexander": [[-3, 1], [-2, -1], [0, 1], [2, -1], [3, 1]]},
            {"name": "Wh(T(2,3))", "tau": 1, "v0": 1, "alexander": [[0, 1]]},
        ]
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": records}))
        db = load_registry(reg)
        assert db.get("T(2,3)") == AtomCertificate(name="T(2,3)", genus=1)
        t34 = builtin("T(3,4)")
        assert db.get("T(3,4)") == AtomCertificate(
            "T(3,4)", t34.tau, t34.genus, t34.lspace, t34.alexander, None, t34.v0_mirror
        )
        assert db.get("Wh(T(2,3))").genus is None

    def test_bad_record(self, tmp_path):
        reg = tmp_path / "atoms.json"
        reg.write_text(json.dumps({"atoms": [{"name": "Bad", "v0": -2}]}))
        with pytest.raises(CertificateError):
            load_registry(reg)

    def test_unnormalizable_alexander(self, tmp_path):
        reg = tmp_path / "atoms.json"
        reg.write_text(
            json.dumps({"atoms": [{"name": "Bad", "alexander": [[0, 1], [1, 1]]}]})
        )
        with pytest.raises(CertificateError):
            load_registry(reg)


class TestReduce:
    def test_three_whiteheads(self):
        e = normalize(Sum((WH, WH, WH)))
        assert nu_equiv_reduce(e) == torus_atom(2, 7)

    def test_single_whitehead(self):
        assert nu_equiv_reduce(WH) == torus_atom(2, 3)

    def test_no_whitehead_unchanged(self):
        e = Atom("T(2,5)")
        assert nu_equiv_reduce(e) is e

    def test_mixed_sum(self):
        e = normalize(Sum((WH, Atom("T(2,5)"), WH)))
        r = nu_equiv_reduce(e)
        assert r == Sum((torus_atom(2, 5), Atom("T(2,5)")))

    def test_mirrored_whitehead_not_reduced(self):
        e = normalize(Sum((Mirror(WH), Mirror(WH))))
        assert nu_equiv_reduce(e) == e

    def test_closed_form_v0(self):
        # V_0 of the k-fold Whitehead sum equals ceil(k/2) through T(2,2k+1)
        for k in range(1, 51):
            reduced = nu_equiv_reduce(normalize(Sum(tuple([WH] * k))) if k > 1 else WH)
            assert reduced == torus_atom(2, 2 * k + 1)
            v0 = Evaluator().v_seq(reduced).at(0)
            assert v0.is_exact and v0.value == (k + 1) // 2

    @settings(max_examples=200, deadline=None)
    @given(expressions())
    def test_non_whitehead_multiset_preserved(self, e):
        e = normalize(e)
        r = nu_equiv_reduce(e)
        parts_before = list(e.parts if isinstance(e, Sum) else (e,))
        parts_after = list(r.parts if isinstance(r, Sum) else (r,))
        non_wh = [p for p in parts_before if p != WH]
        k = len(parts_before) - len(non_wh)
        if k == 0:
            assert r == e
        else:
            expected = [torus_atom(2, 2 * k + 1)] + non_wh
            assert sorted(map(repr, parts_after)) == sorted(map(repr, expected))

