"""Per-atom invariant certificates and the V_0-preserving substitution axiom.

Certificates are axioms, not computations: each generator knot carries the
invariant data we take as given (tau, genus, L-space flag, Alexander
polynomial, V_0 values).  Torus knot certificates are derived on demand;
user atoms are loaded from a JSON registry.  The database is immutable
after construction, so concurrent reads are safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import accumulate

from .knotexpr import (
    Atom,
    KnotExpr,
    SizeLimitError,
    Sum,
    UNKNOT,
    WHITEHEAD_TREFOIL,
    normalize,
    parse,
    torus_atom,
    torus_params,
)
from .laurent import LaurentPoly, symmetric_normalized, torsion_prefix, torus_alexander


class CertificateError(ValueError):
    pass


class UnknownAtomError(CertificateError):
    pass


class CertificateGapError(CertificateError):
    """An evaluation needed certificate data the atom does not carry."""


@dataclass(frozen=True)
class AtomCertificate:
    name: str
    tau: int | None = None
    genus: int | None = None
    lspace: bool = False
    alexander: LaurentPoly | None = None
    v0: int | None = None
    v0_mirror: int | None = None

    def __post_init__(self):
        if self.genus is not None and self.genus < 0:
            raise CertificateError(f"{self.name}: genus must be >= 0")
        if self.v0 is not None and self.v0 < 0:
            raise CertificateError(f"{self.name}: v0 must be >= 0")
        if self.v0_mirror is not None and self.v0_mirror < 0:
            raise CertificateError(f"{self.name}: v0_mirror must be >= 0")
        if self.genus is not None:
            # V_k = 0 from k = genus on and V_k <= V_{k+1} + 1, so V_0 <= genus;
            # |tau| <= nu+ of the knot or its mirror <= genus
            for key in ("v0", "v0_mirror"):
                value = getattr(self, key)
                if value is not None and value > self.genus:
                    raise CertificateError(f"{self.name}: {key} must be <= genus")
            if self.tau is not None and abs(self.tau) > self.genus:
                raise CertificateError(f"{self.name}: |tau| must be <= genus")
        # tau <= nu+ = 0 when V_0 = 0, and -tau <= 0 when V_0 of the mirror is 0
        if self.tau is not None and (
            (self.v0 == 0 and self.tau > 0) or (self.v0_mirror == 0 and self.tau < 0)
        ):
            raise CertificateError(
                f"{self.name}: v0 = 0 needs tau <= 0 and v0_mirror = 0 needs tau >= 0"
            )
        if self.alexander is not None:
            if not self.alexander.is_symmetric() or self.alexander.eval_at_one() != 1:
                raise CertificateError(
                    f"{self.name}: Alexander polynomial must be symmetric with value 1 at t=1"
                )
        if self.lspace:
            # L-space knots: V_k data comes from the Alexander polynomial and
            # tau = genus = its top exponent.
            if self.alexander is None:
                raise CertificateError(f"{self.name}: L-space atom needs an Alexander polynomial")
            deg = self.alexander.degree or 0
            if self.tau != deg or self.genus != deg:
                raise CertificateError(
                    f"{self.name}: L-space atom needs tau = genus = {deg}"
                )
            # the Alexander polynomial of an L-space knot (Ozsvath-Szabo):
            # the nonzero coefficients are +-1 and alternate in sign from +1
            # at the top, i.e. every suffix sum a_d + ... + a_{j+1} with
            # j >= 0 is 0 or 1
            suffix = accumulate(self.alexander.coeff(k) for k in range(deg, 0, -1))
            if any(s not in (0, 1) for s in suffix):
                raise CertificateError(
                    f"{self.name}: L-space atom needs an Alexander polynomial whose "
                    "nonzero coefficients are +-1 and alternate in sign from +1 at the top"
                )


@cache
def builtin(name: str) -> AtomCertificate:
    """Certificate for a built-in atom: O, T(p,q) with coprime p,q >= 2,
    or the positively-clasped untwisted Whitehead double of the trefoil.

    A pure function of the name whose certificates are frozen, so each is
    built and validated once per process and shared by every later lookup;
    an unknown or invalid name is not cached and raises on every call.
    """
    if name == "O":
        return AtomCertificate(
            name="O",
            tau=0,
            genus=0,
            lspace=True,
            alexander=LaurentPoly.one(),
            v0=0,
            v0_mirror=0,
        )
    if name == WHITEHEAD_TREFOIL:
        return AtomCertificate(
            name=name,
            tau=1,
            genus=1,
            lspace=False,
            alexander=LaurentPoly.one(),
            v0=1,
        )
    tq = torus_params(name)
    if tq is not None:
        p, q = tq
        if p < 2 or q < 2:
            raise UnknownAtomError(f"torus atom requires p,q >= 2: {name}")
        alex = torus_alexander(p, q)  # validates coprimality
        g = (p - 1) * (q - 1) // 2
        return AtomCertificate(
            name=name,
            tau=g,
            genus=g,
            lspace=True,
            alexander=alex,
            v0=torsion_prefix(alex, 1)[0],
        )
    raise UnknownAtomError(f"unknown atom name: {name}")


class CertificateDB:
    """Immutable mapping atom name -> certificate, over the built-ins."""

    def __init__(self, atoms=()):
        self._atoms = {c.name: c for c in atoms}

    def get(self, name: str) -> AtomCertificate:
        if name in self._atoms:
            return self._atoms[name]
        return builtin(name)

    def knows(self, name: str) -> bool:
        try:
            self.get(name)
            return True
        except UnknownAtomError:
            return False

    def with_atom(self, cert: AtomCertificate) -> "CertificateDB":
        """New database with one certificate added or replaced."""
        atoms = dict(self._atoms)
        atoms[cert.name] = cert
        return CertificateDB(atoms.values())


_DEFAULT = CertificateDB()


def default_db() -> CertificateDB:
    return _DEFAULT


def resolve_db(db) -> CertificateDB:
    """Accept None, a CertificateDB, or anything carrying a .db attribute."""
    if db is None:
        return _DEFAULT
    if isinstance(db, CertificateDB):
        return db
    inner = getattr(db, "db", None)
    if isinstance(inner, CertificateDB):
        return inner
    raise TypeError(f"cannot resolve certificate database from {db!r}")


def _poly_from_pairs(pairs):
    pairs = [(e, a) for e, a in pairs]
    if any(type(v) is not int for pair in pairs for v in pair):
        raise ValueError("exponents and coefficients must be integers")
    return symmetric_normalized(LaurentPoly(pairs))


def _field(rec, key, kind, default=None):
    """rec[key], which must have type kind exactly (a bool is no int)."""
    value = rec.get(key)
    if value is None:
        return default
    if type(value) is not kind:
        want = "an integer" if kind is int else "true or false"
        raise CertificateError(f"{rec['name']}: {key} must be {want}, got {value!r}")
    return value


def load_registry(path) -> CertificateDB:
    """Load user atoms from a JSON registry file.

    Schema: {"atoms": [{"name": str, "tau": int?, "genus": int?,
    "lspace": bool?, "alexander": [[exp, coeff], ...]?, "v0": int?,
    "v0_mirror": int?}, ...]}.  A field that is absent or null is unknown
    (lspace defaults to false); other keys are ignored.

    Records replace any built-in certificate of the same name, so a record
    must be complete on its own; two records of one name are refused.  A
    name must be a string that parse reads back as that one atom, within
    the size limits of knotexpr.check_size.  The unknot O is refused:
    normalize folds a cable of O into O or into a torus knot, which holds
    only for the true unknot.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CertificateError(f"cannot read registry file {path}: {exc.strerror}") from None
    with fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CertificateError(f"registry file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CertificateError(f"registry file {path}: the top level must be an object")
    records = data.get("atoms", [])
    if not isinstance(records, list):
        raise CertificateError(f"registry file {path}: 'atoms' must be a list")
    atoms = {}
    for rec in records:
        if not isinstance(rec, dict):
            raise CertificateError(f"registry record is not an object: {rec!r}")
        if "name" not in rec:
            raise CertificateError(f"registry record without a name: {rec!r}")
        if not isinstance(rec["name"], str):
            raise CertificateError(f"registry record name must be a string: {rec['name']!r}")
        if rec["name"] == UNKNOT.name:
            raise CertificateError(f"registry file {path}: the unknot 'O' cannot be replaced")
        if rec["name"] in atoms:
            raise CertificateError(f"registry file {path}: two records are named {rec['name']!r}")
        alex = None
        if rec.get("alexander") is not None:
            try:
                alex = _poly_from_pairs(rec["alexander"])
            except (TypeError, ValueError) as exc:
                raise CertificateError(f"{rec['name']}: bad Alexander data: {exc}") from None
        atoms[rec["name"]] = AtomCertificate(
            name=rec["name"],
            tau=_field(rec, "tau", int),
            genus=_field(rec, "genus", int),
            lspace=_field(rec, "lspace", bool, False),
            alexander=alex,
            v0=_field(rec, "v0", int),
            v0_mirror=_field(rec, "v0_mirror", int),
        )
    db = CertificateDB(atoms.values())
    for cert in atoms.values():
        try:
            ok = parse(cert.name, db) == Atom(cert.name)
        except SizeLimitError as exc:
            raise SizeLimitError(f"registry record {cert.name!r}: {exc}") from None
        except ValueError:
            ok = False
        if not ok:
            raise CertificateError(f"registry record {cert.name!r}: the name does not parse as one atom")
    return db


def nu_equiv_reduce(e: KnotExpr) -> KnotExpr:
    """Replace the group of Wh(T(2,3)) summands at the root by T(2,2k+1).

    The result is valid ONLY as input to V_0 and nu+ evaluation; tau and
    signatures of the reduced expression are unrelated to the original.
    Non-Whitehead summands are kept untouched, in order.
    """
    return _reduce_normal(normalize(e))


def _reduce_normal(e: KnotExpr) -> KnotExpr:
    """nu_equiv_reduce of an expression that is already normal."""
    wh = Atom(WHITEHEAD_TREFOIL)
    if e == wh:
        return torus_atom(2, 3)
    if not isinstance(e, Sum):
        return e
    k = sum(1 for p in e.parts if p == wh)
    if k == 0:
        return e
    replacement = torus_atom(2, 2 * k + 1)
    parts = []
    placed = False
    for p in e.parts:
        if p == wh:
            if not placed:
                parts.append(replacement)
                placed = True
        else:
            parts.append(p)
    return parts[0] if len(parts) == 1 else Sum(tuple(parts))
