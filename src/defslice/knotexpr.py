"""Symbolic knot expressions: atoms, mirrors, connected sums, cables.

Expression grammar (whitespace-insensitive):

    expr := term ('#' term)*
    term := INT '*' term | atom | 'mirror(' expr ')' | term '*'
          | 'cable(' INT ',' INT ',' expr ')' | '(' expr ')'
    atom := 'O' | 'T(' INT ',' INT ')' | 'Wh(' atom ')' | IDENT

Normal form: no mirror directly above a mirror, a connected sum or the
unknot, sums are flattened, every cable has p >= 2 and q >= 1, and cables
of the unknot collapse to torus atoms.  A cable with q < 0 is the mirror
of a positive one, (K_{p,q})* = (K*)_{p,-q}, so normalize writes
cable(p, q, K) with q < 0 as the mirror of cable(p, -q, K*), and no other
rule needs to know the sign of q.  Expressions are immutable after
construction and safe to share between evaluations.  KnotExpr is the tuple
(Atom, Mirror, Sum, Cable) of the expression classes, so
isinstance(e, KnotExpr) tests for an expression.

parse returns normal form.  Each expression records whether it is normal
(_Expr._n), and normalize returns a normal input itself, so the public
rules of an hf_invariants.Evaluator call normalize on every query and
rebuild nothing that is already normal; its other rules read only normal
input.  flip assumes a normal input, whose summands are not sums, and
returns its mirror in normal form.
"""

from __future__ import annotations

import re
from collections import Counter
from math import gcd

from .laurent import LaurentPoly, product, torus_alexander


class ParseError(ValueError):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SizeLimitError(ValueError):
    """An input past one of the size limits: MAX_SUMMANDS summands, genus
    bound MAX_GENUS or a cable with p above MAX_GENUS for an expression, or
    a numeric argument's limit."""


class _Record:
    """Base of the package's value types.  A record's fields are the names
    in its class's __slots__, in order: the constructor takes them in that
    order or by name, its repr names them as Name(field=value, ...), and ==
    compares them as a tuple, only between records of the same class.  A
    record is immutable, as a frozen dataclass is: assignment and deletion
    raise AttributeError, and its hash is that of its field tuple, so one
    that holds a list or a dict raises TypeError on hash.

    A class whose constructor checks or derives something defines its own
    __init__ and sets its fields with object.__setattr__.  The expressions,
    which the engine hashes and compares on every memo lookup, store their
    field tuple and its hash once, when they are built, and compare the
    stored tuples (_Expr)."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            # bind as a dataclass does: each field once, none unknown or left out
            rest = names[len(args):]
            if len(args) > len(names) or kwargs.keys() != set(rest):
                raise TypeError(
                    f"{type(self).__qualname__}() takes its fields ({', '.join(names)}) once "
                    f"each, got {len(args)} positional arguments and keywords {sorted(kwargs)}"
                )
            args += tuple(kwargs[name] for name in rest)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Expr(_Record):
    """Base of the expression classes.  Each stores, when it is built, its
    field tuple in _k and that tuple's hash in _h, reading its children's
    stored hashes, so a memo lookup reads one slot instead of hashing the
    whole tree, and == compares the stored tuples, only between
    expressions of the same class.  It also stores in _n whether it is
    normal, reading its children's _n, so that normalize returns a normal
    input itself.  _k, _h and _n are in this class's __slots__, not in a
    subclass's, so they are no fields: repr and the JSON form never see
    them.  A part that cannot be hashed raises TypeError when the
    expression is built; one that is not an expression makes the
    expression not normal.

    _n holds exactly at the fixed points of normalize: an Atom; a Mirror of
    an Atom other than O or of a normal Cable; a Sum of normal parts none
    of which is a Sum; a Cable with p >= 2 and q >= 1 of a normal companion
    other than O.  Proof, by induction on the tree: normalize returns only
    expressions that meet these conditions (flip of one meets them too), so
    an input that fails them is no fixed point.  One that meets them is:
    Mirror(c) becomes flip(c), which is Mirror(c) for such a c; a Sum the
    flattened sum of its fixed parts, none of them a Sum, which is itself;
    a Cable Cable(p, q, c), as p >= 2, q >= 1 and c is fixed and not O.
    """

    __slots__ = ("_k", "_h", "_n")

    def _store(self, fields, normal):
        # a subclass's __init__ hands over its checked field values and _n
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_k", fields)
        object.__setattr__(self, "_h", hash(fields))
        object.__setattr__(self, "_n", normal)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._k == other._k
        return NotImplemented

    def __hash__(self):
        return self._h


class Atom(_Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ValueError("atom name must be nonempty")
        self._store((name,), True)


class Mirror(_Expr):
    __slots__ = ("child",)

    def __init__(self, child: KnotExpr):
        self._store((child,), child.__class__ in (Atom, Cable) and _normal_knot(child))


class Sum(_Expr):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        if len(parts) < 2:
            raise ValueError("connected sum needs at least two summands")
        self._store((parts,), all(p.__class__ in _SUMMANDS and p._n for p in parts))


class Cable(_Expr):
    __slots__ = ("p", "q", "companion")

    def __init__(self, p: int, q: int, companion: KnotExpr):
        if p < 1:
            raise ValueError(f"cable requires p >= 1, got p={p}")
        if gcd(p, q) != 1:
            raise ValueError(f"cable requires gcd(p,q)=1, got ({p},{q})")
        self._store((p, q, companion), p >= 2 and q >= 1 and _normal_knot(companion))


KnotExpr = (Atom, Mirror, Sum, Cable)
_SUMMANDS = (Atom, Mirror, Cable)


def _normal_knot(e):
    """Whether e is a normal expression other than the unknot."""
    return e.__class__ in KnotExpr and e._n and not (e.__class__ is Atom and e.name == "O")

UNKNOT = Atom("O")
WHITEHEAD_TREFOIL = "Wh(T(2,3))"

_TORUS_NAME = re.compile(r"^T\((\d+),(\d+)\)$")


def torus_params(name: str):
    """(p, q) for a torus atom name like 'T(2,3)', else None."""
    m = _TORUS_NAME.match(name)
    if not m:
        return None
    return int(m.group(1)), int(m.group(2))


def torus_atom(p: int, q: int) -> Atom:
    return Atom(f"T({p},{q})")


def normalize(e: KnotExpr) -> KnotExpr:
    """Rewrite to normal form; idempotent, knot type unchanged.  A normal
    input (_n) is returned itself."""
    if not isinstance(e, KnotExpr):
        raise TypeError(f"not a knot expression: {e!r}")
    if e._n:
        return e
    if isinstance(e, Mirror):
        return flip(normalize(e.child))
    if isinstance(e, Sum):
        parts = []
        for p in e.parts:
            n = normalize(p)
            parts.extend(n.parts if isinstance(n, Sum) else (n,))
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))
    if e.p == 1:
        return normalize(e.companion)
    # p >= 2 and gcd(p, q) = 1 leave q != 0
    if e.q < 0:
        return flip(normalize(Cable(e.p, -e.q, Mirror(e.companion))))
    c = normalize(e.companion)
    if c == UNKNOT:
        return torus_atom(e.p, e.q) if e.q >= 2 else UNKNOT
    return Cable(e.p, e.q, c)


def flip(e: KnotExpr) -> KnotExpr:
    """Mirror of a normal expression, in normal form; the unknot is its
    own mirror."""
    if e == UNKNOT:
        return e
    if isinstance(e, Mirror):
        return e.child
    if isinstance(e, Sum):
        return Sum(tuple(flip(p) for p in e.parts))
    return Mirror(e)


def mirror(e: KnotExpr) -> KnotExpr:
    return normalize(Mirror(e))


def render(e: KnotExpr) -> str:
    """Textual form; parse(render(e)) == e for normalized expressions."""
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, Mirror):
        inner = render(e.child)
        if isinstance(e.child, (Sum, Mirror)):
            inner = f"({inner})"
        return inner + "*"
    if isinstance(e, Cable):
        return f"cable({e.p},{e.q},{render(e.companion)})"
    if isinstance(e, Sum):
        return " # ".join(
            f"({render(p)})" if isinstance(p, Sum) else render(p) for p in e.parts
        )
    raise TypeError(f"not a knot expression: {e!r}")


# Deepest nesting that parse accepts; parsing, normalizing and evaluating
# recurse a few frames per level, well under the interpreter's limit.
MAX_NESTING = 100

# Most digits of an integer literal, as written, that parse accepts; a
# longer one is a parse error at its position, before int() reads it.  No
# value of more than four digits is within the size limits below, except
# the q of a cable with p = 1, which normalization drops.  600 digits
# convert and print under any per-process int-to-str limit Python allows
# (its floor is 640), as in cli.MAX_AT_DIGITS; without the limit, a literal
# past the default limit of 4300 digits raised a ValueError that names no
# position.
MAX_DIGITS = 600

# Largest expressions that parse accepts: at most MAX_SUMMANDS atoms after
# normalization, a genus bound of at most MAX_GENUS and no cable with
# p above MAX_GENUS.  The V-sequence fold of r summands into a sum of
# genus bound L takes at most about L * (r + sum of the summands' genera)
# <= L * (r + L) steps (about L in all for mirrored torus knots and the
# other summands whose bounds fall by one per step, which it folds as one
# shift, and half the slice updates for a positive T(2, 2g+1), whose
# dominated splits it skips), a torus knot's Alexander polynomial about
# 2g steps and a (p,q)-cable's Wu step about p*q/2, at most
# 2 * MAX_GENUS + 1 within the limits, so the limits bound each of them.
# A sum's Alexander polynomial is one packed-integer product of about 2g
# digits, each wide enough for the L1-norm bound (33 bytes for
# 64*T(2,17)).  `report --json` on the largest accepted input of each shape,
# median of eleven runs from interpreter start (py3.11.7, 2-vCPU VM):
# 64*T(2,3) 0.09 s; 64*T(2,17) (r = 64, g = 512) 0.15 s and its mirror
# 0.16 s; T(2,3) # T(2,5) # ... # T(2,63) (31 distinct summands,
# g = 496) 0.15 s; T(2,1025) 0.12 s; cable(2,1,...) nested 9 deep around
# T(2,3) (g = 512) 0.09 s.  With the limits lifted, 256*T(2,3) took
# 0.10 s, 512*T(2,3) 0.16 s and 64*T(2,63) (g = 1984) 0.64 s, so the
# limits leave room: they were set for a fold of r * L^2 steps, under
# which 64*T(2,17) took 2.1 s.
MAX_SUMMANDS = 64
MAX_GENUS = 512

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>-?\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[#(),*])"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, db):
        self.tokens = tokens
        self.i = 0
        self.db = db
        self.depth = 0
        self.atoms = 0  # atoms in the expression parsed so far

    def count_atoms(self, n):
        """Set the atom count to n, refusing past MAX_SUMMANDS before the
        expression is built."""
        _check_summands(n)
        self.atoms = n

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, None)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.peek()
        if val != value:
            got = repr(val) if val is not None else "end of input"
            raise ParseError(f"expected {value!r}, got {got}", pos)
        self.i += 1
        return pos

    def expect_int(self):
        kind, val, pos = self.peek()
        if kind != "int":
            got = repr(val) if val is not None else "end of input"
            raise ParseError(f"expected integer, got {got}", pos)
        digits = len(val) - val.startswith("-")
        if digits > MAX_DIGITS:
            raise ParseError(
                f"integer literal of {digits} digits, above the limit {MAX_DIGITS}", pos
            )
        self.i += 1
        return int(val), pos

    def nested(self, parse, pos):
        """Run parse one nesting level deeper, refusing past MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", pos)
        e = parse()
        self.depth -= 1
        return e

    def parse_expr(self):
        terms = [self.parse_term()]
        while self.peek()[1] == "#":
            self.next()
            terms.append(self.parse_term())
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self):
        kind, val, pos = self.peek()
        if kind == "int":
            k, kpos = self.expect_int()
            self.expect("*")
            before = self.atoms
            sub = self.nested(self.parse_term, kpos)
            if k < 1:
                raise ParseError(f"multiplicity must be >= 1, got {k}", kpos)
            self.count_atoms(before + k * (self.atoms - before))
            e = sub if k == 1 else Sum(tuple([sub] * k))
        elif val == "(":
            self.next()
            e = self.nested(self.parse_expr, pos)
            self.expect(")")
        elif val == "mirror":
            self.next()
            self.expect("(")
            e = Mirror(self.nested(self.parse_expr, pos))
            self.expect(")")
        elif val == "cable":
            self.next()
            self.expect("(")
            p, ppos = self.expect_int()
            self.expect(",")
            q, _ = self.expect_int()
            self.expect(",")
            companion = self.nested(self.parse_expr, pos)
            self.expect(")")
            try:
                e = Cable(p, q, companion)
            except ValueError as exc:
                raise ParseError(str(exc), ppos) from None
        else:
            e = self.parse_atom()
            self.count_atoms(self.atoms + 1)
        # a double mirror is the knot itself, so a run of '*' nests at most once
        flip = False
        while self.peek()[1] == "*":
            self.next()
            flip = not flip
        return Mirror(e) if flip else e

    def parse_atom(self):
        kind, val, pos = self.peek()
        if kind != "ident":
            got = repr(val) if val is not None else "end of input"
            raise ParseError(f"expected a knot atom, got {got}", pos)
        self.next()
        if val == "O":
            return UNKNOT
        if val == "T" and self.peek()[1] == "(":
            self.next()
            p, ppos = self.expect_int()
            self.expect(",")
            q, qpos = self.expect_int()
            self.expect(")")
            if p < 2 or q < 2:
                raise ParseError(f"torus atom requires p,q >= 2, got ({p},{q})", ppos)
            if gcd(p, q) != 1:
                raise ParseError(f"torus atom requires gcd(p,q)=1, got ({p},{q})", ppos)
            return torus_atom(p, q)
        if val == "Wh" and self.peek()[1] == "(":
            self.next()
            inner = self.nested(self.parse_atom, pos)
            self.expect(")")
            if inner != Atom("T(2,3)"):
                raise ParseError(
                    f"unknown atom name: Wh({inner.name}) "
                    "(only Wh(T(2,3)) is available)",
                    pos,
                )
            return Atom(WHITEHEAD_TREFOIL)
        if self.db.knows(val):
            return Atom(val)
        raise ParseError(f"unknown atom name: {val}", pos)


def parse(text: str, db=None) -> KnotExpr:
    """Parse an expression string and return the normalized expression.

    Raises SizeLimitError for an expression past the limits of check_size.
    """
    from . import certificates

    db = certificates.resolve_db(db)
    tokens = _tokenize(text)
    parser = _Parser(tokens, db)
    e = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind is not None:
        raise ParseError(f"trailing input {val!r}", pos)
    e = normalize(e)
    check_size(e, db)
    return e


def check_size(e, db=None):
    """Raise SizeLimitError if the normalized expression has more than
    MAX_SUMMANDS atoms, a genus bound above MAX_GENUS or a cable with
    p above MAX_GENUS."""
    from . import certificates

    atoms, g = _size(e, certificates.resolve_db(db))
    _check_summands(atoms)
    if g > MAX_GENUS:
        raise SizeLimitError(f"expression has genus bound {g}, above the limit {MAX_GENUS}")


def _check_summands(atoms):
    if atoms > MAX_SUMMANDS:
        raise SizeLimitError(f"expression has more than {MAX_SUMMANDS} summands")


def _size(e, db):
    # (atoms, genus bound) as the limits count them: torus atoms by formula,
    # without building their certificates; any other atom by the largest of
    # its genus, |tau|, v0, v0_mirror and Alexander degree, each a lower
    # bound on its genus (an unknown one counts 0), so no certificate number
    # past the limit reaches the arithmetic
    if isinstance(e, Atom):
        tq = torus_params(e.name)
        if tq is not None:
            return 1, (tq[0] - 1) * (tq[1] - 1) // 2
        c = db.get(e.name)
        deg = 0 if c.alexander is None else c.alexander.degree
        return 1, max(c.genus or 0, abs(c.tau or 0), c.v0 or 0, c.v0_mirror or 0, deg)
    if isinstance(e, Mirror):
        return _size(e.child, db)
    if isinstance(e, Sum):
        # each distinct part is read once, times its copies, in order of
        # first appearance, so the first error raised is the walk's
        atoms = g = 0
        for p, m in Counter(e.parts).items():
            pa, pg = _size(p, db)
            atoms += m * pa
            g += m * pg
        return atoms, g
    # a cable's Wu step takes about p*q/2 steps even when its companion
    # counts genus 0, and p > MAX_GENUS puts the cable of any nontrivial
    # knot past the genus limit, so p is limited on its own
    if e.p > MAX_GENUS:
        raise SizeLimitError(f"expression has a cable with p={e.p}, above the limit {MAX_GENUS}")
    atoms, g = _size(e.companion, db)
    return atoms, e.p * g + (e.p - 1) * (abs(e.q) - 1) // 2


def alexander(e: KnotExpr, db=None) -> LaurentPoly:
    """Alexander polynomial, exact and symmetric-normalized.

    Multiplicative under connected sum, fixed by mirroring, and for cables
    Delta_{K_{p,q}}(t) = Delta_K(t^p) * Delta_{T(p,q)}(t).  Atom values
    come from the certificate database.  A sum's polynomial is one
    laurent.product over its distinct summands, a summand and its mirror
    counted together, each raised to its number of copies; a cable's is
    one dict product.
    """
    from . import certificates

    db = certificates.resolve_db(db)
    return _alex(normalize(e), db)


def _alex(e, db):
    if isinstance(e, Atom):
        cert = db.get(e.name)
        if cert.alexander is None:
            from .certificates import CertificateGapError

            raise CertificateGapError(
                f"atom {e.name!r} has no Alexander polynomial in its certificate"
            )
        return cert.alexander
    if isinstance(e, Mirror):
        return _alex(e.child, db)
    if isinstance(e, Sum):
        # a summand and its mirror share one polynomial, which is computed
        # once; the product of each such polynomial to the number of its
        # summands is one packed-integer product
        counts = {}
        for p in e.parts:
            if type(p) is Mirror:
                p = p.child
            counts[p] = counts.get(p, 0) + 1
        return product([(_alex(p, db), k) for p, k in counts.items()])
    if isinstance(e, Cable):
        return _alex(e.companion, db).subst_power(e.p) * torus_alexander(e.p, e.q)
    raise TypeError(f"not a knot expression: {e!r}")


def topologically_slice_certified(e: KnotExpr, db=None) -> bool:
    """True iff the Alexander polynomial is 1.

    False means "not certified by this criterion", not "not topologically
    slice".
    """
    return alexander(e, db) == LaurentPoly.one()
