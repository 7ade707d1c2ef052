"""Hypothesis strategies for random knot expressions."""

from hypothesis import strategies as st

from defslice.knotexpr import Atom, Cable, Mirror, Sum, WHITEHEAD_TREFOIL

ATOM_NAMES = ["O", "T(2,3)", "T(2,5)", "T(3,4)", WHITEHEAD_TREFOIL]

# coprime (p, q) pairs with q >= 1, kept small so V-sequences stay short
_CABLE_PQ = [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (2, 5), (5, 1)]
# plus q <= 0, and p = 1, which normalize drops
CABLE_PQ_ANY = _CABLE_PQ + [(2, -1), (3, -2), (2, -3), (1, 2), (1, -1)]


def _extend(children, cable_pq):
    return st.one_of(
        children.map(Mirror),
        st.tuples(children, children).map(lambda t: Sum(t)),
        st.tuples(children, children, children).map(lambda t: Sum(t)),
        st.tuples(st.sampled_from(cable_pq), children).map(
            lambda t: Cable(t[0][0], t[0][1], t[1])
        ),
    )


def expressions(max_leaves=5, names=ATOM_NAMES):
    """Random expressions over the atoms of names with cables restricted
    to q >= 1."""
    leaves = st.sampled_from(names).map(Atom)
    return st.recursive(leaves, lambda c: _extend(c, _CABLE_PQ), max_leaves=max_leaves)


def expressions_any_cable(max_leaves=5, names=ATOM_NAMES):
    """Random expressions over the atoms of names that may contain cables
    with q <= 0."""
    leaves = st.sampled_from(names).map(Atom)
    return st.recursive(leaves, lambda c: _extend(c, CABLE_PQ_ANY), max_leaves=max_leaves)
