import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from defslice.certificates import AtomCertificate, default_db
from defslice.knotexpr import WHITEHEAD_TREFOIL
from defslice.laurent import LaurentPoly


@pytest.fixture(scope="session")
def db():
    return default_db()


@pytest.fixture(scope="session")
def degraded_db():
    """Whitehead certificate with tau and v0 forgotten: every interval it
    feeds can only widen relative to the full database."""
    stripped = AtomCertificate(
        name=WHITEHEAD_TREFOIL,
        tau=None,
        genus=1,
        lspace=False,
        alexander=LaurentPoly.one(),
        v0=None,
    )
    return default_db().with_atom(stripped)
