"""The nine report records are named tuples: their fields, construction,
equality, hashing, immutability and repr."""

import pytest

from spnil.cherednik import FormalRadialOperator, Params, SignedPerm
from spnil.field import fs
from spnil.orbits import CensusRow, Sl2Triple
from spnil.splie import MatF
from spnil.varieties import (
    HilbertRow,
    SchemePoint,
    StratumReport,
    TangentReport,
    sample_xnil_point,
)

# each record with its fields, in the order the classes have always
# declared them, and one value per field
RECORDS = [
    (Params, ("c_long", "c_short"), (fs(-1, 1), fs(2))),
    (SignedPerm, ("perm", "signs"), ((1, 0), (1, -1))),
    (FormalRadialOperator, ("coeffs",), ((((1, 0), fs(3)),),)),
    (Sl2Triple, ("e", "f", "h"), (MatF.unit(2, 0, 1), MatF.unit(2, 1, 0), MatF.zero(2))),
    (CensusRow, ("partition", "orbit_dim", "vplus_dim", "xlambda_dim", "is_component"),
     ((2,), 2, 1, 4, True)),
    (SchemePoint, ("n", "x", "y", "i"), (1, MatF.zero(2), MatF.unit(2, 0, 1), (fs(0), fs(1)))),
    (TangentReport, ("jacobian_rank", "tangent_dim", "isotropic", "smooth"), (3, 5, False, False)),
    (StratumReport, ("frame_rank", "inside_kernel", "isotropic"), (4, True, True)),
    (HilbertRow, ("degree", "dim_left", "dim_right", "equal"), (3, 56, 56, True)),
]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_an_immutable_named_tuple(cls, fields, values):
    assert cls._fields == fields
    record = cls(*values)
    assert record == cls(**dict(zip(fields, values)))
    assert [getattr(record, f) for f in fields] == list(values)
    twin = cls(*values)
    assert record == twin and hash(record) == hash(twin)
    # a tuple: it equals the plain tuple of its values, and iterates
    assert record == tuple(values) and list(record) == list(values)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({body})"


def test_scheme_point_keeps_i_a_tuple_and_its_jacobian_cached():
    p = sample_xnil_point((2,), seed=0)
    listed = SchemePoint(p.n, p.x, p.y, list(p.i))
    named = SchemePoint(n=p.n, x=p.x, y=p.y, i=list(p.i))
    replaced = p._replace(i=list(p.i))
    assert all(isinstance(q.i, tuple) for q in (listed, named, replaced))
    assert listed == named == replaced == p and hash(listed) == hash(p)
    assert listed.jacobian is listed.jacobian
    assert listed.jacobian == p.jacobian
