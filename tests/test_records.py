"""The contract of the package's records: immutable, equal and hashing alike
when their fields are, built positionally or by keyword alike, and copied and
pickled, at every protocol, like any value."""

import copy
import pickle
from fractions import Fraction as Fr

import pytest

from bifree.bichromatic import ChiMap
from bifree.cumulants import CumulantSeq, MomentSeq
from bifree.matrix_model import (
    ComparisonRow,
    EnsembleSpec,
    SimConfig,
)
from bifree.meanders import MeandricSystem
from bifree.partitions import SetPartition
from bifree.tensor_clt import SqrtQuotient, TensorCLTInput

SEMICIRCLE = MomentSeq((0, 1, 0, 2))
PAIRS = SetPartition.from_text("1,2|3,4")
NESTED = SetPartition.from_text("1,4|2,3")

# (class, constructor arguments in order, a field, another valid value for it)
RECORDS = [
    (MomentSeq, {"values": (Fr(0), Fr(1))}, "values", (Fr(0), Fr(2))),
    (CumulantSeq, {"values": (Fr(0), Fr(1))}, "values", (Fr(1), Fr(1))),
    (TensorCLTInput, {"ms_a": SEMICIRCLE, "ms_b": SEMICIRCLE}, "ms_b", MomentSeq((0, 1, 1, 2))),
    (SqrtQuotient, {"coeff": Fr(1), "base": Fr(2)}, "base", Fr(3)),
    (EnsembleSpec, {"dim": 3, "sigma": 1.0, "lam": 0.5}, "lam", 0.0),
    (SimConfig, {"d": 2, "n": 3, "trials": 4, "seed": 5, "max_moment": 4}, "seed", 6),
    (ComparisonRow, {"m": 1, "mean": 0.5, "std_error": 0.1, "exact": 0.4, "z": 1.0}, "z", None),
    (ChiMap, {"sides": ("L", "R")}, "sides", ("R", "R")),
    (MeandricSystem, {"top": PAIRS, "bottom": NESTED}, "bottom", PAIRS),
]


@pytest.mark.parametrize("cls, kwargs, field, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, kwargs, field, other):
    record = cls(*kwargs.values())
    assert record == cls(**kwargs)
    twin = cls(*kwargs.values())
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert cls(**{**kwargs, field: other}) != record
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before
    assert repr(record).startswith(f"{cls.__name__}(")
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    pickled = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
    for twin in (copy.copy(record), copy.deepcopy(record), *pickled):
        assert type(twin) is cls and twin == record and hash(twin) == hash(record)
        with pytest.raises(AttributeError):
            setattr(twin, field, other)


def test_chi_map_caches_its_positions():
    # the reading permutation is computed at construction and kept in a slot;
    # the record has no instance dict to cache anything else in
    chi = ChiMap.from_string("LRRL")
    assert chi.permutation == (1, 4, 3, 2)
    assert pickle.loads(pickle.dumps(chi)).permutation == (1, 4, 3, 2)
    assert chi.permutation is chi.permutation
    assert not hasattr(chi, "__dict__")
    assert chi == ChiMap.from_string("LRRL")
    for name in ("other", "permutation"):
        with pytest.raises(AttributeError):
            setattr(chi, name, (1, 2, 3, 4))
