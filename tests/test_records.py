"""Value semantics of every record class.

Core claims:
    - each record builds from positional or keyword arguments
    - two records are equal exactly when their type and every field match;
      a record never equals a plain tuple or another record type holding
      the same values
    - equal records hash equally; a record with an unhashable field is
      unhashable
    - fields cannot be assigned or deleted, and no attribute can be added
    - repr reads Name(field=value, ...)
    - records have no length unless their class defines one, are not
      JSON-serializable, and survive pickle and deepcopy unchanged
    - omitted defaults are fresh: each report gets its own invariants dict
"""

import copy
import inspect
import json
import pickle
from fractions import Fraction

import pytest

from horikawa._record import Record
from horikawa.blowdown import ChainContribution, ContractionSet, SmoothedFiberInvariants
from horikawa.classt import (
    CLASS_T,
    ChainClassification,
    CyclicQuotient,
    ResolutionChain,
    TData,
)
from horikawa.covers import (
    HIRZEBRUCH_INVARIANTS,
    H1Margin,
    NoetherResult,
    SurfaceInvariants,
    TangencyCount,
)
from horikawa.lattice import BlownHirzebruch, DivisorClass, NegativityResult
from horikawa.pipeline import EnConfiguration, build_en_configuration
from horikawa.report import EnReport, Identity

F4 = BlownHirzebruch(4)
SEED = ResolutionChain((4,))
SEED_CLASS = ChainClassification(SEED, CLASS_T, TData(1, 2, 1), None, SEED, ())
IDENTITY = Identity("h1_margin", -24, -24, True, "published")
CONFIGURATION = build_en_configuration(6)

# (class, constructor arguments); every record class in the package.
SAMPLES = [
    (DivisorClass, ((1, 0, -2),)),
    (NegativityResult, (((-4,),), True, False)),
    (BlownHirzebruch, (5, 2)),
    (CyclicQuotient, (9, 2)),
    (ResolutionChain, ((5, 2),)),
    (TData, (1, 3, 1)),
    (ChainClassification, (SEED, CLASS_T, TData(1, 2, 1), None, SEED, ())),
    (SurfaceInvariants, (0, 0, 1, 8, 4)),
    (H1Margin, (-24, True)),
    (NoetherResult, (0, True, True)),
    (TangencyCount, (6, 45, 39)),
    (ContractionSet, (F4, ((F4.c0(),),))),
    (ChainContribution, (SEED_CLASS, (Fraction(1, 2),), Fraction(1), 2)),
    (SmoothedFiberInvariants, (SurfaceInvariants(3, 0, 4, 2, 46), (), ())),
    (Identity, ("h1_margin", -24, -24, True, "published")),
    (EnReport, ({"count": 2}, (IDENTITY,), (), {"noether_margin": 0})),
    (EnConfiguration, tuple(getattr(CONFIGURATION, name) for name in EnConfiguration.__slots__)),
]
IDS = [cls.__name__ for cls, _ in SAMPLES]


def _keywords(cls, args):
    if cls.__init__ is Record.__init__:
        names = cls.__slots__
    else:
        names = list(inspect.signature(cls).parameters)
    return dict(zip(names, args))


def _replaced(record, name, value):
    twin = copy.copy(record)
    object.__setattr__(twin, name, value)
    return twin


def test_samples_cover_every_record_class():
    import horikawa

    records = {
        value for value in vars(horikawa).values()
        if isinstance(value, type) and issubclass(value, Record)
    }
    assert records == {cls for cls, _ in SAMPLES}


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, args):
    record = cls(*args)
    assert cls(**_keywords(cls, args)) == record
    assert type(record) is cls


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_equal_exactly_when_type_and_fields_match(cls, args):
    record = cls(*args)
    assert record == cls(*args) and not record != cls(*args)
    for name in cls.__slots__:
        assert record != _replaced(record, name, object())
    values = tuple(getattr(record, name) for name in cls.__slots__)
    assert record != values and values != record
    twin_type = type("Twin", (Record,), {"__slots__": cls.__slots__})
    assert record != twin_type(*values)


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_hash_agrees_with_equality(cls, args):
    a, b = cls(*args), cls(*args)
    values = tuple(getattr(a, name) for name in cls.__slots__)
    try:
        hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_fields_are_read_only(cls, args):
    record = cls(*args)
    for name in cls.__slots__:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_repr_names_every_field(cls, args):
    record = cls(*args)
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls.__slots__)
    assert repr(record) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_not_a_tuple(cls, args):
    record = cls(*args)
    assert not isinstance(record, tuple)
    if cls not in (DivisorClass, ResolutionChain):
        with pytest.raises(TypeError):
            len(record)
    with pytest.raises(TypeError):
        json.dumps(record)


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, args):
    record = cls(*args)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


def test_lengths_are_the_wrapped_sequence():
    assert len(DivisorClass((1, 0, -2))) == 3
    assert len(ResolutionChain((5, 2))) == 2


def test_contraction_set_computes_its_classifications():
    contraction = ContractionSet(F4, [[F4.c0()]])
    assert contraction.chains == ((F4.c0(),),)
    assert contraction.classifications == (SEED_CLASS,)


def test_defaults():
    assert ChainClassification(SEED, CLASS_T) == ChainClassification(SEED, CLASS_T, None, None, None, ())
    assert BlownHirzebruch(5) == BlownHirzebruch(5, 0)
    assert SurfaceInvariants() == SurfaceInvariants(None, None, None, None, None)
    assert SmoothedFiberInvariants(HIRZEBRUCH_INVARIANTS, ()).flags == ()
    first, second = EnReport({}, ()), EnReport({}, ())
    assert first.invariants == {} and first.invariants is not second.invariants


@pytest.mark.parametrize(
    "args, kwargs",
    [((1,), {}), ((1, True, 0), {}), ((1,), {"margin": 2}), ((1,), {"bogus": True})],
)
def test_generic_constructor_takes_each_field_once(args, kwargs):
    with pytest.raises(TypeError):
        H1Margin(*args, **kwargs)
