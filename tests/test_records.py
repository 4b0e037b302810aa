"""The value classes' record semantics: construction, equality, hash, repr, freezing.

Every public value class is a frozen record of its fields, which are the
parameters of its own ``__init__``.  These tests pin what callers, error
messages and documents see of that: positional and keyword construction,
the fields construction normalises and the error texts of what it refuses,
equality and hash over the field tuple (never equal across classes), the
repr text ``Name(field=value, ...)`` that error messages embed, refusal to
assign or delete a field, and the ``TypeError`` of a missing or extra
argument: every field is required, and ``record`` refuses an ``__init__``
that would make one optional.
"""

from fractions import Fraction

import pytest

from margcouple import (
    Atom,
    Box,
    BoxSet,
    CellAlloc,
    CertReport,
    Grid,
    IntervalSet,
    InternalConsistencyError,
    InvalidIntervalError,
    LemmaCheck,
    MarginalPair,
    MassMismatchError,
    Measure,
    MetaMeasure,
    NegativeWeightError,
    Neighborhood,
    ParameterError,
    PreimageReport,
    ProductSpace,
    RefineResult,
    SchemaError,
    Seed,
    SpaceDesc,
    Violation,
)
from margcouple._record import record
from margcouple.documents import CheckDocument, SetsDocument

F = Fraction

A = Atom("a", F(0))
B = Atom("b", F(1))
LINE = SpaceDesc((A, B))
POINT = SpaceDesc((Atom("p", F(1, 2)),))
PLANE = ProductSpace(LINE, POINT)
IV = IntervalSet(((F(0), F(1)),))
BOX = Box((F(0), F(1)), (F(0), F(1)))
MU = Measure(LINE, {"a": F(1, 2), "b": F(1, 2)})
JOINT = Measure(PLANE, {("a", "p"): F(1)})
GRID = Grid((IV,), (IV,))
CHECK = LemmaCheck(F(1, 5), F(1, 2), True)


_FIELDS = {
    Atom: ("id", "coord"),
    SpaceDesc: ("atoms",),
    ProductSpace: ("x", "y"),
    IntervalSet: ("intervals",),
    Box: ("col", "row"),
    BoxSet: ("boxes",),
    Measure: ("space", "weights"),
    MetaMeasure: ("space", "components"),
    MarginalPair: ("mu", "nu"),
    CellAlloc: ("col_scaled", "row_scaled", "kept"),
    PreimageReport: ("coupling", "grid_part", "remainder_coupling", "cell_allocs", "cell_drops"),
    Grid: ("cols", "rows"),
    RefineResult: ("grid", "delta", "owner"),
    Neighborhood: ("center", "sets", "epsilon"),
    Seed: ("value",),
    LemmaCheck: ("lhs", "bound", "ok"),
    Violation: ("trial", "seed", "reason", "cell", "gap", "mu", "nu"),
    CertReport: ("trials", "violations", "min_observed_gap"),
    SetsDocument: ("sets",),
    CheckDocument: ("lemma", "result"),
}

# class -> two argument tuples of distinct records, in field order
_ARGS = {
    Atom: (("a", F(0)), ("a", F(1))),
    SpaceDesc: (((A,),), ((A, B),)),
    ProductSpace: ((LINE, POINT), (POINT, LINE)),
    IntervalSet: ((((F(0), F(1)),),), (((F(0), F(2)),),)),
    Box: (((F(0), F(1)), (F(0), F(1))), ((F(0), F(1)), (F(0), F(2)))),
    BoxSet: (((BOX,),), ((),)),
    Measure: ((LINE, {"a": F(1)}), (LINE, {"b": F(1)})),
    MetaMeasure: ((LINE, ((F(1), MU),)), (LINE, ((F(1, 2), MU),))),
    MarginalPair: ((MU, MU), (MU, Measure(LINE, {"a": F(1)}))),
    CellAlloc: ((F(1), F(2), F(1)), (F(1), F(2), F(2))),
    PreimageReport: (
        (JOINT, JOINT, Measure(PLANE, {}), {(0, 0): CellAlloc(F(1), F(1), F(1))}, {(0, 0): F(0)}),
        (JOINT, Measure(PLANE, {}), JOINT, {}, {}),
    ),
    Grid: (((IV,), (IV,)), ((IV,), (IV, IntervalSet(((F(1), F(2)),))))),
    RefineResult: ((GRID, F(1, 10), {(0, 0): 0}), (GRID, F(1, 10), {(0, 0): None})),
    Neighborhood: ((MU, (IV,), F(1, 5)), (MU, (IV,), F(1, 4))),
    Seed: ((5,), (6,)),
    LemmaCheck: ((F(1, 5), F(1, 2), True), (F(1, 5), F(1, 2), False)),
    Violation: (
        (0, Seed(7), "cell", (0, 1), F(-1, 10), MU, MU),
        (0, Seed(7), "cell", None, None, None, None),
    ),
    CertReport: (
        (3, (), F(1, 40)),
        (3, (Violation(0, Seed(7), "cell", None, None, None, None),), None),
    ),
    SetsDocument: (((IV,),), ((BoxSet((BOX,)),),)),
    CheckDocument: ((4, CHECK), (5, CHECK)),
}

# one repr per class, word for word: error messages embed them
_REPRS = {
    Atom: "Atom(id='a', coord=Fraction(0, 1))",
    SpaceDesc: "SpaceDesc(atoms=(Atom(id='a', coord=Fraction(0, 1)),))",
    ProductSpace: (
        "ProductSpace(x=SpaceDesc(atoms=(Atom(id='a', coord=Fraction(0, 1)), "
        "Atom(id='b', coord=Fraction(1, 1)))), "
        "y=SpaceDesc(atoms=(Atom(id='p', coord=Fraction(1, 2)),)))"
    ),
    IntervalSet: "IntervalSet(intervals=((Fraction(0, 1), Fraction(1, 1)),))",
    Box: "Box(col=(Fraction(0, 1), Fraction(1, 1)), row=(Fraction(0, 1), Fraction(1, 1)))",
    BoxSet: (
        "BoxSet(boxes=(Box(col=(Fraction(0, 1), Fraction(1, 1)), "
        "row=(Fraction(0, 1), Fraction(1, 1))),))"
    ),
    Measure: (
        "Measure(space=SpaceDesc(atoms=(Atom(id='a', coord=Fraction(0, 1)), "
        "Atom(id='b', coord=Fraction(1, 1)))), weights={'a': Fraction(1, 1)})"
    ),
    MetaMeasure: (
        "MetaMeasure(space=SpaceDesc(atoms=(Atom(id='a', coord=Fraction(0, 1)), "
        "Atom(id='b', coord=Fraction(1, 1)))), components=((Fraction(1, 1), "
        "Measure(space=SpaceDesc(atoms=(Atom(id='a', coord=Fraction(0, 1)), "
        "Atom(id='b', coord=Fraction(1, 1)))), "
        "weights={'a': Fraction(1, 2), 'b': Fraction(1, 2)})),))"
    ),
    MarginalPair: (
        "MarginalPair(mu=Measure(space=SpaceDesc(atoms=(Atom(id='a', coord=Fraction(0, 1)), "
        "Atom(id='b', coord=Fraction(1, 1)))), "
        "weights={'a': Fraction(1, 2), 'b': Fraction(1, 2)}), "
        "nu=Measure(space=SpaceDesc(atoms=(Atom(id='a', coord=Fraction(0, 1)), "
        "Atom(id='b', coord=Fraction(1, 1)))), "
        "weights={'a': Fraction(1, 2), 'b': Fraction(1, 2)}))"
    ),
    CellAlloc: "CellAlloc(col_scaled=Fraction(1, 1), row_scaled=Fraction(2, 1), kept=Fraction(1, 1))",
    PreimageReport: (
        "PreimageReport(coupling=Measure(space=ProductSpace("
        "x=SpaceDesc(atoms=(Atom(id='a', coord=Fraction(0, 1)), "
        "Atom(id='b', coord=Fraction(1, 1)))), "
        "y=SpaceDesc(atoms=(Atom(id='p', coord=Fraction(1, 2)),))), "
        "weights={('a', 'p'): Fraction(1, 1)}), "
        "grid_part=Measure(space=ProductSpace("
        "x=SpaceDesc(atoms=(Atom(id='a', coord=Fraction(0, 1)), "
        "Atom(id='b', coord=Fraction(1, 1)))), "
        "y=SpaceDesc(atoms=(Atom(id='p', coord=Fraction(1, 2)),))), "
        "weights={('a', 'p'): Fraction(1, 1)}), "
        "remainder_coupling=Measure(space=ProductSpace("
        "x=SpaceDesc(atoms=(Atom(id='a', coord=Fraction(0, 1)), "
        "Atom(id='b', coord=Fraction(1, 1)))), "
        "y=SpaceDesc(atoms=(Atom(id='p', coord=Fraction(1, 2)),))), weights={}), "
        "cell_allocs={(0, 0): CellAlloc(col_scaled=Fraction(1, 1), "
        "row_scaled=Fraction(1, 1), kept=Fraction(1, 1))}, "
        "cell_drops={(0, 0): Fraction(0, 1)})"
    ),
    Grid: (
        "Grid(cols=(IntervalSet(intervals=((Fraction(0, 1), Fraction(1, 1)),)),), "
        "rows=(IntervalSet(intervals=((Fraction(0, 1), Fraction(1, 1)),)),))"
    ),
    RefineResult: (
        "RefineResult(grid=Grid(cols=(IntervalSet(intervals=((Fraction(0, 1), "
        "Fraction(1, 1)),)),), rows=(IntervalSet(intervals=((Fraction(0, 1), "
        "Fraction(1, 1)),)),)), delta=Fraction(1, 10), owner={(0, 0): 0})"
    ),
    Neighborhood: (
        "Neighborhood(center=Measure(space=SpaceDesc(atoms=(Atom(id='a', "
        "coord=Fraction(0, 1)), Atom(id='b', coord=Fraction(1, 1)))), "
        "weights={'a': Fraction(1, 2), 'b': Fraction(1, 2)}), "
        "sets=(IntervalSet(intervals=((Fraction(0, 1), Fraction(1, 1)),)),), "
        "epsilon=Fraction(1, 5))"
    ),
    Seed: "Seed(value=5)",
    LemmaCheck: "LemmaCheck(lhs=Fraction(1, 5), bound=Fraction(1, 2), ok=True)",
    Violation: (
        "Violation(trial=0, seed=Seed(value=7), reason='cell', cell=(0, 1), "
        "gap=Fraction(-1, 10), mu=Measure(space=SpaceDesc(atoms=(Atom(id='a', "
        "coord=Fraction(0, 1)), Atom(id='b', coord=Fraction(1, 1)))), "
        "weights={'a': Fraction(1, 2), 'b': Fraction(1, 2)}), "
        "nu=Measure(space=SpaceDesc(atoms=(Atom(id='a', coord=Fraction(0, 1)), "
        "Atom(id='b', coord=Fraction(1, 1)))), "
        "weights={'a': Fraction(1, 2), 'b': Fraction(1, 2)}))"
    ),
    CertReport: "CertReport(trials=3, violations=(), min_observed_gap=Fraction(1, 40))",
    SetsDocument: "SetsDocument(sets=(IntervalSet(intervals=((Fraction(0, 1), Fraction(1, 1)),)),))",
    CheckDocument: (
        "CheckDocument(lemma=4, result=LemmaCheck(lhs=Fraction(1, 5), "
        "bound=Fraction(1, 2), ok=True))"
    ),
}

CLASSES = list(_ARGS)


def _kwargs(cls, values):
    return dict(zip(_FIELDS[cls], values))


def _key(obj):
    return tuple(getattr(obj, f) for f in _FIELDS[type(obj)])


def test_the_table_covers_twenty_classes():
    assert len(CLASSES) == 20
    assert set(_FIELDS) == set(_REPRS) == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    for args in _ARGS[cls]:
        by_position = cls(*args)
        by_keyword = cls(**_kwargs(cls, args))
        assert by_position == by_keyword
        assert not by_position != by_keyword
        assert _key(by_position) == _key(by_keyword)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_follow_the_field_tuple(cls):
    one, other = (cls(*args) for args in _ARGS[cls])
    assert one == cls(*_ARGS[cls][0])
    assert one != other
    assert _key(one) != _key(other)
    for obj in (one, other):
        try:
            expected = hash(_key(obj))
        except TypeError:  # a dict-valued or measure-valued field
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == expected
    assert one.__eq__(_key(one)) is NotImplemented
    assert one != _key(one)


def test_records_of_different_classes_never_compare_equal():
    # same field values, different class
    assert IntervalSet(()) != BoxSet(())
    assert BoxSet(()).__eq__(IntervalSet(())) is NotImplemented
    assert Seed(5) != CertReport(5, (), None)
    assert IntervalSet(()) == IntervalSet(()) and BoxSet(()) == BoxSet(())
    assert hash(IntervalSet(())) == hash(BoxSet(())) == hash(((),))
    assert len({IntervalSet(()), IntervalSet(()), BoxSet(())}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    assert repr(cls(*_ARGS[cls][0])) == _REPRS[cls]


def test_construction_normalises_fields():
    assert Atom("a", "1/2").coord == F(1, 2)
    assert SpaceDesc([A]).atoms == (A,)
    assert IntervalSet([(0, 1)]).intervals == ((F(0), F(1)),)
    assert Box([0, 1], ["1/2", 1]).row == (F(1, 2), F(1))
    assert BoxSet([BOX]).boxes == (BOX,)
    assert Grid([IV], [IV]) == GRID
    assert RefineResult(GRID, "1/10", {}).delta == F(1, 10)
    assert Neighborhood(MU, [IV], "1/5").sets == (IV,)
    assert MetaMeasure(LINE, [(1, MU)]).components == ((F(1), MU),)
    assert SetsDocument([IV]).sets == (IV,)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = cls(*_ARGS[cls][0])
    name = _FIELDS[cls][0]
    before = getattr(obj, name)
    with pytest.raises(AttributeError, match=name):
        setattr(obj, name, before)
    with pytest.raises(AttributeError, match=name):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, name) is before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_missing_or_extra_argument_is_a_type_error(cls):
    names = _FIELDS[cls]
    args = _ARGS[cls][0]
    with pytest.raises(TypeError, match=names[0]):
        cls(**{k: v for k, v in _kwargs(cls, args).items() if k != names[0]})
    with pytest.raises(TypeError, match=names[-1]):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError, match="nope"):
        cls(*args, nope=1)
    with pytest.raises(TypeError, match=names[-1]):  # given twice
        cls(*args, **{names[-1]: args[-1]})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_no_field_has_a_class_level_value(cls):
    # __init__ stores every field, so a class-level value there only misleads
    assert sorted(set(_FIELDS[cls]) & vars(cls).keys()) == []


@pytest.mark.parametrize(
    "build, error, text",
    [
        (lambda: Atom("", 0), ParameterError, "atom id must be a non-empty string, got ''"),
        (lambda: Atom("a", 0.5), ParameterError,
         "refusing 0.5; pass a Fraction, int or p/q string"),
        (lambda: SpaceDesc(()), ParameterError, "a space needs at least one atom"),
        (lambda: SpaceDesc((A, A)), ParameterError, "duplicate atom id 'a'"),
        (lambda: IntervalSet(((1, 0),)), InvalidIntervalError, "empty interval (1, 0)"),
        (lambda: IntervalSet(((0, 2), (1, 3))), ParameterError,
         "intervals overlap or are unsorted near (1, ...)"),
        (lambda: Box(1, (0, 1)), ParameterError, "interval must be a (lo, hi) pair, got 1"),
        (lambda: BoxSet(((0, 1),)), ParameterError, "BoxSet takes Box values"),
        (lambda: Measure(LINE, {"z": 1}), ParameterError, "weight keyed by unknown atom 'z'"),
        (lambda: Measure(LINE, {"a": -1}), NegativeWeightError, "negative weight -1 at atom 'a'"),
        (lambda: MetaMeasure(POINT, ((1, MU),)), ParameterError,
         "meta-measure components must share the base space"),
        (lambda: MarginalPair(MU, Measure(LINE, {"a": F(1, 2)})), MassMismatchError,
         "marginals carry masses 1 and 1/2"),
        (lambda: PreimageReport(JOINT, Measure(PLANE, {}), Measure(PLANE, {}), {}, {}),
         InternalConsistencyError, "coupling must split into grid part plus remainder"),
        (lambda: Grid((IV, IntervalSet(())), (IV,)), ParameterError, "empty column piece in grid"),
        (lambda: Grid((IV,), (IntervalSet(()),)), ParameterError, "empty row piece in grid"),
        (lambda: RefineResult(GRID, 0, {}), ParameterError, "refinement delta must be positive"),
        (lambda: Neighborhood(MU, (IV,), 0), ParameterError,
         "neighborhood tolerance must be positive"),
        (lambda: Neighborhood(MU, (), 1), ParameterError, "neighborhood needs at least one set"),
        (lambda: Neighborhood(MU, (BoxSet(()),), 1), ParameterError,
         "a line measure evaluates interval sets only"),
        (lambda: Seed(-1), ParameterError, "seed must be a 64-bit unsigned integer, got -1"),
        (lambda: Seed(True), ParameterError, "seed must be a 64-bit unsigned integer, got True"),
        (lambda: SetsDocument((IV, BoxSet(()))), SchemaError,
         "sets document must hold one geometry only"),
        (lambda: CheckDocument(3, CHECK), SchemaError, "unknown check rule 3"),
    ],
)
def test_post_init_error_texts(build, error, text):
    """What construction refuses, word for word; the name keeps the cases' ids."""
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == text


def test_negative_meta_coefficient_names_the_measure_by_its_repr():
    with pytest.raises(NegativeWeightError) as info:
        MetaMeasure(LINE, ((F(-1, 3), MU),))
    assert info.value.atom is MU and info.value.weight == F(-1, 3)
    assert str(info.value) == (
        "negative weight -1/3 at atom Measure(space=SpaceDesc(atoms=(Atom(id='a', "
        "coord=Fraction(0, 1)), Atom(id='b', coord=Fraction(1, 1)))), "
        "weights={'a': Fraction(1, 2), 'b': Fraction(1, 2)})"
    )


class _Base:
    def __init__(self, a):
        pass


@pytest.mark.parametrize(
    "base, init",
    [
        (object, lambda self, a, b=1: None),
        (object, lambda self, a, *rest: None),
        (object, lambda self, a, **rest: None),
        (object, lambda self, a, *, b: None),
        (object, lambda self, a, /, b: None),
        (object, lambda self: None),
        (object, None),
        (_Base, None),
    ],
    ids=["default", "args", "kwargs", "keyword-only", "positional-only", "no-field", "no-init",
         "inherited-init"],
)
def test_record_refuses_an_init_without_required_fields(base, init):
    # every field is a required parameter of the class's own __init__
    cls = type("Odd", (base,), {} if init is None else {"__init__": init})
    with pytest.raises(TypeError, match=r"^record Odd needs its own __init__"):
        record(cls)
