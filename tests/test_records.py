"""The package's record classes behave as frozen value records: equal
fields give equal objects with equal hashes, a record never equals one of
another class, fields cannot be assigned or deleted, the constructors check
what they are given, and ``terms._trusted`` builds a record without that
check."""

import copy
import pickle

import pytest

from maltsev.algebras import FiniteAlgebra, Identity, OperationTable, make_algebra
from maltsev.congruences import Congruence, Partition
from maltsev.rewriting import ConfluenceReport, CriticalPair, RewriteSystem
from maltsev.terms import Signature, Var, _trusted, mu
from maltsev.termsearch import SearchOutcome, _Form
from maltsev.words import HeapGroup, HeapWord, Letter, ReducedWord, encode

X, Y = Var("x"), Var("y")


def _z2():
    return make_algebra("Z2", 2, {"mul": OperationTable(2, (0, 1, 1, 0))})


def _pair():
    return CriticalPair(mu(X, Y, Y), X, Y, (0,))


def _heap(letters):
    return HeapWord(ReducedWord(encode(Letter(g, s) for g, s in letters)))


_KEY, _SCALE, _READER = tuple, lambda a, b: a, lambda tab: None

# class -> (field names, a factory of constructor arguments, the same with one
# field changed).  Each factory call builds fresh, equal argument objects.
RECORDS = {
    OperationTable: (("arity", "entries"), lambda: (2, (0, 1, 1, 0)), lambda: (2, (0, 1, 1, 1))),
    FiniteAlgebra: (
        ("name", "size", "signature", "tables"),
        lambda: (
            "Z2", 2, Signature((("mul", 2),)), (("mul", OperationTable(2, (0, 1, 1, 0))),)
        ),
        lambda: (
            "Z2'", 2, Signature((("mul", 2),)), (("mul", OperationTable(2, (0, 1, 1, 0))),)
        ),
    ),
    Identity: (("lhs", "rhs", "variables"), lambda: (mu(X, Y, Y), X, ("x", "y")),
               lambda: (mu(Y, Y, X), X, ("x", "y"))),
    Partition: (("block_of",), lambda: ((0, 0, 1),), lambda: ((0, 1, 1),)),
    Congruence: (("algebra", "partition"), lambda: (_z2(), Partition((0, 0))),
                 lambda: (_z2(), Partition((0, 1)))),
    RewriteSystem: (("rules",), lambda: (((mu(X, Y, Y), X),),), lambda: (((mu(Y, Y, X), X),),)),
    CriticalPair: (("peak", "left_result", "right_result", "position"),
                   lambda: (mu(X, Y, Y), X, Y, (0,)), lambda: (mu(X, Y, Y), X, Y, (1,))),
    ConfluenceReport: (("entries",), lambda: (((_pair(), True),),), lambda: (((_pair(), False),),)),
    Signature: (("symbols",), lambda: ((("f", 2), ("c", 0)),), lambda: ((("f", 2),),)),
    SearchOutcome: (("status", "term", "visited"), lambda: ("found", mu(X, Y, Y), 7),
                    lambda: ("found", mu(X, Y, Y), 8)),
    _Form: (("key", "element", "zero", "scale", "reader"), lambda: (_KEY, _KEY, (0, 0), _SCALE, _READER),
            lambda: (_KEY, _KEY, (0, 1), _SCALE, _READER)),
    Letter: (("gen", "sign"), lambda: ("x", 1), lambda: ("x", -1)),
    ReducedWord: (("codes",), lambda: (encode([Letter("x", 1), Letter("y", -1)]),),
                  lambda: (encode([Letter("x", 1), Letter("y", 1)]),)),
    HeapWord: (("word",), lambda: (ReducedWord(encode([Letter("x", 1)])),),
               lambda: (ReducedWord(encode([Letter("y", 1)])),)),
    HeapGroup: (("base",), lambda: (_heap([("x", 1)]),), lambda: (_heap([("y", 1)]),)),
}

CLASSES = list(RECORDS)
IDS = [cls.__name__ for cls in CLASSES]

# class -> constructor arguments its check rejects, and the error it raises.
REJECTED = {
    Identity: ((mu(X, Y, Y), X, ("x",)), ValueError),
    Partition: (((1, 0, 0),), ValueError),
    Congruence: ((make_algebra("S", 3, {"s": OperationTable(1, (1, 2, 0))}), Partition((0, 0, 1))),
                 ValueError),
    RewriteSystem: ((((X, X),),), ValueError),
    Signature: (((("f", 2), ("f", 1)),), ValueError),
    Letter: (("x", 0), ValueError),
    ReducedWord: ((encode([Letter("x", 1), Letter("x", -1)]),), ValueError),
    HeapWord: ((ReducedWord(encode([Letter("x", -1)])),), ValueError),
}


def test_every_record_class_is_listed():
    assert len(RECORDS) == 15
    assert set(REJECTED) < set(RECORDS)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_are_the_constructor_arguments_in_order(cls):
    names, make, _ = RECORDS[cls]
    args = make()
    obj = cls(*args)
    assert tuple(getattr(obj, name) for name in names) == args


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_fields_give_equal_objects_with_equal_hashes(cls):
    _, make, other = RECORDS[cls]
    a, b = cls(*make()), cls(*make())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != cls(*other())
    assert len({a, b, cls(*other())}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_a_record_hashes_as_the_tuple_of_its_fields(cls):
    names, make, other = RECORDS[cls]
    for args in (make(), other()):
        obj = cls(*args)
        assert hash(obj) == hash(tuple(getattr(obj, name) for name in names)) == hash(args)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_a_wrong_argument_count_raises_type_error(cls):
    args = RECORDS[cls][1]()
    for wrong in (args[:-1], (*args, args[-1]), ()):
        with pytest.raises(TypeError):
            cls(*wrong)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_objects_of_different_classes_are_unequal(cls):
    names, make, _ = RECORDS[cls]
    obj = cls(*make())
    assert obj != make()  # not even the tuple of its fields
    for other_cls in CLASSES:
        if other_cls is not cls:
            assert obj != other_cls(*RECORDS[other_cls][1]())
    if len(names) == 1:
        assert obj != make()[0]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    names, make, other = RECORDS[cls]
    obj = cls(*make())
    for name, value in zip(names, other()):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == cls(*make())


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_copies_are_equal_records(cls):
    obj = cls(*RECORDS[cls][1]())
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    if cls is not _Form:  # its fields are lambdas, which pickle refuses
        copies.append(pickle.loads(pickle.dumps(obj)))
    for other in copies:
        assert type(other) is cls and other == obj


@pytest.mark.parametrize("cls", list(REJECTED), ids=[c.__name__ for c in REJECTED])
def test_constructor_checks_reject_bad_input(cls):
    args, error = REJECTED[cls]
    with pytest.raises(error):
        cls(*args)


@pytest.mark.parametrize("cls", list(REJECTED), ids=[c.__name__ for c in REJECTED])
def test_trusted_skips_the_checks(cls):
    names = RECORDS[cls][0]
    args, _ = REJECTED[cls]
    obj = _trusted(cls, *args)
    assert type(obj) is cls
    assert tuple(getattr(obj, name) for name in names) == args
    with pytest.raises(AttributeError):
        setattr(obj, names[0], args[0])
