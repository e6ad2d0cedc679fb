"""The value classes behave as immutable records: fixed fields, equality and
hash by field within one class, a ``Name(field=value)`` repr, a generated
constructor for the classes that only store their fields, and ``replace``,
copies and pickling that go through the checking constructor."""

from __future__ import annotations

import copy
import inspect
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from amplehk import replace
from amplehk.colimits import ColimitInvariants
from amplehk.errors import ModelInvalid, ShapeMismatch
from amplehk.exact_linalg import FgAbelianGroup, IntMatrix, SnfResult
from amplehk.hkcheck import HKReport, hk_check
from amplehk.homology import GradedGroup
from amplehk.ktheory import RECORDS, Invariants, KPair, ModelClass, Precondition
import amplehk.models as models
from amplehk.models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    ProductModel,
    SftModel,
)
from amplehk.spans import FiniteSpan
from oracles import (
    NerveLevel,
    cyclic_group_groupoid,
    identity,
    identity_span,
    nerve_levels,
    pair_groupoid,
    transitive_groupoid,
)

M = IntMatrix.from_rows
SRC_DIR = Path(models.__file__).resolve().parent.parent
TESTS_DIR = Path(__file__).resolve().parent
DIAGRAM = BratteliModel((1, 2), (M([[1], [1]]),), M([[1, 1], [1, 1]]))


def instances() -> list:
    """One instance of every record class."""
    shift = SftModel(M([[1, 1], [1, 0]]))
    return [
        M([[1, 2], [3, 4]]),
        SnfResult(identity(1), M([[2]]), identity(1)),
        FgAbelianGroup(2, (2, 4)),
        ColimitInvariants(3),
        pair_groupoid(2),
        shift,
        DIAGRAM,
        CantorZModel(DIAGRAM),
        ProductModel(shift, DIAGRAM),
        nerve_levels(pair_groupoid(2), 1)[1],
        identity_span(("a", "b")),
        GradedGroup((FgAbelianGroup(1),), vanishing_above=True),
        Precondition("p", True, "computed", "why"),
        KPair(FgAbelianGroup(1), ColimitInvariants(0)),
        RECORDS[SftModel],
        Invariants("s", Precondition("p", True, "computed", "why"), "bc", int, int),
        hk_check(shift),
    ]


RECORD_CLASSES = [
    IntMatrix, SnfResult, FgAbelianGroup, ColimitInvariants, FiniteGroupoid,
    SftModel, BratteliModel, CantorZModel, ProductModel, NerveLevel, FiniteSpan, GradedGroup,
    Precondition, KPair, ModelClass, Invariants, HKReport,
]

# The classes that check their arguments and write their own constructor;
# every other record class gets the generated one.
CHECKING_CLASSES = [IntMatrix, FgAbelianGroup, FiniteGroupoid, SftModel, BratteliModel, FiniteSpan]
STORE_ONLY_CLASSES = [c for c in RECORD_CLASSES if c not in CHECKING_CLASSES]


def test_every_record_class_is_covered():
    assert [type(r) for r in instances()] == RECORD_CLASSES


@pytest.mark.parametrize("record", instances(), ids=lambda r: type(r).__name__)
class TestEveryRecord:
    def test_assignment_raises(self, record):
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, field)

    def test_replace_without_changes_is_equal(self, record):
        copy = replace(record)
        assert copy is not record and copy == record

    def test_hash_is_the_field_tuple_hash(self, record):
        values = tuple(getattr(record, f) for f in record._fields)
        if isinstance(record, FiniteSpan):
            # The one record that still keeps its caller's dicts.
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(values)

    def test_repr_lists_the_fields(self, record):
        body = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
        assert repr(record) == f"{type(record).__name__}({body})"

    def test_unknown_field_is_refused(self, record):
        with pytest.raises(TypeError):
            replace(record, no_such_field=1)

    def test_copies_are_equal(self, record):
        for duplicate in (copy.copy(record), copy.deepcopy(record)):
            assert type(duplicate) is type(record) and duplicate == record
            assert repr(duplicate) == repr(record)


# A model class record holds lambdas, which pickle refuses.
@pytest.mark.parametrize(
    "record",
    [r for r in instances() if not isinstance(r, ModelClass)],
    ids=lambda r: type(r).__name__,
)
def test_pickle_round_trip(record):
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls", STORE_ONLY_CLASSES, ids=lambda c: c.__name__)
class TestGeneratedConstructor:
    def test_parameters_are_the_fields(self, cls):
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
        assert tuple(inspect.signature(cls).parameters) == cls._fields

    def test_stores_each_field_by_position_and_by_name(self, cls):
        values = [object() for _ in cls._fields]
        for record in (cls(*values), cls(**dict(zip(cls._fields, values)))):
            assert [getattr(record, f) for f in cls._fields] == values

    def test_missing_unknown_and_repeated_fields_are_refused(self, cls):
        values = [None] * len(cls._fields)
        with pytest.raises(TypeError):
            cls(*values[1:])
        with pytest.raises(TypeError):
            cls(*values, no_such_field=None)
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: None})


class TestSemantics:
    def test_repr(self):
        assert repr(FgAbelianGroup(2, (2, 4))) == "FgAbelianGroup(rank=2, torsion=(2, 4))"
        assert repr(KPair(FgAbelianGroup(1), ColimitInvariants(0))) == (
            "KPair(k0=FgAbelianGroup(rank=1, torsion=()), k1=ColimitInvariants(rank=0))"
        )
        assert repr(M([[1, 2]])) == "IntMatrix(rows=1, cols=2, entries=(1, 2))"

    def test_classes_with_equal_fields_differ(self):
        assert FgAbelianGroup(1, ()) != ColimitInvariants(1)
        assert ColimitInvariants(1) != FgAbelianGroup(1, ())
        assert FgAbelianGroup(1) != (1, ())

    def test_changed_field_breaks_equality(self):
        g = FgAbelianGroup(2, (2, 4))
        assert replace(g, rank=3) == FgAbelianGroup(3, (2, 4))
        assert replace(g, rank=3) != g

    def test_replace_revalidates_a_matrix(self):
        m = M([[1, 2]])
        with pytest.raises(ShapeMismatch, match="non-integer entry 2.0"):
            replace(m, entries=(1, 2.0))
        with pytest.raises(ShapeMismatch, match="needs 2 entries"):
            replace(m, entries=(1,))

    def test_replace_revalidates_a_groupoid(self):
        with pytest.raises(ModelInvalid, match="duplicate unit names"):
            replace(pair_groupoid(2), units=("u0", "u0"))

    def test_replace_revalidates_a_group(self):
        with pytest.raises(ValueError, match="divisibility chain"):
            replace(FgAbelianGroup(0, (2, 4)), torsion=(4, 6))

    def test_defaults(self):
        assert FgAbelianGroup(2) == FgAbelianGroup(2, ())
        assert RECORDS[SftModel].ktheory is None
        one = FiniteGroupoid(("x",), (("e", "x", "x"),), inverse={"e": "e"}, compose={("e", "e"): "e"})
        assert one.compose == ((("e", "e"), "e"),) and one.inverse == (("e", "e"),)
        assert FiniteGroupoid((), ()) == FiniteGroupoid((), (), {}, {})
        with pytest.raises(ModelInvalid, match="required but missing"):
            FiniteGroupoid(("x",), (("e", "x", "x"),))

    def test_the_callers_tables_are_copied(self):
        base = cyclic_group_groupoid(3)
        units, arrows = list(base.units), [list(a) for a in base.arrows]
        compose, inverse = dict(base.compose), dict(base.inverse)
        g = FiniteGroupoid(units, arrows, compose, inverse)
        isotropy = copy.deepcopy(g._isotropy)
        units.append("ghost")
        arrows[1][0] = "bogus"
        arrows.pop()
        compose[("g1", "g1")] = "bogus"
        del compose[("g0", "g0")]
        inverse["g1"] = "g1"
        assert g == base and g._isotropy == isotropy == (((1, -1), (-1, 0)),)

    def test_models_built_from_lists_store_tuples_and_hash(self):
        g = FiniteGroupoid(["x"], [["e", "x", "x"]], [(("e", "e"), "e")], [("e", "e")])
        assert (g.units, g.arrows, g.compose, g.inverse) == (
            ("x",), (("e", "x", "x"),), ((("e", "e"), "e"),), (("e", "e"),)
        )
        diagram = BratteliModel([1, 2], [M([[1], [1]])], M([[1, 1], [1, 1]]))
        assert (diagram.level_sizes, diagram.incidences) == ((1, 2), (M([[1], [1]]),))
        for model in (g, diagram):
            for field in model._fields:
                value = getattr(model, field)
                assert not isinstance(value, (list, dict)), field
        keyed = {g: "g", diagram: "diagram", ProductModel(g, diagram): "product"}
        assert keyed[FiniteGroupoid(("x",), (("e", "x", "x"),), {("e", "e"): "e"}, {"e": "e"})] == "g"
        assert keyed[DIAGRAM] == "diagram"
        assert keyed[ProductModel(g, DIAGRAM)] == "product"

    def test_table_order_does_not_matter(self):
        rng = random.Random(5)
        base = transitive_groupoid(2, 2)
        z2 = cyclic_group_groupoid(2)
        for _ in range(5):
            compose, inverse = list(base.compose), list(base.inverse)
            rng.shuffle(compose)
            rng.shuffle(inverse)
            g = FiniteGroupoid(base.units, base.arrows, dict(compose), dict(inverse))
            assert g == base and hash(g) == hash(base) and repr(g) == repr(base)
            product = ProductModel(z2, g)
            assert product == ProductModel(z2, base) and hash(product) == hash(ProductModel(z2, base))
            restored = pickle.loads(pickle.dumps(product))
            assert restored == product and hash(restored) == hash(product)

    def test_repr_does_not_depend_on_the_hash_seed(self):
        # The tables are given in set order, which changes with the seed.
        code = (
            f"import sys; sys.path[:0] = [{str(SRC_DIR)!r}, {str(TESTS_DIR)!r}]\n"
            "from amplehk.models import FiniteGroupoid\n"
            "from oracles import pair_groupoid\n"
            "g = pair_groupoid(2)\n"
            "print(list(set(g.compose)))\n"
            "print(repr(FiniteGroupoid(g.units, g.arrows, set(g.compose), set(g.inverse))))\n"
        )
        runs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            runs.append(proc.stdout.splitlines())
        assert runs[0][0] != runs[1][0]
        assert runs[0][1] == runs[1][1] == repr(pair_groupoid(2))

    def test_copies_go_through_the_checking_constructor(self):
        g = pair_groupoid(2)
        for duplicate in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert duplicate == g and duplicate._orbits == g._orbits
            assert duplicate._isotropy == g._isotropy
        deep = copy.deepcopy(g)
        assert deep.compose == g.compose and deep.compose is not g.compose

    def test_checking_records_store_tuples(self):
        entries = [1, 2]
        m = IntMatrix(1, 2, entries)
        entries[0] = 5
        assert m.entries == (1, 2) and hash(m) == hash(M([[1, 2]]))
        g = FgAbelianGroup(0, [2])
        assert g.torsion == (2,) and hash(g) == hash(FgAbelianGroup.cyclic(2))

    def test_keyword_construction(self):
        assert KPair(k1=FgAbelianGroup(0), k0=FgAbelianGroup(1)) == KPair(
            FgAbelianGroup(1), FgAbelianGroup(0)
        )
