import pytest

from ncquad.fields import QQ
from ncquad.linalg import Matrix
from ncquad.records import Record
from ncquad.squares import GeometricSquare


class Point(Record):
    x: int
    y: int
    label: str = "p"
    tags: tuple = ()


class Pair(Record):
    x: int
    y: int
    label: str = "p"
    tags: tuple = ()


def test_positional_keyword_and_default_construction():
    p = Point(1, 2)
    assert (p.x, p.y, p.label, p.tags) == (1, 2, "p", ())
    q = Point(y=2, x=1, tags=("a",))
    assert (q.x, q.y, q.label, q.tags) == (1, 2, "p", ("a",))
    r = Point(1, 2, "q", ("b",))
    assert (r.label, r.tags) == ("q", ("b",))
    assert Point._fields == ("x", "y", "label", "tags")


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}),                          # missing
    ((1, 2), {"z": 3}),                  # unknown
    ((1, 2), {"x": 1}),                  # repeated
    ((1, 2, "q", (), 5), {}),            # too many positional
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_non_default_field_after_default_rejected():
    with pytest.raises(TypeError, match="non-default field 'b'"):
        class Bad(Record):
            a: int = 0
            b: int


def test_frozen():
    p = Point(1, 2)
    with pytest.raises(AttributeError):
        p.x = 5
    with pytest.raises(AttributeError):
        p.new = 5
    with pytest.raises(AttributeError):
        del p.y
    assert (p.x, p.y) == (1, 2)


def test_eq_and_hash_by_value():
    assert Point(1, 2) == Point(1, 2, "p", ())
    assert hash(Point(1, 2)) == hash(Point(1, 2, "p", ()))
    assert Point(1, 2) != Point(1, 3)
    assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2
    assert Point(1, 2) != Pair(1, 2)
    assert Point(1, 2).__eq__(Pair(1, 2)) is NotImplemented
    assert Point(1, 2) != (1, 2, "p", ())


class CountingHash:
    def __init__(self):
        self.calls = 0

    def __hash__(self):
        self.calls += 1
        return 7


def test_the_hash_is_computed_once_per_instance():
    field = CountingHash()
    p = Point(1, 2, tags=(field,))
    assert hash(p) == hash(p) == hash((1, 2, "p", (field,)))
    assert field.calls == 2   # once for p, once for the plain tuple
    assert hash(Point(1, 2, tags=(field,))) == hash(p) and field.calls == 3


def test_an_unhashable_field_raises_on_every_hash_and_keeps_nothing():
    p = Point(1, 2, label={})
    for _ in range(2):
        with pytest.raises(TypeError):
            hash(p)
    assert vars(p) == {"x": 1, "y": 2, "label": {}, "tags": ()}


def test_a_kept_hash_changes_nothing_else():
    p = Point(1, 2, tags=("a",))
    hash(p)
    assert "_hash" in vars(p)
    assert p == Point(1, 2, tags=("a",)) and p != Point(1, 3, tags=("a",))
    assert repr(p) == "Point(x=1, y=2, label='p', tags=('a',))"
    for attr in ("x", "_hash"):
        with pytest.raises(AttributeError):
            setattr(p, attr, 5)
        with pytest.raises(AttributeError):
            delattr(p, attr)
    assert (p.x, p.y) == (1, 2) and hash(p) == hash(Point(1, 2, tags=("a",)))


def test_repr():
    assert repr(Point(1, 2, tags=("a",))) == "Point(x=1, y=2, label='p', tags=('a',))"


def test_post_init_runs():
    ident = Matrix.identity(QQ, 4)
    with pytest.raises(ValueError, match="unknown convention"):
        GeometricSquare(ident, ident, convention="bogus")
    sq = GeometricSquare(ident, ident)
    assert sq.convention == "ruling" and sq.contraction_det is None
