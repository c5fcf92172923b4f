"""Certificates are invariant under w -> lambda w.

Every verdict, rank, kernel and Ext dimension is a projective invariant of
w, so the certificate of lambda w equals that of w except in three
places: the input digest; ``det <-, w>``, a quartic form, which picks up
lambda^4; and the ``param_line0`` of each line witness, a column of the
moving plane at a root, which picks up one common nonzero factor.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import certificate_json
from ncquad.certify import full_pipeline
from ncquad.fields import QQ
from ncquad.quintuples import SLOT_LABELS, Quintuple, build_type_a
from ncquad.squares import CONVENTIONS
from ncquad.tensors import Tensor

_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
_scalars = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


def _tensor(entries):
    return ("w", tuple(entries))


_inputs = st.one_of(
    st.lists(_rationals, min_size=16, max_size=16).filter(any).map(_tensor),
    st.lists(st.sampled_from((-1, 0, 0, 0, 1)), min_size=16, max_size=16)
    .filter(any).map(_tensor),
    st.tuples(_rationals, _rationals, _rationals).map(lambda abc: ("type-a", abc)),
)


def _quintuple(spec, scale):
    kind, data = spec
    if kind == "type-a":
        a, b, c = (scale * x for x in data)
        return build_type_a(a, b, c, QQ)
    return Quintuple(Tensor(QQ, (2, 2, 2, 2), [scale * x for x in data], SLOT_LABELS))


def _rationals_of(value) -> list:
    """A scalar JSON value as rationals: one string, or the [a, b]
    coefficients of an extension element."""
    if isinstance(value, list):
        return [x for v in value for x in _rationals_of(v)]
    return [Fraction(value)]


def _split(cert: dict):
    """(the certificate without the three scaled fields, det, the
    param_line0 coordinates as one list of rationals)."""
    cert = dict(cert, input=dict(cert["input"], digest=None))
    stages, det, params = [], None, []
    for stage in cert["stages"]:
        stage = dict(stage)
        if stage["stage"] == "determinant":
            det = Fraction(stage.pop("det"))
        elif stage["stage"] == "lines":
            witnesses = []
            for w in stage["relation"]["witnesses"]:
                w = dict(w)
                params += [x for v in w.pop("param_line0") for x in _rationals_of(v)]
                witnesses.append(w)
            stage["relation"] = dict(stage["relation"], witnesses=witnesses)
        stages.append(stage)
    cert["stages"] = stages
    return cert, det, params


def _proportional(after, before) -> bool:
    """Whether after == c * before for one nonzero rational c."""
    if len(after) != len(before):
        return False
    pivot = next((k for k, x in enumerate(before) if x), None)
    if pivot is None:
        return not any(after)
    c = after[pivot] / before[pivot]
    return c != 0 and all(a == c * b for a, b in zip(after, before))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_inputs, _scalars, st.sampled_from(CONVENTIONS))
@example(("type-a", (1, 2, 3)), Fraction(5, 7), "ruling")        # certified
@example(("type-a", (0, 1, 1)), Fraction(-3, 2), "literal")      # lines meet
@example(("type-a", (-3, -2, -2)), Fraction(4, 3), "literal")    # two rational meets
@example(("type-a", (-3, -2, 2)), Fraction(-2, 5), "literal")    # meets over theta^2 = -4
def test_certificate_of_a_multiple_differs_only_in_the_scaled_fields(spec, scale, convention):
    try:
        q = _quintuple(spec, 1)
    except ValueError:              # the excluded locus of the type-A family
        return
    before = certificate_json(full_pipeline(q, convention))
    after = certificate_json(full_pipeline(_quintuple(spec, scale), convention))
    rest_before, det_before, params_before = _split(before)
    rest_after, det_after, params_after = _split(after)
    assert rest_after == rest_before
    assert after["input"]["digest"] != before["input"]["digest"] or scale == 1
    if det_before is None:
        assert det_after is None
    else:
        assert det_after == scale ** 4 * det_before
    assert _proportional(params_after, params_before)
