"""The ``DetectionBox`` contract: what it accepts, refuses and stores.

These tests pin the constructor's observable behaviour (the checks, their
order, exception types and messages, the stored types) and the dataclass
protocol (eq, hash, repr, ``asdict``, ``replace``, pickle, frozenness),
so that the constructor's implementation can change without anyone
noticing.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import pickle
import sys

import pytest

from crossview import DetectionBox

GOOD = {"center": (1.0, 2.0, 1.0), "size": (4.0, 2.0, 1.5), "yaw": 0.5,
        "class_label": "car", "score": 0.9, "source": "radar", "velocity": (1.0, -2.0)}
FIELDS = ("center", "size", "yaw", "class_label", "score", "source", "velocity")
NAN, INF = math.nan, math.inf

# (id, overrides, exception type, exact message)
INVALID = [
    ("center-short", {"center": (1.0, 2.0)}, ValueError,
     "center must have exactly three components"),
    ("center-long", {"center": (1.0, 2.0, 3.0, 4.0)}, ValueError,
     "center must have exactly three components"),
    ("center-unsized", {"center": 5}, TypeError, "object of type 'int' has no len()"),
    ("size-short", {"size": (1.0, 2.0)}, ValueError,
     "size must have exactly three components"),
    ("size-unsized", {"size": None}, TypeError, "object of type 'NoneType' has no len()"),
    ("center-nan", {"center": (NAN, 0.0, 0.0)}, ValueError, "box fields must be finite numbers"),
    ("center-inf", {"center": (0.0, 0.0, -INF)}, ValueError, "box fields must be finite numbers"),
    ("size-inf", {"size": (1.0, INF, 1.0)}, ValueError, "box fields must be finite numbers"),
    ("yaw-nan", {"yaw": NAN}, ValueError, "box fields must be finite numbers"),
    ("yaw-inf", {"yaw": INF}, ValueError, "box fields must be finite numbers"),
    ("score-nan", {"score": NAN}, ValueError, "box fields must be finite numbers"),
    ("center-str", {"center": (0.0, "1", 0.0)}, TypeError, "must be real number, not str"),
    ("size-str", {"size": "abc"}, TypeError, "must be real number, not str"),
    ("yaw-none", {"yaw": None}, TypeError, "must be real number, not NoneType"),
    ("score-str", {"score": "0.5"}, TypeError, "must be real number, not str"),
    ("size-zero", {"size": (0.0, 1.0, 1.0)}, ValueError, "size components must be positive"),
    ("size-negative", {"size": (1.0, 1.0, -2.0)}, ValueError,
     "size components must be positive"),
    ("score-high", {"score": 1.5}, ValueError, "score must lie in [0, 1], got 1.5"),
    ("score-low", {"score": -0.1}, ValueError, "score must lie in [0, 1], got -0.1"),
    ("score-int", {"score": 2}, ValueError, "score must lie in [0, 1], got 2"),
    ("class-unknown", {"class_label": "boat"}, ValueError, "unknown class_label 'boat'"),
    ("class-list", {"class_label": ["car"]}, ValueError, "unknown class_label ['car']"),
    ("source-unknown", {"source": "camera"}, ValueError, "unknown source 'camera'"),
    ("velocity-short", {"velocity": (1.0,)}, ValueError, "velocity must be planar (vx, vy)"),
    ("velocity-long", {"velocity": (1.0, 2.0, 3.0)}, ValueError,
     "velocity must be planar (vx, vy)"),
    ("velocity-unsized", {"velocity": 7}, TypeError, "object of type 'int' has no len()"),
    ("velocity-inf", {"velocity": (INF, 0.0)}, ValueError, "velocity components must be finite"),
    ("velocity-nan", {"velocity": (0.0, NAN)}, ValueError, "velocity components must be finite"),
    ("velocity-str", {"velocity": "ab"}, TypeError, "must be real number, not str"),
    # Several faults at once: the first check in constructor order wins.
    ("order-length-before-finite", {"center": (NAN, 0.0), "size": (1.0, 1.0)}, ValueError,
     "center must have exactly three components"),
    ("order-finite-stops-at-nan", {"center": (NAN, "x", 0.0)}, ValueError,
     "box fields must be finite numbers"),
    ("order-type-before-nan", {"center": ("x", NAN, 0.0)}, TypeError,
     "must be real number, not str"),
    ("order-finite-before-size", {"size": (0.0, 1.0, 1.0), "score": NAN}, ValueError,
     "box fields must be finite numbers"),
    ("order-size-before-score", {"size": (0.0, 1.0, 1.0), "score": 2.0}, ValueError,
     "size components must be positive"),
    ("order-score-before-class", {"score": 2.0, "class_label": "boat"}, ValueError,
     "score must lie in [0, 1], got 2.0"),
    ("order-class-before-source", {"class_label": "boat", "source": "camera"}, ValueError,
     "unknown class_label 'boat'"),
    ("order-source-before-velocity", {"source": "camera", "velocity": (1.0,)}, ValueError,
     "unknown source 'camera'"),
]


@pytest.mark.parametrize("overrides, error, message", [case[1:] for case in INVALID],
                         ids=[case[0] for case in INVALID])
def test_invalid_input_raises_the_documented_error(overrides, error, message):
    with pytest.raises(error) as info:
        DetectionBox(**{**GOOD, **overrides})
    assert type(info.value) is error
    assert str(info.value) == message


def test_keyword_and_positional_construction_agree():
    assert [p.name for p in inspect.signature(DetectionBox).parameters.values()] == list(FIELDS)
    by_keyword = DetectionBox(**GOOD)
    by_position = DetectionBox(*(GOOD[name] for name in FIELDS))
    assert by_keyword == by_position
    without_velocity = DetectionBox(*(GOOD[name] for name in FIELDS[:-1]))
    assert without_velocity.velocity is None
    assert without_velocity == DetectionBox(**{**GOOD, "velocity": None})


def test_fields_are_stored_normalized_as_float_tuples():
    b = DetectionBox(center=[1, 2, 1], size=[4, 2, 1], yaw=3.0 * math.pi, class_label="car",
                     score=1, source="radar", velocity=[1, -2])
    assert b.center == (1.0, 2.0, 1.0) and type(b.center) is tuple
    assert b.size == (4.0, 2.0, 1.0) and type(b.size) is tuple
    assert b.velocity == (1.0, -2.0) and type(b.velocity) is tuple
    assert b.yaw == math.pi
    for v in (*b.center, *b.size, b.yaw, b.score, *b.velocity):
        assert type(v) is float
    assert list(vars(b)) == list(FIELDS)


def test_eq_hash_and_repr():
    a = DetectionBox(**GOOD)
    b = DetectionBox(**{**GOOD, "center": [1, 2, 1], "velocity": [1.0, -2.0]})
    assert a == b and hash(a) == hash(b)
    assert a != DetectionBox(**{**GOOD, "score": 0.8})
    assert a != DetectionBox(**{**GOOD, "velocity": None})
    assert len({a, b, DetectionBox(**{**GOOD, "source": "lidar"})}) == 2
    assert repr(a) == ("DetectionBox(center=(1.0, 2.0, 1.0), size=(4.0, 2.0, 1.5), yaw=0.5, "
                       "class_label='car', score=0.9, source='radar', velocity=(1.0, -2.0))")


def test_asdict_and_replace():
    a = DetectionBox(**GOOD)
    assert dataclasses.asdict(a) == GOOD
    assert [f.name for f in dataclasses.fields(a)] == list(FIELDS)
    moved = dataclasses.replace(a, center=(5, 6, 1), yaw=-math.pi)
    assert moved.center == (5.0, 6.0, 1.0) and moved.yaw == math.pi
    assert moved.size == a.size and moved.velocity == a.velocity
    assert dataclasses.replace(a) == a
    with pytest.raises(ValueError, match=r"^score must lie in \[0, 1\], got 2$"):
        dataclasses.replace(a, score=2)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    a = DetectionBox(**GOOD)
    b = pickle.loads(pickle.dumps(a, protocol=protocol))
    assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
    assert list(vars(b)) == list(FIELDS)


def test_assignment_and_deletion_are_refused():
    a = DetectionBox(**GOOD)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.score = 0.1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del a.yaw
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.extra = 1
    assert a == DetectionBox(**GOOD)


def test_instance_dict_is_no_larger_than_a_generated_init_builds():
    """Fields stored one by one keep CPython's key-sharing instance dict.

    The reference is a frozen dataclass with the same fields and the
    ``__init__`` that ``dataclass`` generates.
    """
    reference = dataclasses.make_dataclass(
        "Reference", [(f.name, f.type, dataclasses.field(default=f.default))
                      for f in dataclasses.fields(DetectionBox)], frozen=True)
    values = DetectionBox(**GOOD)
    refs = [reference(*(getattr(values, name) for name in FIELDS)) for _ in range(3)]
    boxes = [DetectionBox(**GOOD) for _ in range(3)]
    assert sys.getsizeof(vars(boxes[-1])) <= sys.getsizeof(vars(refs[-1]))
