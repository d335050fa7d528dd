"""Value semantics of every value type in the library.

A frozen dataclass of the same field names is the oracle for ``repr`` and
``hash``, so the output and the set and dict orders that depend on them stay
as they were.  Equality holds within one class only, no field can be set or
deleted, and copies and pickles come back equal."""

import copy
import inspect
import os
import pathlib
import pickle
import subprocess
import sys
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

from dehnfill import arcs, census, filling, ladders, monodromy, slopes, tracks
from dehnfill._value import Value, setfield
from dehnfill.monodromy import DegeneracyLocus
from dehnfill.slopes import INFINITY, LONGITUDE, ProjectiveSlope

SLOPE = ProjectiveSlope.of(2)
INTERVAL = slopes.SlopeInterval(end_a=SLOPE, end_b=INFINITY, excluded=LONGITUDE)
ACTION = monodromy.MonodromyBoundaryAction(
    counts={"B": 2, "A": 2}, permutation={"A": "B", "B": "A"}, shifts={"B": 0, "A": 1}
)
ORBIT = monodromy.BoundaryOrbit(circles=("A", "B"), locus=DegeneracyLocus(2, 1))
START = arcs.ArcEndpoint(circle_id="A", position=Fraction(1, 4))
ARC = arcs.CombinatorialArc(start=START, end=arcs.ArcEndpoint("B", 1))
PRINTED = census.PrintedInterval(
    end_a="-inf", end_b="5", closed_a=False, closed_b=True, through="0"
)
RUNG = ladders.Rung(lower_level=0, low_pos=Fraction(1, 2), high_pos=2, cusp_low=1, cusp_high=-1)
REPORT = filling.FillingReport(
    orbit=ORBIT,
    interval=INTERVAL,
    slope=None,
    in_interval=False,
    dist_to_locus=0,
    fried_ok=False,
    special_no_singular=False,
)
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
TRACK = tracks.build_boundary_track(DegeneracyLocus(4, 1), 1)

# One instance of each value type, built by keyword from its required fields.
SAMPLES = [
    SLOPE,
    INTERVAL,
    ACTION,
    DegeneracyLocus(p=6, q=-1),
    ORBIT,
    START,
    ARC,
    arcs.AdmissibleArcSystem(action=ACTION, arcs=(ARC,)),
    arcs.Violation(kind="arc-count", detail="expected 2 arcs"),
    REPORT,
    filling.MultislopeReport(reports=(REPORT,), verdict="none"),
    PRINTED,
    census.CensusEntry(
        name="x", genus=None, degeneracy_slope="4", locus=DegeneracyLocus(4, 1), c=1, i_nls=PRINTED
    ),
    census.VerificationRecord(name="x", computed=INTERVAL, status="ExactMatch", detail=""),
    RUNG,
    ladders.LadderTrack(n_levels=2, orientations=(1, -1), rungs=(RUNG,)),
    ladders.CarriedPath(steps=(("line", 0, 0, 1), ("rung", 0, 1)), truncated=False),
    tracks.Branch(a=1, b=-2),
    tracks.Switch(single=(0, 0), double=((1, 1), (2, 1))),
    tracks.TorusTrainTrack(branches=TRACK.branches, switches=TRACK.switches),
    tracks.RayClasses(least={(0, 1): 1}, rays=1),
    tracks.CarriedSlopes(kind="empty"),
    tracks.EndpointConfig(),
]

# The defaults the dataclasses had.
DEFAULTS = {
    slopes.SlopeInterval: {"closed_a": False, "closed_b": False},
    arcs.CombinatorialArc: {"pos_transverse_stable": True, "pos_transverse_unstable": False},
    filling.FillingReport: {"guarantees": frozenset()},
    filling.MultislopeReport: {"notes": ()},
    census.CensusEntry: {
        "endpoint_prior_work": False,
        "notes": "",
        "source": "Dunfield census non-L-space filling data",
    },
    tracks.Branch: {"label": ""},
    tracks.Switch: {"label": ""},
    tracks.CarriedSlopes: {"slope": None, "arc": None, "extreme_classes": (), "extreme_rays": 0},
    tracks.EndpointConfig: {
        "phase": 0,
        "lower_out": Fraction(1, 4),
        "lower_in": Fraction(3, 4),
        "upper_nudge": Fraction(1, 8),
    },
}

# Types whose fields hold dicts, so hashing fails; RayClasses is not
# hashable at all, as a dataclass that is not frozen is not.
UNHASHABLE = {monodromy.MonodromyBoundaryAction, arcs.AdmissibleArcSystem, tracks.RayClasses}


def fields(value):
    return {name: getattr(value, name) for name in type(value)._names}


def dataclass_twin(value):
    """The dataclass of the same name and fields, with the same values:
    frozen, but for ``RayClasses``, which was a plain dataclass."""
    values, frozen = fields(value), type(value) is not tracks.RayClasses
    return make_dataclass(type(value).__name__, list(values), frozen=frozen)(**values)


def value_twin(value):
    """A value of another class with the same name, fields and values."""

    def __init__(self, *values):
        for name, field in zip(self._names, values):
            setfield(self, name, field)

    namespace = {"__slots__": type(value)._names, "__init__": __init__}
    return type(type(value).__name__, (Value,), namespace)(*fields(value).values())


def ids(value):
    return type(value).__name__


def test_every_value_type_is_sampled():
    modules = (slopes, monodromy, arcs, filling, census, ladders, tracks)
    value_types = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Value) and obj is not Value
    }
    assert value_types == {type(v) for v in SAMPLES}
    assert len(SAMPLES) == 23


@pytest.mark.parametrize("value", SAMPLES, ids=ids)
def test_fields_are_the_constructor_parameters(value):
    params = inspect.signature(type(value)).parameters
    assert tuple(params) == type(value)._names
    defaults = {n: p.default for n, p in params.items() if p.default is not p.empty}
    assert defaults == DEFAULTS.get(type(value), {})
    for name, default in defaults.items():
        assert getattr(value, name) == default
    assert type(value)(**fields(value)) == value


@pytest.mark.parametrize("value", SAMPLES, ids=ids)
def test_equality_holds_within_one_class(value):
    assert value == type(value)(*fields(value).values())
    for twin in (dataclass_twin(value), value_twin(value)):
        assert value != twin and twin != value
    assert value != tuple(fields(value).values())
    for other in SAMPLES:
        if type(other) is not type(value):
            assert value != other and not value == other


@pytest.mark.parametrize("value", SAMPLES, ids=ids)
def test_hash_is_the_hash_of_the_field_tuple(value):
    if type(value) in UNHASHABLE:
        with pytest.raises(TypeError) as err:
            hash(value)
        with pytest.raises(TypeError) as twin_err:
            hash(dataclass_twin(value))
        assert str(err.value) == str(twin_err.value)
        return
    assert hash(value) == hash(tuple(fields(value).values())) == hash(dataclass_twin(value))


@pytest.mark.parametrize("value", SAMPLES, ids=ids)
def test_repr_is_the_dataclass_repr(value):
    if type(value) is ProjectiveSlope:
        assert repr(value) == "ProjectiveSlope(2, 1)"
    else:
        assert repr(value) == repr(dataclass_twin(value))


def test_repr_examples():
    assert repr(tracks.Branch(1, 0)) == "Branch(a=1, b=0, label='')"
    assert repr(INTERVAL) == (
        "SlopeInterval(end_a=ProjectiveSlope(2, 1), end_b=ProjectiveSlope(1, 0), "
        "excluded=ProjectiveSlope(0, 1), closed_a=False, closed_b=False)"
    )


@pytest.mark.parametrize("value", SAMPLES, ids=ids)
def test_fields_cannot_be_set_or_deleted(value):
    for name, old in fields(value).items():
        with pytest.raises(AttributeError, match="cannot assign to field %r" % name):
            setattr(value, name, old)
        with pytest.raises(AttributeError, match="cannot delete field %r" % name):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", SAMPLES, ids=ids)
def test_copies_and_pickles_are_equal(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(6)]
    for again in copies:
        assert type(again) is type(value) and again == value
        assert repr(again) == repr(value)


def test_copies_recompute_derived_state():
    config = tracks.CONFIG_PRESETS["default"]
    for again in (copy.copy(config), copy.deepcopy(config), pickle.loads(pickle.dumps(config))):
        assert again._scaled_feet == config._scaled_feet == (8, (2, 6, 3, 5))



def test_the_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # Every one-shot command imports the CLI first; ``dataclasses`` and the
    # ``inspect`` it loads took about 6 ms of that on CPython 3.11.
    code = "import sys, dehnfill.cli\nprint(sorted({'dataclasses', 'inspect'} & {*sys.modules}))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stdout + proc.stderr
