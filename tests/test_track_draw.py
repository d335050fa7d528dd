"""The seeded random track: the same tracks as ``Random``'s ``choice``,
``randint`` and ``shuffle`` give (``method_random_track`` in
``tests/track_oracle.py``), drawn from ``Random.getrandbits`` alone."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from track_oracle import method_random_track

from dehnfill.tracks import TorusTrainTrack, random_track, track_to_json

SEEDS = list(range(-500, 5000)) + [2**64 + 7, -(10**30) - 3]


def test_draw_matches_random_methods():
    kinds = set()
    for seed in SEEDS:
        track = random_track(seed)
        assert track_to_json(track) == track_to_json(method_random_track(seed)), seed
        kinds.add((len(track.branches), len(track.switches)))
    # Every shape the draw can keep: one loop, or 2 or 4 switches and no loop.
    assert kinds == {(1, 0), (3, 2), (6, 4)}


@settings(max_examples=300, deadline=None)
@given(st.integers())
def test_draw_matches_random_methods_on_any_seed(seed):
    assert track_to_json(random_track(seed)) == track_to_json(method_random_track(seed))


def words(monkeypatch, make, seed, methods):
    """The ``track_to_json`` of ``make(seed)`` and the ``k`` of each
    ``getrandbits(k)`` it made.  Unless ``methods``, every other way to draw
    from ``Random`` raises."""
    drawn = []

    class Recording(random.Random):
        def getrandbits(self, k):
            drawn.append(k)
            return super().getrandbits(k)

        def _forbidden(self, *args, **kwargs):
            raise AssertionError("the track draw called a random method besides getrandbits")

        if not methods:
            random = randint = randrange = choice = shuffle = _randbelow = _forbidden

    with monkeypatch.context() as patch:
        patch.setattr(random, "Random", Recording)
        return track_to_json(make(seed)), drawn


def test_draw_takes_the_same_words_through_getrandbits_only(monkeypatch):
    for seed in list(range(200)) + [2**64 + 7]:
        ours = words(monkeypatch, random_track, seed, methods=False)
        theirs = words(monkeypatch, method_random_track, seed, methods=True)
        assert ours == theirs, seed


def failed_builds(monkeypatch, make, seeds):
    """The switch count of each ``TorusTrainTrack`` that raised while
    ``make`` drew the tracks of ``seeds``."""
    failed = []
    init = TorusTrainTrack.__init__

    def counting(self, branches, switches):
        try:
            init(self, branches, switches)
        except ValueError:
            failed.append(len(switches))
            raise

    with monkeypatch.context() as patch:
        patch.setattr(TorusTrainTrack, "__init__", counting)
        for seed in seeds:
            make(seed)
    return failed


def test_redrawn_draws_build_nothing(monkeypatch):
    # Seeds 0..299 take 544 failed draws.  538 put a loop branch beside
    # another branch, and only the other 6, disconnected 4-switch draws,
    # reach TorusTrainTrack.
    assert len(failed_builds(monkeypatch, method_random_track, range(300))) == 544
    assert failed_builds(monkeypatch, random_track, range(300)) == [4] * 6


def test_the_draw_gives_up_after_200_draws(monkeypatch):
    # getrandbits(k) = 1 for k > 1 draws two switches and a loop branch
    # every time, so every draw is made again: 14 words each, one for the
    # switch count, one for the loops, eight for the four branch classes and
    # two for each shuffle.
    drawn = []

    class Ones:
        def __init__(self, seed):
            pass

        def getrandbits(self, k):
            drawn.append(k)
            return 1 if k > 1 else 0

    monkeypatch.setattr(random, "Random", Ones)
    with pytest.raises(RuntimeError, match="^could not sample a valid track$"):
        random_track(0)
    assert len(drawn) == 200 * 14
