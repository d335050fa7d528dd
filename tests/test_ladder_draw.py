"""The seeded ladder draw: the same stream as ``randint``/``sample``/``shuffle``,
rebuilt from ``Random.getrandbits`` alone."""

import random
import types
from math import ceil, log

import pytest
from ladder_oracle import draw
from test_ladder_golden import SUMMARIES_DIGEST, summaries_digest
from test_ladders import RANDOM_LADDERS_DIGEST, random_ladders_digest

from dehnfill import _ladder, _ladder_py, ladders
from dehnfill.ladders import _draw

SEEDS = list(range(-50, 3000)) + [2**64 + 7, -(10**30) - 3]
# (2, 5) and (2, 21) put 4, 5, 20 and 21 rungs in the one gap: the sizes at
# which sample() picks against a set instead of from a pool list.  (12, 9)
# reaches 68..85 rungs, the next such window.
SIZES = [(8, 6), (2, 0), (2, 6), (8, 0), (5, 3), (12, 9), (2, 5), (2, 21)]


@pytest.mark.parametrize("alternating", [True, False])
@pytest.mark.parametrize("sizes", SIZES)
def test_draw_matches_random_methods(sizes, alternating):
    rung_counts = set()
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        drawn = _draw(ours, *sizes, alternating)
        assert drawn == draw(theirs, *sizes, alternating), seed
        # The same words were consumed: the next ones agree.
        assert ours.getrandbits(32) == theirs.getrandbits(32), seed
        rung_counts.add(len(drawn[2]))
    if sizes[0] == 2:
        assert rung_counts == set(range(sizes[1] + 1))
    if sizes == (12, 9):
        assert rung_counts & set(range(68, 86))


def test_sample_set_size_matches_random():
    # random.sample adds 4 ** ceil(log(3k, 4)) for k > 5; 3k is never a
    # power of 4, so the integer loop meets the same power.
    for k in range(3000):
        assert ladders._sample_set_size(k) == 21 + (4 ** ceil(log(3 * k, 4)) if k > 5 else 0)


class GetrandbitsOnly(random.Random):
    """A generator whose ``random``, ``randint``, ``randrange``, ``sample``,
    ``shuffle`` and ``_randbelow`` raise; ``getrandbits`` counts its calls."""

    words = 0

    def getrandbits(self, k):
        GetrandbitsOnly.words += 1
        return super().getrandbits(k)

    def _forbidden(self, *args, **kwargs):
        raise AssertionError("the ladder draw called a random method besides getrandbits")

    random = randint = randrange = sample = shuffle = _randbelow = _forbidden


@pytest.fixture
def getrandbits_only(monkeypatch):
    """``random_ladder`` and the pure-Python kernel, which ``verify_ladders``
    is routed through, draw from ``GetrandbitsOnly``."""
    namespace = types.SimpleNamespace(Random=GetrandbitsOnly)
    monkeypatch.setattr(ladders, "_random", namespace)
    monkeypatch.setattr(_ladder_py, "_random", namespace)
    monkeypatch.setattr(_ladder, "scan_ladder", _ladder_py.scan_ladder)
    monkeypatch.setattr(GetrandbitsOnly, "words", 0)


def test_forbidden_methods_raise():
    rng = GetrandbitsOnly(0)
    for call in (rng.random, lambda: rng.randint(0, 1), lambda: rng.shuffle([1, 2])):
        with pytest.raises(AssertionError):
            call()


def test_ladders_need_only_seed_and_getrandbits(getrandbits_only):
    assert random_ladders_digest() == RANDOM_LADDERS_DIGEST
    words = GetrandbitsOnly.words
    assert words > 0
    assert summaries_digest() == SUMMARIES_DIGEST
    assert GetrandbitsOnly.words > words  # the kernel drew from it as well
