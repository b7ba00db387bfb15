"""``WordStream``: the planner's random stream, held to numpy's own.

``below(n)`` must return what ``Generator.integers(0, n)`` returns from the
same PCG64 stream, draw for draw, and take the same 32-bit words off it —
otherwise every plan, and with it every ``vt_*`` number, moves.  The first
words of two seeds are pinned as literals: an upstream change to PCG64 or
to ``SeedSequence`` fails here, by name, instead of in 124 golden cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WordStream

#: first eight 32-bit words of ``PCG64(seed)``: low half of each raw output,
#: then its high half
FIRST_WORDS = {
    0: [3653403231, 2735729615, 2195314465, 1158725112,
        1322117304, 175979945, 323153949, 70985654],
    7: [4058335883, 2684764585, 2938530453, 3853503932,
        2483747170, 3331544671, 3580503874, 967257515],
}

#: rejection probability of ``below(n)`` is ``(2**32 % n) / 2**32``: one in
#: four here, so a few dozen draws are certain to reject
REJECTING_BOUND = 3 * 2**30

bounds = st.one_of(
    st.just(1),
    st.integers(2, 40),
    st.integers(2, 2**31),
    st.sampled_from([2**31, 2**31 - 1, REJECTING_BOUND, 2**32 - 1]),
)


@pytest.mark.parametrize("seed", sorted(FIRST_WORDS))
def test_first_words_are_pinned(seed):
    words = WordStream(np.random.PCG64(seed))
    assert [words._word() for _ in range(8)] == FIRST_WORDS[seed]
    assert words.consumed == 8
    raw = np.random.PCG64(seed).random_raw(4).tolist()
    assert FIRST_WORDS[seed] == [h for r in raw for h in (r & 0xFFFFFFFF, r >> 32)]
    as_uint32 = np.random.default_rng(seed).integers(0, 2**32, size=8, dtype=np.uint32)
    assert FIRST_WORDS[seed] == as_uint32.tolist()


@given(st.integers(0, 2**63 - 1), st.lists(bounds, max_size=200))
@settings(max_examples=200, deadline=None)
def test_below_equals_generator_integers_draw_for_draw(seed, ns):
    words = WordStream(np.random.PCG64(seed))
    rng = np.random.default_rng(seed)
    assert [words.below(n) for n in ns] == [int(rng.integers(0, n)) for n in ns]


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 1])
def test_ten_thousand_interleaved_draws_stay_in_step(seed):
    """Across many refills of the word buffer, rejections included: a word
    dropped or taken twice at a block boundary would shift every later
    draw."""
    words = WordStream(np.random.PCG64(seed))
    rng = np.random.default_rng(seed)
    choose = np.random.default_rng([seed, 1])
    menu = [1, 2, 3, 7, 200, 2**20 + 3, 2**31, REJECTING_BOUND, 2**32 - 1]
    for n in choose.choice(menu, size=10_000).tolist():
        assert words.below(n) == int(rng.integers(0, n))
    assert words.consumed > 2 * WordStream.BLOCK * 10


def test_a_bound_of_one_takes_no_word():
    words = WordStream(np.random.PCG64(3))
    assert [words.below(1) for _ in range(50)] == [0] * 50
    assert words.consumed == 0
    assert words.below(10) == int(np.random.default_rng(3).integers(0, 10))
    assert words.consumed == 1


@pytest.mark.parametrize("seed", sorted(FIRST_WORDS))
def test_a_rejected_word_is_skipped(seed):
    """Under ``REJECTING_BOUND`` the fourth pinned word of either seed leaves
    a product whose low half is below the threshold 2**30: numpy drops it
    and bounds the next word that passes, and so must the stream."""
    n = REJECTING_BOUND
    passes = [(w * n) & 0xFFFFFFFF >= (2**32 - n) % n for w in FIRST_WORDS[seed]]
    assert passes[:4] == [True, True, True, False]
    kept = [i for i, ok in enumerate(passes) if ok]
    words = WordStream(np.random.PCG64(seed))
    draws = [words.below(n) for _ in kept]
    assert draws == [(FIRST_WORDS[seed][i] * n) >> 32 for i in kept]
    assert words.consumed == kept[-1] + 1
    assert draws == np.random.default_rng(seed).integers(0, n, size=len(kept)).tolist()
