"""Golden fingerprints of the ILS planner.

``tests/fixtures/ils_golden.json`` was recorded from the from-scratch
planner (``QcutState.loads()`` recomputed from the dense matrices on every
probe, ``best = out.copy()`` in the perturbation walk) *before* the
planning state became incremental.  The incremental planner is an identity
transformation of that one: same RNG draws in the same order, same moves,
same result — so every fingerprint must still match to the digit,
including the position the random stream is left at.  The planner has since
moved from ``Generator.integers`` to the 32-bit words of the same PCG64
stream (``WordStream``); the fixture did not move: its ``next_random``
field, the recorded generator's next ``random()``, is derived here from the
number of words the planner consumed.

Re-record (only ever against a commit whose planner is the oracle)::

    PYTHONPATH=src python tests/test_core_ils_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.core.ils as ils_module
from repro.core import Fragment, QcutState, WordStream, iterated_local_search, perturb

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "ils_golden.json"


# ----------------------------------------------------------------------
# seeded states
# ----------------------------------------------------------------------
def random_state(seed, k, num_units, delta, base_lo=50, base_hi=400, fill=0.6):
    """Random integer-mass fragments; overlap makes weighted >= union."""
    rng = np.random.default_rng([seed, 0x601D])
    frags = []
    for u in range(num_units):
        for w in range(k):
            if rng.random() < fill:
                union = int(rng.integers(1, 60))
                frags.append(Fragment(u, w, union, union + int(rng.integers(0, 40))))
    base = rng.integers(base_lo, base_hi, size=k).astype(np.float64)
    return QcutState(num_units, k, frags, base, delta=delta)


def hash_like_state(num_units, k, mass, base, delta):
    frags = [Fragment(u, w, mass, mass) for u in range(num_units) for w in range(k)]
    return QcutState(num_units, k, frags, np.full(k, float(base)), delta=delta)


def domain_like_state():
    """Excellent locality, badly skewed load: what Domain hands to Q-cut."""
    frags = []
    for u in range(12):
        home = 0 if u < 7 else 1 + (u % 3)
        frags.append(Fragment(u, home, 80 + 3 * u, 120 + 5 * u))
        if u % 4 == 0:
            frags.append(Fragment(u, (home + 1) % 4, 6, 6))
    base = np.array([900.0, 150.0, 120.0, 100.0])
    return QcutState(12, 4, frags, base, delta=0.25)


def perfectly_local_state():
    frags = [Fragment(u, u % 4, 20 + u, 25 + u) for u in range(10)]
    return QcutState(10, 4, frags, np.full(4, 300.0), delta=0.25)


def heavy_unit_state(delta=0.1):
    """One unit outweighs everything: the rebalance walk can never satisfy
    δ, runs to its move cap and must hand back the best prefix."""
    frags = [Fragment(0, w, 300, 500) for w in range(4)]
    frags += [Fragment(u, u % 4, 4, 5) for u in range(1, 9)]
    frags += [Fragment(u, (u + 1) % 4, 3, 3) for u in range(1, 9)]
    return QcutState(9, 4, frags, np.full(4, 20.0), delta=delta)


def single_unit_state():
    """Step II empties every other worker; the walk's ``movable`` set can
    run dry."""
    frags = [Fragment(0, 0, 30, 30), Fragment(0, 1, 10, 10)]
    return QcutState(1, 2, frags, np.array([0.0, 500.0]), delta=0.05)


def down_worker_state():
    """A crashed worker: no vertices, no scope.  Its load is 0, so the
    scope mass shipped onto it can never lift it to the others: the state
    stays unbalanced whatever the walk does."""
    frags = [Fragment(u, w, 1 + u % 2, 2 + u % 3) for u in range(14) for w in range(7)]
    base = np.array([1500.0] * 7 + [0.0])
    return QcutState(14, 8, frags, base, delta=0.25)


STATE_BUILDERS = {
    "random_k2_u5": lambda: random_state(1, 2, 5, 0.25),
    "random_k3_u8": lambda: random_state(2, 3, 8, 0.04, base_lo=0, base_hi=30),
    "random_k4_u12": lambda: random_state(3, 4, 12, 0.03, base_lo=0, base_hi=10),
    "random_k4_u16_tight": lambda: random_state(4, 4, 16, 0.05),
    "random_k5_u20": lambda: random_state(5, 5, 20, 0.02, base_lo=0, base_hi=50),
    "random_k8_u32": lambda: random_state(6, 8, 32, 0.25),
    "random_k8_u32_tight": lambda: random_state(7, 8, 32, 0.02, base_lo=0, base_hi=20),
    "random_k8_u24_sparse": lambda: random_state(8, 8, 24, 0.05, base_lo=0, base_hi=10, fill=0.25),
    "random_k6_u10_small_base": lambda: random_state(9, 6, 10, 0.2, base_lo=0, base_hi=5),
    "random_k3_u30": lambda: random_state(10, 3, 30, 0.005, base_lo=0, base_hi=10),
    "random_k7_u7": lambda: random_state(11, 7, 7, 0.25),
    "random_k8_u4": lambda: random_state(12, 8, 4, 0.4),
    "random_k2_u1": lambda: random_state(13, 2, 1, 0.25, fill=1.0),
    "random_k8_u32_dense": lambda: random_state(14, 8, 32, 0.004, base_lo=0, base_hi=3, fill=1.0),
    "hash_like_8x4": lambda: hash_like_state(8, 4, 12, 2000, 0.3),
    "hash_like_16x8": lambda: hash_like_state(16, 8, 10, 4000, 0.3),
    "hash_like_no_base": lambda: hash_like_state(13, 6, 25, 0, 0.05),
    "domain_like_unbalanced": domain_like_state,
    "perfectly_local": perfectly_local_state,
    "heavy_unit_walk_cap": heavy_unit_state,
    "heavy_unit_tight": lambda: heavy_unit_state(delta=0.01),
    "single_unit_movable_empties": single_unit_state,
    "down_worker": lambda: down_worker_state(),
    "k1": lambda: QcutState(
        3, 1, [Fragment(u, 0, 5 + u, 9 + u) for u in range(3)], np.array([40.0])
    ),
    "zero_units": lambda: QcutState(0, 3, [], np.array([10.0, 20.0, 30.0])),
    "empty_fragments_only": lambda: QcutState(
        2, 3, [Fragment(0, 0, 0, 0), Fragment(1, 2, 0, 0)], np.full(3, 50.0)
    ),
}

ILS_SEEDS = (0, 11)
PERTURB_SEEDS = (0, 1, 2)


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:24]


def next_random(seed, consumed):
    """``random()`` of ``default_rng(seed)`` after bounded draws that took
    ``consumed`` 32-bit words: the generator has drawn ⌈consumed / 2⌉ raw
    outputs (a half-used one stays cached for the next 32-bit draw) and
    ``random()`` takes the top 53 bits of a fresh one."""
    raw = np.random.PCG64(seed).random_raw((consumed + 1) // 2 + 1)
    return (int(raw[-1]) >> 11) * 2.0**-53


def ils_fingerprint(state, seed):
    """Everything a caller can observe of one ILS run, plus the position
    the run leaves its random stream at (read off the word stream the ILS
    hands to ``perturb`` — it calls it through the module global)."""
    seen = []
    real_perturb = ils_module.perturb

    def spy(st, words, *args, **kwargs):
        seen.append(words)
        return real_perturb(st, words, *args, **kwargs)

    ils_module.perturb = spy
    try:
        res = iterated_local_search(state, max_rounds=12, seed=seed)
    finally:
        ils_module.perturb = real_perturb
    relocated = res.best_state.relocated_fragments()
    return {
        "relocated": len(relocated),
        "relocated_sha": _sha(relocated),
        "cost_trace": [[r, c] for r, c in res.cost_trace],
        "rounds": res.rounds,
        "initial_cost": res.initial_cost,
        "best_cost": res.best_cost,
        "best_imbalance": res.best_state.max_imbalance(),
        "next_random": next_random(seed, seen[-1].consumed) if seen else None,
    }


def perturb_fingerprint(state, seed):
    words = WordStream(np.random.PCG64(seed))
    out = perturb(state, words)
    return {
        "state_sha": _sha(
            (out.weighted.tolist(), out.union.tolist(), sorted(out.placement.items()))
        ),
        "moved": len(out.relocated_fragments()),
        "cost": out.cost(),
        "imbalance": out.max_imbalance(),
        "next_random": next_random(seed, words.consumed),
    }


def all_fingerprints():
    golden = {}
    for name, build in sorted(STATE_BUILDERS.items()):
        for seed in ILS_SEEDS:
            golden[f"ils/{name}/{seed}"] = ils_fingerprint(build(), seed)
        for seed in PERTURB_SEEDS:
            golden[f"perturb/{name}/{seed}"] = perturb_fingerprint(build(), seed)
    return golden


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
def test_golden_covers_every_case():
    expected = {
        f"{kind}/{name}/{seed}"
        for name in STATE_BUILDERS
        for kind, seeds in (("ils", ILS_SEEDS), ("perturb", PERTURB_SEEDS))
        for seed in seeds
    }
    assert set(_golden()) == expected
    assert len(STATE_BUILDERS) >= 20


@pytest.mark.parametrize("name", sorted(STATE_BUILDERS))
@pytest.mark.parametrize("seed", ILS_SEEDS)
def test_ils_matches_golden(name, seed):
    got = ils_fingerprint(STATE_BUILDERS[name](), seed)
    # exact equality, floats included: json round-trips float64 losslessly
    assert got == _golden()[f"ils/{name}/{seed}"]


@pytest.mark.parametrize("name", sorted(STATE_BUILDERS))
@pytest.mark.parametrize("seed", PERTURB_SEEDS)
def test_perturb_matches_golden(name, seed):
    got = perturb_fingerprint(STATE_BUILDERS[name](), seed)
    assert got == _golden()[f"perturb/{name}/{seed}"]


def test_golden_exercises_the_interesting_paths():
    """The recorded cases are only a gate if they reach the walk's edge
    cases: a multi-round ILS, an unbalanced result, a perfectly local
    start, and states where nothing can happen."""
    golden = _golden()
    full_runs = [k for k, fp in golden.items() if k.startswith("ils/") and fp["rounds"] >= 12]
    assert len(full_runs) >= 16
    assert golden["ils/k1/0"]["relocated"] == 0
    assert golden["ils/perfectly_local/0"]["initial_cost"] == 0.0
    assert golden["ils/down_worker/0"]["best_imbalance"] >= 0.25
    assert golden["ils/domain_like_unbalanced/0"]["relocated"]


if __name__ == "__main__":  # pragma: no cover - re-records the fixture
    rows = [
        f" {json.dumps(key)}: {json.dumps(fp, sort_keys=True)}"
        for key, fp in sorted(all_fingerprints().items())
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")  # one case per line
    print(f"wrote {len(rows)} fingerprints to {GOLDEN_PATH}")
