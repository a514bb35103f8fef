import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biofuse.dempster import (Frame, GENUINE, IMPOSTOR, MassFunction,
                              VERIFICATION_FRAME, belief, bpa_from_score,
                              combine_dempster, decide, discount,
                              plausibility, vacuous)
from biofuse.errors import (DegenerateCalibration, FrameMismatch,
                            TotalConflict)

F2 = VERIFICATION_FRAME
G = F2.subset([GENUINE])
I = F2.subset([IMPOSTOR])
TH = F2.theta


def mf(d):
    return MassFunction(F2, d)


# --- independent oracle over frozensets of labels ---

def oracle_combine(m1_labels, m2_labels):
    """Brute-force double loop over label-set pairs (no bitmasks)."""
    conflict = 0.0
    raw = {}
    for a, wa in m1_labels.items():
        for b, wb in m2_labels.items():
            meet = a & b
            if not meet:
                conflict += wa * wb
            else:
                raw[meet] = raw.get(meet, 0.0) + wa * wb
    return {c: v / (1.0 - conflict) for c, v in raw.items()}, conflict


def as_labels(m: MassFunction):
    return {frozenset(m.frame.labels(mask)): value
            for mask, value in m.masses.items()}


def random_mass(frame: Frame, rng) -> MassFunction:
    subsets = list(range(1, frame.theta + 1))
    raw = rng.random(len(subsets))
    raw = raw / raw.sum()
    return MassFunction(frame, dict(zip(subsets, raw)))


class TestFrame:
    def test_subset_encoding(self):
        f = Frame(("a", "b", "c"))
        assert f.subset(["a"]) == 1
        assert f.subset(["c", "a"]) == 5
        assert f.theta == 7
        assert f.labels(5) == ("a", "c")
        assert f.complement(1) == 6

    def test_size_limits(self):
        Frame(tuple("abcdefghijklmnop"))  # 16 is fine
        with pytest.raises(ValueError):
            Frame(tuple("abcdefghijklmnopq"))
        with pytest.raises(ValueError):
            Frame(())

    def test_distinct_labels(self):
        with pytest.raises(ValueError):
            Frame(("x", "x"))

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            Frame(("a", "b")).subset(["z"])


class TestMassFunctionValidation:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError):
            mf({G: 0.5, TH: 0.4})

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            mf({G: 1.2, TH: -0.2})

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            mf({0: 0.5, TH: 0.5})

    def test_out_of_frame_subset_rejected(self):
        with pytest.raises(ValueError):
            mf({8: 1.0})

    def test_zero_masses_dropped(self):
        m = mf({G: 1.0, I: 0.0})
        assert m.focal_elements() == (G,)
        assert m.mass(I) == 0.0


class TestCombineWorkedValues:
    def test_agreeing_simple_supports(self):
        # ({g}:.6, TH:.4) + ({g}:.5, TH:.5): pairs g*g=.3, g*TH=.3,
        # TH*g=.2 -> {g}:.8; TH*TH=.2 -> TH:.2; K=0
        combined, conflict = combine_dempster(
            mf({G: 0.6, TH: 0.4}), mf({G: 0.5, TH: 0.5}))
        assert conflict == 0.0
        assert combined.mass(G) == pytest.approx(0.8, abs=1e-12)
        assert combined.mass(TH) == pytest.approx(0.2, abs=1e-12)

    def test_conflicting_simple_supports(self):
        # K = .9*.8 = .72; g: .9*.2/.28, i: .1*.8/.28, TH: .1*.2/.28
        combined, conflict = combine_dempster(
            mf({G: 0.9, TH: 0.1}), mf({I: 0.8, TH: 0.2}))
        assert conflict == pytest.approx(0.72, abs=1e-12)
        assert combined.mass(G) == pytest.approx(0.18 / 0.28, abs=1e-12)
        assert combined.mass(I) == pytest.approx(0.08 / 0.28, abs=1e-12)
        assert combined.mass(TH) == pytest.approx(0.02 / 0.28, abs=1e-12)

    def test_vacuous_is_two_sided_identity(self):
        m = mf({G: 0.37, I: 0.21, TH: 0.42})
        for args in ((m, vacuous(F2)), (vacuous(F2), m)):
            combined, conflict = combine_dempster(*args)
            assert conflict == 0.0
            assert combined.masses == m.masses

    def test_total_conflict(self):
        with pytest.raises(TotalConflict):
            combine_dempster(mf({G: 1.0}), mf({I: 1.0}))
        # K = 1 - 5e-10 passes the K cut-off, but no mass is left over
        with pytest.raises(TotalConflict):
            combine_dempster(mf({G: 1.0 - 5e-10}), mf({I: 1.0}))

    def test_frame_mismatch(self):
        other = MassFunction(Frame(("a", "b")), {3: 1.0})
        with pytest.raises(FrameMismatch):
            combine_dempster(mf({TH: 1.0}), other)


class TestCombineProperties:
    def test_oracle_equivalence_random_frames(self):
        rng = np.random.default_rng(2024)
        alphabets = ["ab", "abc", "abcd"]
        for trial in range(300):
            frame = Frame(tuple(alphabets[trial % 3]))
            m1 = random_mass(frame, rng)
            m2 = random_mass(frame, rng)
            combined, conflict = combine_dempster(m1, m2)
            expected, expected_k = oracle_combine(as_labels(m1), as_labels(m2))
            assert abs(conflict - expected_k) <= 1e-12
            got = as_labels(combined)
            assert set(got) == set(expected)
            for key in expected:
                assert abs(got[key] - expected[key]) <= 1e-12

    def test_commutative_exactly(self):
        rng = np.random.default_rng(7)
        frame = Frame(("a", "b", "c", "d"))
        for _ in range(100):
            m1 = random_mass(frame, rng)
            m2 = random_mass(frame, rng)
            ab, k_ab = combine_dempster(m1, m2)
            ba, k_ba = combine_dempster(m2, m1)
            assert k_ab == k_ba
            assert ab.masses == ba.masses

    def test_associative_within_tolerance(self):
        rng = np.random.default_rng(8)
        frame = Frame(("a", "b", "c"))
        for _ in range(100):
            m1, m2, m3 = (random_mass(frame, rng) for _ in range(3))
            left, _ = combine_dempster(combine_dempster(m1, m2)[0], m3)
            right, _ = combine_dempster(m1, combine_dempster(m2, m3)[0])
            for mask in set(left.masses) | set(right.masses):
                assert abs(left.mass(mask) - right.mass(mask)) <= 1e-9

    def test_output_satisfies_invariants(self):
        rng = np.random.default_rng(9)
        frame = Frame(("a", "b", "c", "d"))
        for _ in range(50):
            combined, conflict = combine_dempster(
                random_mass(frame, rng), random_mass(frame, rng))
            assert 0.0 <= conflict < 1.0
            assert abs(math.fsum(combined.masses.values()) - 1.0) <= 1e-9
            assert all(v > 0 for v in combined.masses.values())
            assert 0 not in combined.masses


class TestBeliefPlausibility:
    def test_worked_values(self):
        m = mf({G: 0.5, I: 0.2, TH: 0.3})
        assert belief(m, G) == pytest.approx(0.5, abs=1e-12)
        assert plausibility(m, G) == pytest.approx(0.8, abs=1e-12)

    def test_belief_of_theta_is_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = random_mass(F2, rng)
            assert belief(m, TH) == pytest.approx(1.0, abs=1e-12)

    def test_empty_set(self):
        m = mf({G: 0.5, TH: 0.5})
        assert belief(m, 0) == 0.0
        assert plausibility(m, 0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), subset=st.integers(1, 15))
    def test_belief_le_plausibility_and_duality(self, seed, subset):
        frame = Frame(("a", "b", "c", "d"))
        m = random_mass(frame, np.random.default_rng(seed))
        bel = belief(m, subset)
        pl = plausibility(m, subset)
        assert bel <= pl + 1e-12
        assert pl == pytest.approx(1.0 - belief(m, frame.complement(subset)),
                                   abs=1e-12)


class TestDiscount:
    def test_alpha_one_is_identity(self):
        m = mf({G: 0.5, I: 0.2, TH: 0.3})
        assert discount(m, 1.0).masses == m.masses

    def test_alpha_zero_is_vacuous(self):
        m = mf({G: 0.5, I: 0.2, TH: 0.3})
        assert discount(m, 0.0).masses == {TH: 1.0}

    def test_worked_value(self):
        m = discount(mf({G: 0.5, I: 0.2, TH: 0.3}), 0.9)
        assert m.mass(G) == pytest.approx(0.45, abs=1e-12)
        assert m.mass(I) == pytest.approx(0.18, abs=1e-12)
        assert m.mass(TH) == pytest.approx(0.37, abs=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            discount(vacuous(F2), 1.5)


class TestBpaFromScore:
    def test_score_at_max(self):
        m = bpa_from_score(10.0, (0.0, 10.0), 0.9)
        assert m.mass(G) == pytest.approx(0.9, abs=1e-12)
        assert m.mass(I) == 0.0
        assert m.mass(TH) == pytest.approx(0.1, abs=1e-12)

    def test_score_at_midpoint(self):
        m = bpa_from_score(5.0, (0.0, 10.0), 0.9)
        assert m.mass(G) == pytest.approx(0.45, abs=1e-12)
        assert m.mass(I) == pytest.approx(0.45, abs=1e-12)
        assert m.mass(TH) == pytest.approx(0.1, abs=1e-12)

    def test_zero_alpha_is_vacuous(self):
        m = bpa_from_score(3.0, (0.0, 10.0), 0.0)
        assert m.masses == {TH: 1.0}

    def test_scores_clamped_to_calibration(self):
        high = bpa_from_score(99.0, (0.0, 10.0), 0.8)
        low = bpa_from_score(-99.0, (0.0, 10.0), 0.8)
        assert high.mass(G) == pytest.approx(0.8, abs=1e-12)
        assert low.mass(I) == pytest.approx(0.8, abs=1e-12)

    def test_degenerate_calibration(self):
        with pytest.raises(DegenerateCalibration):
            bpa_from_score(1.0, (2.0, 2.0), 0.9)
        with pytest.raises(DegenerateCalibration):
            bpa_from_score(1.0, (3.0, 2.0), 0.9)


class TestDecide:
    def test_worked_acceptance(self):
        # combined {g} = .8*.7 + .8*.3 + .2*.7 = 0.94
        decision = decide(mf({G: 0.8, TH: 0.2}), mf({G: 0.7, TH: 0.3}), 0.5)
        assert decision.accepted
        assert decision.conflict == 0.0
        assert decision.combined.mass(G) == pytest.approx(0.94, abs=1e-12)

    def test_vacuous_evidence_rejected(self):
        decision = decide(vacuous(F2), vacuous(F2), 0.5)
        assert not decision.accepted
        assert decision.combined.mass(G) == 0.0

    def test_zero_threshold_always_accepts(self):
        decision = decide(vacuous(F2), vacuous(F2), 0.0)
        assert decision.accepted

    def test_total_conflict_propagates(self):
        with pytest.raises(TotalConflict):
            decide(mf({G: 1.0}), mf({I: 1.0}), 0.5)

    def test_requires_verification_frame(self):
        other = MassFunction(Frame(("a", "b")), {3: 1.0})
        with pytest.raises(FrameMismatch):
            decide(other, vacuous(F2), 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        g1=st.floats(0.0, 1.0), rest1=st.floats(0.0, 1.0),
        g2=st.floats(0.0, 1.0), rest2=st.floats(0.0, 1.0),
        delta=st.floats(0.0, 1.0), tau=st.floats(0.0, 1.0),
    )
    # K within ~2e-12 of 1: normalising by 1 - K left masses summing to
    # 1.00002, and decide raised a plain ValueError
    @example(g1=0, rest1=1e-12, g2=1e-12, rest2=1, delta=1, tau=0)
    def test_monotone_in_evidence(self, g1, rest1, g2, rest2, delta, tau):
        # moving mass from TH onto {genuine} never flips accept -> reject
        def masses(g, rest):
            i = (1.0 - g) * rest
            return {G: g, I: i, TH: max(0.0, 1.0 - g - i)}

        m1 = masses(g1, rest1)
        shift = delta * m1[TH]
        boosted = {G: m1[G] + shift, I: m1[I], TH: m1[TH] - shift}
        m2 = mf(masses(g2, rest2))
        try:
            before = decide(mf(m1), m2, tau)
            after = decide(mf(boosted), m2, tau)
        except TotalConflict:
            return
        assert after.combined.mass(G) >= before.combined.mass(G) - 1e-12
        if before.accepted:
            assert after.combined.mass(G) >= before.threshold - 1e-12


class TestSerialization:
    def test_roundtrip(self):
        m = mf({G: 0.5, I: 0.2, TH: 0.3})
        doc = json.loads(json.dumps(m.to_dict()))
        clone = MassFunction.from_dict(doc)
        assert clone.frame == m.frame
        assert clone.masses == m.masses

    def test_keys_are_sorted_label_lists(self):
        m = mf({TH: 1.0})
        assert list(m.to_dict()["masses"]) == ["genuine,impostor"]
