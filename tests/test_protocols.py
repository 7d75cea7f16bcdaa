"""Protocol families: construction, evaluation, reduction, serialization."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoct.protocols import (
    BangSequence,
    OneParamBB,
    Sampled,
    TanhProtocol,
    ThirdHarmonic,
    as_sampled,
    mirrored_tanh_times,
    protocol_from_dict,
    protocol_to_dict,
    segment_durations_values,
)


class TestBangSequence:
    def test_segment_lookup(self):
        p = BangSequence(2.0, 0.5, (0.5, 1.2), (0.5, -0.5, 0.0))
        np.testing.assert_array_equal(p.u([0.1, 0.5, 0.8, 1.2, 1.9, 2.0]),
                                      [0.5, -0.5, -0.5, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(p.durations, [0.5, 0.7, 0.8])

    def test_rejects_unordered_times(self):
        with pytest.raises(ValueError):
            BangSequence(2.0, 0.5, (1.2, 0.5), (0.5, -0.5, 0.5))

    def test_rejects_out_of_range_times(self):
        with pytest.raises(ValueError):
            BangSequence(2.0, 0.5, (2.5,), (0.5, -0.5))

    def test_rejects_off_alphabet_values(self):
        with pytest.raises(ValueError):
            BangSequence(2.0, 0.5, (1.0,), (0.5, 0.3))

    def test_rejects_wrong_value_count(self):
        with pytest.raises(ValueError):
            BangSequence(2.0, 0.5, (1.0,), (0.5,))


class TestOneParamBB:
    def test_no_zero_crossing_gives_single_bang(self):
        p = OneParamBB(omega_eff=0.5, T=2.0, u_max=0.5)
        seq = p.to_bang_sequence()
        assert len(seq.switch_times) == 0
        assert seq.values == (0.5,)

    def test_even_symmetry_exact(self):
        p = OneParamBB(omega_eff=2.04, T=5.3, u_max=0.5)
        s = np.linspace(0.0, 2.6, 97)
        np.testing.assert_array_equal(p.u(p.T / 2 + s), p.u(p.T / 2 - s))

    def test_odd_parity_antisymmetric(self):
        p = OneParamBB(omega_eff=2.0, T=5.0, u_max=0.5, parity="odd")
        s = np.linspace(0.01, 2.4, 57)
        np.testing.assert_array_equal(p.u(p.T / 2 + s), -p.u(p.T / 2 - s))

    def test_bang_sequence_agrees_with_direct_evaluation(self):
        p = OneParamBB(omega_eff=2.0435, T=1.69 * np.pi, u_max=0.5, sign=-1)
        seq = p.to_bang_sequence()
        t = np.linspace(0.0, p.T, 731)
        # avoid sampling exactly on a switch
        t = t[np.min(np.abs(t[:, None] - np.asarray(seq.switch_times)[None, :]),
                     axis=1) > 1e-9]
        np.testing.assert_array_equal(p.u(t), seq.u(t))

    def test_middle_bangs_equal(self):
        seq = OneParamBB(omega_eff=1.99, T=3.958 * np.pi, u_max=0.2).to_bang_sequence()
        durs = seq.durations
        assert len(durs) >= 5
        np.testing.assert_allclose(durs[1:-1], np.pi / 1.99, rtol=1e-12)
        assert abs(durs[0] - durs[-1]) < 1e-12


class TestTanh:
    def test_mirror_constraint(self):
        times = mirrored_tanh_times([0.5, 1.1], 4.0)
        assert times == (0.5, 1.1, 2.9, 3.5)
        with pytest.raises(ValueError):
            mirrored_tanh_times([2.5], 4.0)

    def test_even_about_midpoint(self):
        p = TanhProtocol(u_max=0.2, T=4.0, beta=4.0,
                         times=mirrored_tanh_times([0.5, 1.1], 4.0))
        s = np.linspace(0.0, 2.0, 101)
        np.testing.assert_allclose(p.u(2.0 + s), p.u(2.0 - s), atol=1e-14)

    def test_sharp_limit_matches_bang_sequence(self):
        times = mirrored_tanh_times([0.5, 1.1], 4.0)
        p = TanhProtocol(u_max=0.2, T=4.0, beta=1e6, times=times)
        seq = BangSequence(4.0, 0.2, times, (-0.2, 0.2, -0.2, 0.2, -0.2))
        t = np.linspace(0.0, 4.0, 801)
        away = np.min(np.abs(t[:, None] - np.asarray(times)[None, :]), axis=1) > 1e-4
        assert np.max(np.abs(p.u(t[away]) - seq.u(t[away]))) < 1e-4

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.05, 0.45), min_size=2, max_size=4, unique=True))
    def test_amplitude_bound_for_separated_times(self, fracs):
        # times separated by at least a tanh width stay within the bound
        T = 6.0
        first = np.sort(np.asarray(fracs)) * T / 2
        if np.min(np.diff(np.concatenate([first, [T / 2]]))) < 0.3:
            return
        p = TanhProtocol(u_max=0.2, T=T, beta=4.0,
                         times=mirrored_tanh_times(first, T))
        t = np.linspace(0.0, T, 4001)
        assert np.max(np.abs(p.u(t))) <= 0.2 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 20.0), st.floats(0.01, 3.0), st.floats(0.01, 1000.0),
           st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10, unique=True))
    def test_amplitude_bound_for_any_admissible_times(self, T, u_max, beta, fracs):
        # sorted times make the alternating tanh sum lie in [0, 2), so
        # u = u_max (sum - 1) never leaves [-u_max, u_max], however close
        # the switchings sit
        times = np.sort(np.asarray(fracs[:len(fracs) // 2 * 2])) * T
        if np.any(np.diff(times) <= 0.0):
            return
        p = TanhProtocol(u_max=u_max, T=T, beta=beta, times=tuple(times))
        t = np.concatenate([np.linspace(0.0, T, 2001), times,
                            0.5 * (times[1:] + times[:-1])])
        assert np.max(np.abs(p.u(t))) <= u_max * (1.0 + 1e-12)

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (1000,), (1800, 2), (3, 5, 4)])
    def test_u_has_the_bits_of_one_tanh_per_switching_time(self, shape):
        # the reference loop takes one np.tanh per switching time and adds
        # the terms in order; u takes one np.tanh over all of them
        rng = np.random.default_rng(len(shape))
        T = 28.0
        p = TanhProtocol(u_max=0.2, T=T, beta=4.0,
                         times=mirrored_tanh_times(np.sort(rng.uniform(0.5, 13.5, 5)), T))
        t = rng.uniform(0.0, T, shape)
        acc = -np.ones_like(t)
        for i, ti in enumerate(p.times):
            acc = acc + (-1.0) ** i * np.tanh(p.beta * (t - ti))
        assert np.shape(p.u(t)) == shape
        assert np.asarray(p.u(t)).tobytes() == np.asarray(p.u_max * acc).tobytes()

    @pytest.mark.parametrize("field, bad", [("u_max", -0.2), ("beta", -3.0), ("beta", 0.0),
                                            ("beta", float("nan")), ("T", float("inf"))])
    def test_rejects_nonpositive_or_nonfinite_parameters(self, field, bad):
        kw = {"u_max": 0.2, "T": 4.0, "beta": 4.0, "times": (0.5, 3.5)}
        kw[field] = bad
        with pytest.raises(ValueError):
            TanhProtocol(**kw)


class TestThirdHarmonic:
    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            ThirdHarmonic(u_max=0.2, T=5.0, omega=2.0, ratio=-0.2)
        with pytest.raises(ValueError):
            ThirdHarmonic(u_max=0.2, T=5.0, omega=2.0, ratio=1.1)

    def test_zero_ratio_reduces_to_cosine(self):
        p = ThirdHarmonic(u_max=0.2, T=5.0, omega=2.1, ratio=0.0)
        t = np.linspace(0.0, 5.0, 100)
        np.testing.assert_allclose(p.u(t), 0.2 * np.cos(2.1 * (t - 2.5)), atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.125, 1.0), st.floats(1.5, 2.5))
    def test_amplitude_bound_over_ratio_range(self, R, w):
        p = ThirdHarmonic(u_max=0.2, T=8.0, omega=w, ratio=R)
        t = np.linspace(0.0, 8.0, 4001)
        assert np.max(np.abs(p.u(t))) <= 0.2 + 1e-9


@pytest.mark.parametrize("cls, kw, field", [
    (OneParamBB, {"omega_eff": 2.0, "T": 5.0, "u_max": 0.2}, "omega_eff"),
    (OneParamBB, {"omega_eff": 2.0, "T": 5.0, "u_max": 0.2}, "T"),
    (OneParamBB, {"omega_eff": 2.0, "T": 5.0, "u_max": 0.2}, "u_max"),
    (BangSequence, {"T": 2.0, "u_max": 0.5, "switch_times": (1.0,), "values": (0.5, -0.5)}, "T"),
    (BangSequence, {"T": 2.0, "u_max": 0.5, "switch_times": (), "values": (0.0,)}, "u_max"),
    (ThirdHarmonic, {"u_max": 0.2, "T": 5.0, "omega": 2.0, "ratio": 0.0}, "u_max"),
    (ThirdHarmonic, {"u_max": 0.2, "T": 5.0, "omega": 2.0, "ratio": 0.0}, "T"),
    (ThirdHarmonic, {"u_max": 0.2, "T": 5.0, "omega": 2.0, "ratio": 0.0}, "omega"),
    (Sampled, {"T": 2.0, "u_max": 0.5, "values": np.zeros(4)}, "T"),
    (Sampled, {"T": 2.0, "u_max": 0.5, "values": np.zeros(4)}, "u_max"),
])
def test_constructors_reject_nan(cls, kw, field):
    with pytest.raises(ValueError, match=field):
        cls(**{**kw, field: float("nan")})


class TestSampledAndReduction:
    def test_cell_lookup(self):
        p = Sampled(T=1.0, u_max=1.0, values=np.array([0.1, -0.2, 0.3, -0.4]))
        np.testing.assert_array_equal(p.u([0.0, 0.2, 0.3, 0.6, 0.99]),
                                      [0.1, 0.1, -0.2, 0.3, -0.4])
        assert p.dt == 0.25

    def test_values_frozen(self):
        p = Sampled(T=1.0, u_max=1.0, values=np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            p.values[0] = 9.0

    def test_as_sampled_respects_amplitude(self):
        p = ThirdHarmonic(u_max=0.3, T=np.pi / 0.3, omega=2.0, ratio=0.0)
        s = as_sampled(p)
        assert np.max(np.abs(s.values)) <= 0.3 + 1e-12

    def test_segments_of_bang(self):
        p = BangSequence(2.0, 0.5, (0.4,), (0.5, -0.5))
        durs, vals = segment_durations_values(p)
        np.testing.assert_allclose(durs, [0.4, 1.6])
        np.testing.assert_array_equal(vals, [0.5, -0.5])


class TestSerialization:
    @pytest.mark.parametrize("proto", [
        BangSequence(2.0, 0.5, (0.5, 1.2), (0.5, -0.5, 0.0)),
        OneParamBB(omega_eff=2.04, T=5.3, u_max=0.5, sign=-1, parity="odd"),
        TanhProtocol(u_max=0.2, T=4.0, beta=4.0,
                     times=mirrored_tanh_times([0.5, 1.1], 4.0)),
        ThirdHarmonic(u_max=0.2, T=5.0, omega=2.02, ratio=-0.11),
        Sampled(T=1.0, u_max=0.4, values=np.array([0.1, -0.2, 0.3])),
    ])
    def test_round_trip(self, proto):
        d = protocol_to_dict(proto)
        back = protocol_from_dict(d)
        t = np.linspace(0.0, proto.T * (1 - 1e-12), 211)
        np.testing.assert_allclose(back.u(t), proto.u(t), atol=1e-12)
        assert back.T == proto.T and back.u_max == proto.u_max

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            protocol_from_dict({"variant": "Nope", "T": 1.0, "u_max": 1.0, "params": {}})

    @pytest.mark.parametrize("d", [
        {"variant": "ThirdHarmonic", "T": -1.0, "u_max": float("nan"),
         "params": {"omega": 2.0, "ratio": 0.0}},
        {"variant": "Tanh", "T": 4.0, "u_max": -0.2,
         "params": {"beta": -3.0, "times": [0.5, 3.5]}},
    ])
    def test_invalid_smooth_variant_rejected(self, d):
        with pytest.raises(ValueError):
            protocol_from_dict(d)


def _spans(draw):
    return draw(st.floats(0.5, 50.0)), draw(st.floats(0.01, 2.0))


@st.composite
def protocols(draw):
    """One valid protocol of any of the five variants."""
    T, u_max = _spans(draw)
    variant = draw(st.sampled_from(["bang", "bb1", "tanh", "third", "sampled"]))
    if variant == "bang":
        ks = sorted(draw(st.lists(st.integers(1, 999), max_size=6, unique=True)))
        vals = draw(st.lists(st.sampled_from([u_max, -u_max, 0.0]),
                             min_size=len(ks) + 1, max_size=len(ks) + 1))
        return BangSequence(T, u_max, tuple(T * k / 1000 for k in ks), tuple(vals))
    if variant == "bb1":
        return OneParamBB(omega_eff=draw(st.floats(0.5, 4.0)), T=T, u_max=u_max,
                          sign=draw(st.sampled_from([1, -1])),
                          parity=draw(st.sampled_from(["even", "odd"])))
    if variant == "tanh":
        ks = draw(st.lists(st.integers(1, 499), min_size=1, max_size=4, unique=True))
        return TanhProtocol(u_max=u_max, T=T, beta=draw(st.floats(0.5, 20.0)),
                            times=mirrored_tanh_times([T * k / 1000 for k in ks], T))
    if variant == "third":
        return ThirdHarmonic(u_max=u_max, T=T, omega=draw(st.floats(1.0, 3.0)),
                             ratio=draw(st.floats(-0.125, 1.0)))
    values = draw(st.lists(st.floats(-u_max, u_max), min_size=1, max_size=50))
    return Sampled(T=T, u_max=u_max, values=np.array(values))


@settings(max_examples=200, deadline=None)
@given(protocols())
def test_dict_round_trip_is_exact(proto):
    d = protocol_to_dict(proto)
    back = protocol_from_dict(json.loads(json.dumps(d)))
    assert type(back) is type(proto)
    assert protocol_to_dict(back) == d


# a valid instance of each variant, and the fields that carry floats; a
# tuple or array field is corrupted in one entry
VALID = [
    (BangSequence, {"T": 2.0, "u_max": 0.5, "switch_times": (0.5, 1.2),
                    "values": (0.5, -0.5, 0.0)}),
    (OneParamBB, {"omega_eff": 2.0, "T": 5.0, "u_max": 0.2}),
    (TanhProtocol, {"u_max": 0.2, "T": 4.0, "beta": 4.0, "times": (0.5, 1.1, 2.9, 3.5)}),
    (ThirdHarmonic, {"u_max": 0.2, "T": 5.0, "omega": 2.0, "ratio": -0.1}),
    (Sampled, {"T": 2.0, "u_max": 0.5, "values": np.array([0.1, -0.2, 0.3])}),
]
FLOAT_FIELDS = [(cls, kw, name) for cls, kw in VALID for name, v in kw.items()
                if isinstance(v, (float, tuple, np.ndarray))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FLOAT_FIELDS), st.sampled_from([math.nan, math.inf, -math.inf]),
       st.integers(0, 3))
def test_constructors_refuse_nonfinite_input(case, bad, index):
    cls, kw, name = case
    value = kw[name]
    if isinstance(value, float):
        value = bad
    else:
        entries = list(value)
        entries[index % len(entries)] = bad
        value = np.array(entries) if isinstance(value, np.ndarray) else tuple(entries)
    with pytest.raises(ValueError, match=name):
        cls(**{**kw, name: value})
