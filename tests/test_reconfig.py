import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uwbphy import (
    CM1_LIKE,
    DEFAULT_PULSE,
    DEFAULT_SAMPLE_RATE,
    IDENTITY_CHANNEL,
    CodeBank,
    FormatError,
    InvalidParams,
    PhyState,
    ReconfigRequest,
    StaleRequest,
    SweepConfig,
    ThCode,
    ThParams,
    UnknownCode,
    apply_reconfiguration,
    data_rate,
    draw_channel,
    load_reconfig_script,
    point_seeds,
    run_session,
)

from uwbphy import cli, reconfig
from uwbphy.receiver import simulate_links

from conftest import FAST_PULSE, RATE, make_mod, random_bits

WIDE = ThCode(offsets=(2, 0, 3, 1, 7, 4, 6, 5), code_id="wide")
# no positional collisions with WIDE in any frame
OTHER = ThCode(offsets=(5, 3, 6, 0, 2, 7, 1, 4), code_id="other")
# valid for any n_c >= 4, so it survives frame-length changes
NARROW = ThCode(offsets=(2, 0, 3, 1), code_id="narrow")


def make_state(scheme="bpam", t_c=5e-9, n_c=8, active="wide", epoch=0):
    bank = CodeBank(
        entries={"wide": WIDE, "other": OTHER, "narrow": NARROW},
        active_id=active,
    )
    return PhyState(
        params=ThParams(t_c=t_c, n_c=n_c),
        code_bank=bank,
        mod=make_mod(scheme),
        epoch=epoch,
        pulse=FAST_PULSE,
        sample_rate=RATE,
    )


class TestPhyState:
    def test_valid_state(self):
        state = make_state()
        assert state.code_bank.active() is WIDE
        assert state.epoch == 0

    def test_states_share_one_sampled_pulse(self):
        # every state of one pulse and rate, and a sweep of them, links
        # through one read-only template (see sample_pulse)
        a, b = make_state(), make_state(scheme="ppm", n_c=4, active="narrow")
        sweep = SweepConfig("bpam", (0.0,), pulse=FAST_PULSE, sample_rate=RATE)
        template = a.link_end.template.samples
        assert b.link_end.template.samples is template
        assert sweep.receiver.template.samples is template
        assert not template.flags.writeable

    def test_default_pulse(self):
        # as a sweep's (SweepConfig.pulse)
        state = PhyState(
            params=ThParams(5e-9, 8),
            code_bank=CodeBank(entries={"wide": WIDE}, active_id="wide"),
            mod=make_mod("bpam"),
        )
        assert state.pulse == DEFAULT_PULSE

    def test_default_sample_rate(self):
        state = PhyState(
            params=ThParams(t_c=5e-9, n_c=8),
            code_bank=CodeBank(entries={"wide": WIDE}, active_id="wide"),
            mod=make_mod("bpam"),
            pulse=FAST_PULSE,
        )
        assert state.sample_rate == DEFAULT_SAMPLE_RATE

    def test_negative_epoch(self):
        with pytest.raises(InvalidParams):
            make_state(epoch=-1)

    def test_code_must_fit_frame(self):
        # WIDE uses chips up to 7, impossible with n_c = 4
        with pytest.raises(InvalidParams):
            make_state(n_c=4, active="wide")
        make_state(n_c=4, active="narrow")

    def test_chip_count_ceiling(self):
        with pytest.raises(InvalidParams):
            make_state(n_c=2048)

    def test_pulse_must_fit_chip(self):
        # 2 ns chip = 100 samples < the 121-sample pulse support
        with pytest.raises(InvalidParams):
            make_state(t_c=2e-9)

    def test_off_grid_chip(self):
        with pytest.raises(InvalidParams):
            PhyState(
                params=ThParams(t_c=5e-9 + 1e-13, n_c=8),
                code_bank=CodeBank(entries={"wide": WIDE}, active_id="wide"),
                mod=make_mod("bpam"),
                pulse=FAST_PULSE,
                sample_rate=RATE,
            )

    def test_ppm_shift_counts_against_chip(self):
        # 121-sample pulse alone fits a 4 ns chip (200 samples) but not
        # together with the 120-sample PPM shift
        make_state(scheme="bpam", t_c=4e-9)
        with pytest.raises(InvalidParams):
            make_state(scheme="ppm", t_c=4e-9)


class TestReconfigRequest:
    def test_negative_frame(self):
        with pytest.raises(InvalidParams):
            ReconfigRequest(effective_frame=-1)

    def test_asserted_needs_payload(self):
        with pytest.raises(InvalidParams):
            ReconfigRequest(effective_frame=10, reconfig_signal=True)

    def test_unasserted_payload_is_fine(self):
        ReconfigRequest(effective_frame=10)
        ReconfigRequest(effective_frame=10, new_n_c=16)

    def test_asserted_with_payload(self):
        req = ReconfigRequest(
            effective_frame=10, new_t_c=10e-9, reconfig_signal=True
        )
        assert req.reconfig_signal


class TestApplyReconfiguration:
    def test_gated_request_returns_same_object(self):
        state = make_state()
        req = ReconfigRequest(effective_frame=10, new_n_c=16)
        assert apply_reconfiguration(state, req, current_frame=0) is state

    def test_stale_request(self):
        state = make_state()
        req = ReconfigRequest(
            effective_frame=10, new_n_c=16, reconfig_signal=True
        )
        with pytest.raises(StaleRequest):
            apply_reconfiguration(state, req, current_frame=10)
        with pytest.raises(StaleRequest):
            apply_reconfiguration(state, req, current_frame=11)
        apply_reconfiguration(state, req, current_frame=9)

    def test_unknown_code(self):
        state = make_state()
        req = ReconfigRequest(
            effective_frame=10, new_code_id="nope", reconfig_signal=True
        )
        with pytest.raises(UnknownCode):
            apply_reconfiguration(state, req, current_frame=0)

    def test_halving_tc_doubles_rate(self):
        state = make_state(t_c=10e-9)
        req = ReconfigRequest(
            effective_frame=100, new_t_c=5e-9, reconfig_signal=True
        )
        new = apply_reconfiguration(state, req, current_frame=0)
        assert data_rate(new.params) == pytest.approx(
            2 * data_rate(state.params), rel=1e-12
        )
        assert new.epoch == 100

    def test_unchanged_fields_carry_over(self):
        state = make_state()
        req = ReconfigRequest(
            effective_frame=50, new_code_id="other", reconfig_signal=True
        )
        new = apply_reconfiguration(state, req, current_frame=0)
        assert new.params == state.params
        assert new.mod == state.mod
        assert new.code_bank.active() is OTHER
        assert state.code_bank.active() is WIDE

    def test_invalid_merge_leaves_state_usable(self):
        state = make_state(active="wide")
        req = ReconfigRequest(
            effective_frame=10, new_n_c=4, reconfig_signal=True
        )  # WIDE needs n_c >= 8
        with pytest.raises(InvalidParams):
            apply_reconfiguration(state, req, current_frame=0)
        assert state.params.n_c == 8
        assert state.code_bank.active() is WIDE

    @given(
        t_c=st.sampled_from([None, 2e-9, 4e-9, 5e-9, 10e-9, 7.77e-9]),
        n_c=st.sampled_from([None, 4, 8, 16, 2048]),
        code=st.sampled_from([None, "wide", "narrow", "ghost"]),
    )
    def test_all_or_nothing(self, t_c, n_c, code):
        # any outcome is either a fully valid new state or an exception
        # with the old state intact; never a half-applied hybrid
        state = make_state()
        if t_c is None and n_c is None and code is None:
            return
        req = ReconfigRequest(
            effective_frame=10,
            new_t_c=t_c,
            new_n_c=n_c,
            new_code_id=code,
            reconfig_signal=True,
        )
        try:
            new = apply_reconfiguration(state, req, current_frame=0)
        except (InvalidParams, UnknownCode):
            assert state.params == ThParams(5e-9, 8)
            assert state.code_bank.active_id == "wide"
            return
        # PhyState validates jointly on construction, so reaching here
        # means the merged set is coherent
        assert new.epoch == 10
        assert new.params.t_c == (5e-9 if t_c is None else t_c)
        assert new.params.n_c == (8 if n_c is None else n_c)
        assert new.code_bank.active_id == ("wide" if code is None else code)


def asserted(frame, **kw):
    return ReconfigRequest(effective_frame=frame, reconfig_signal=True, **kw)


class TestRunSession:
    def test_empty_schedule_is_plain_loopback(self):
        bits = random_bits(1, 400)
        result = run_session(bits, [], make_state())
        assert len(result.segments) == 1
        seg = result.segments[0]
        assert seg.start_frame == 0
        assert seg.n_bits == 400
        assert seg.errors == 0 and seg.ber == 0.0
        np.testing.assert_array_equal(seg.decoded, bits)
        assert result.total_bits == 400
        assert result.total_errors == 0

    def test_synchronized_code_swap_is_lossless(self):
        bits = random_bits(2, 1000)
        result = run_session(
            bits,
            [asserted(500, new_code_id="other")],
            make_state(),
            ebn0_db=12.0,
            rng_seed=11,
        )
        assert [s.start_frame for s in result.segments] == [0, 500]
        assert [s.code_id for s in result.segments] == ["wide", "other"]
        assert [s.n_bits for s in result.segments] == [500, 500]
        # 12 dB is deep in the BPAM waterfall; 1000 bits decode clean
        assert result.total_errors == 0

    def test_fault_injected_swap_garbles_second_segment(self):
        bits = random_bits(3, 10_000)
        result = run_session(
            bits,
            [asserted(2000, new_code_id="other")],
            make_state(),
            ebn0_db=10.0,
            rng_seed=12,
            fault_inject=True,
        )
        first, second = result.segments
        assert first.ber <= 1e-3  # matched codes at 10 dB: near-free
        assert second.n_bits == 8000
        assert 0.4 <= second.ber <= 0.6

    def test_gated_request_changes_nothing(self):
        bits = random_bits(4, 600)
        gated = ReconfigRequest(effective_frame=300, new_code_id="other")
        with_gated = run_session(bits, [gated], make_state(), ebn0_db=9.0)
        without = run_session(bits, [], make_state(), ebn0_db=9.0)
        assert len(with_gated.segments) == 1
        np.testing.assert_array_equal(
            with_gated.segments[0].decoded, without.segments[0].decoded
        )

    def test_segment_boundaries_follow_schedule(self):
        bits = random_bits(5, 1000)
        schedule = [
            asserted(200, new_t_c=10e-9),
            asserted(500, new_code_id="narrow"),
            asserted(900, new_n_c=16),
        ]
        result = run_session(bits, schedule, make_state())
        assert [s.start_frame for s in result.segments] == [0, 200, 500, 900]
        assert [s.n_bits for s in result.segments] == [200, 300, 400, 100]
        assert result.total_errors == 0

    def test_schedule_may_be_an_iterator(self):
        # read once: checking the order must not use up the requests
        schedule = [asserted(200, new_t_c=10e-9), asserted(500, new_n_c=16)]
        result = run_session(random_bits(5, 800), iter(schedule), make_state())
        assert [s.start_frame for s in result.segments] == [0, 200, 500]

    @pytest.mark.parametrize("fault_inject", [False, True])
    def test_pulse_sampled_once_per_state(self, monkeypatch, fault_inject):
        # a state's link end is built when the state is validated and
        # serves every segment it sends or receives: four states here
        calls = []
        sample = reconfig.sample_pulse
        monkeypatch.setattr(
            reconfig, "sample_pulse",
            lambda *args: calls.append(args) or sample(*args),
        )
        schedule = [
            asserted(200, new_t_c=10e-9),
            asserted(500, new_code_id="narrow"),
            asserted(900, new_n_c=16),
        ]
        result = run_session(
            random_bits(5, 1000), schedule, make_state(), ebn0_db=8.0,
            fault_inject=fault_inject,
        )
        assert len(result.segments) == 4
        assert len(calls) == 4

    def test_throughput_tracks_chip_time(self):
        bits = random_bits(6, 500)
        schedule = [
            asserted(100, new_t_c=10e-9),
            asserted(200, new_t_c=20e-9),
            asserted(300, new_t_c=2.5e-9),
            asserted(400, new_t_c=4e-9),
        ]
        result = run_session(bits, schedule, make_state(t_c=5e-9))
        expected_tc = [5e-9, 10e-9, 20e-9, 2.5e-9, 4e-9]
        assert [s.t_c for s in result.segments] == expected_tc
        for seg, t_c in zip(result.segments, expected_tc):
            assert seg.throughput_bps == pytest.approx(1.0 / t_c, rel=1e-12)
        assert result.total_errors == 0

    def test_throughput_is_the_data_rate(self):
        # n / (n * t_c) would read 99999999.99999999 here
        state = make_state(t_c=10e-9)
        [seg] = run_session(random_bits(13, 2000), [], state).segments
        assert seg.throughput_bps == data_rate(state.params)

    def test_identity_channel_changes_nothing(self):
        bits = random_bits(14, 600)
        schedule = [asserted(300, new_code_id="other")]
        kw = dict(ebn0_db=6.0, rng_seed=5)
        plain = run_session(bits, schedule, make_state(), **kw)
        through = run_session(
            bits, schedule, make_state(), channel=IDENTITY_CHANNEL, **kw)
        assert len(through.segments) == 2
        for a, b in zip(plain.segments, through.segments):
            np.testing.assert_array_equal(a.decoded, b.decoded)
            assert a.errors == b.errors

    def test_segments_are_blocks_under_the_sweep_seed_rule(self):
        # segment i is one simulate_links block through the session's
        # channel, its noise seed the first of point_seeds(rng_seed, i)
        bits = random_bits(15, 1000)
        channel = draw_channel(CM1_LIKE, 4)
        schedule = [asserted(400, new_code_id="other")]
        first = make_state()
        states = [first, apply_reconfiguration(first, schedule[0], 0)]
        result = run_session(bits, schedule, first, ebn0_db=8.0,
                             channel=channel, rng_seed=7)
        assert result.total_errors > 0
        for seg, state in zip(result.segments, states):
            noise_seed = point_seeds(7, seg.index)[0]
            sent = bits[seg.start_frame:seg.start_frame + seg.n_bits]
            [block] = simulate_links([(sent, noise_seed, channel)],
                                     state.link_end, state.link_end, (8.0,))
            assert seg.errors == block.errors
            np.testing.assert_array_equal(seg.decoded, block.decoded)

    def test_request_beyond_bits_just_flushes(self):
        bits = random_bits(7, 300)
        result = run_session(
            bits, [asserted(1000, new_code_id="other")], make_state()
        )
        assert len(result.segments) == 1
        assert result.segments[0].n_bits == 300

    def test_one_sided_frame_length_change_loses_bits(self):
        # TX shortens its frames; the receiver, still on the old length,
        # decodes fewer bits and the shortfall is counted as errors
        bits = random_bits(8, 600)
        result = run_session(
            bits,
            [asserted(200, new_n_c=4, new_code_id="narrow")],
            make_state(active="narrow"),
            fault_inject=True,
        )
        second = result.segments[1]
        assert second.n_bits == 400
        assert len(second.decoded) == 200
        assert second.errors >= 200

    def test_unsorted_schedule_rejected(self):
        bits = random_bits(9, 100)
        schedule = [
            asserted(50, new_code_id="other"),
            asserted(30, new_code_id="wide"),
        ]
        with pytest.raises(InvalidParams, match="sorted"):
            run_session(bits, schedule, make_state())

    def test_errors_carry_request_index(self):
        bits = random_bits(10, 100)
        with pytest.raises(UnknownCode, match="request 1"):
            run_session(
                bits,
                [
                    asserted(10, new_t_c=10e-9),
                    asserted(20, new_code_id="ghost"),
                ],
                make_state(),
            )
        with pytest.raises(StaleRequest, match="request 0"):
            run_session(bits, [asserted(0, new_n_c=16)], make_state())

    def test_non_binary_bits_rejected(self):
        with pytest.raises(InvalidParams):
            run_session([0, 1, 2], [], make_state())

    @pytest.mark.parametrize(
        "bits",
        [[0.5, 1.7, 0.2, 1.0] * 50, [0.0, 1.0, float("nan")], [1, 1 + 1e-9]],
    )
    def test_fractional_bits_rejected(self, bits):
        # a cast to int64 would run 0.5, 1.7, 0.2, 1.0 as 0, 1, 0, 1
        with pytest.raises(InvalidParams, match="only 0 and 1"):
            run_session(bits, [], make_state())

    def test_integral_float_bits_run_as_ints(self):
        bits = random_bits(4, 64)
        [as_floats] = run_session(bits.astype(float), [], make_state()).segments
        [as_ints] = run_session(bits, [], make_state()).segments
        np.testing.assert_array_equal(as_floats.decoded, as_ints.decoded)

    @pytest.mark.parametrize("ebn0_db", [float("nan"), float("-inf")])
    def test_non_finite_eb_n0_rejected(self, ebn0_db):
        with pytest.raises(InvalidParams):
            run_session([], [], make_state(), ebn0_db=ebn0_db)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParams, match="rng_seed"):
            run_session([0, 1], [], make_state(), ebn0_db=6.0, rng_seed=-1)

    def test_ook_session_calibrates_itself(self):
        bits = random_bits(11, 300)
        result = run_session(bits, [], make_state(scheme="ook"))
        assert result.total_errors == 0
        np.testing.assert_array_equal(result.segments[0].decoded, bits)

    def test_deterministic_under_seed(self):
        bits = random_bits(12, 500)
        kw = dict(ebn0_db=6.0, rng_seed=99)
        a = run_session(bits, [asserted(250, new_code_id="other")], make_state(), **kw)
        b = run_session(bits, [asserted(250, new_code_id="other")], make_state(), **kw)
        for sa, sb in zip(a.segments, b.segments):
            np.testing.assert_array_equal(sa.decoded, sb.decoded)
            assert sa.errors == sb.errors


class TestScriptParsing:
    def test_full_script(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(
            "# speed up, then swap codes\n"
            "\n"
            "@100 set tc=10 signal=1\n"
            "@200 set nc=16 code=alt signal=1\n"
            "@300 set tc=5 nc=8 signal=0\n"
        )
        reqs = load_reconfig_script(path)
        assert len(reqs) == 3
        assert reqs[0].effective_frame == 100
        assert reqs[0].new_t_c == pytest.approx(10e-9)
        assert reqs[0].new_n_c is None
        assert reqs[0].reconfig_signal is True
        assert reqs[1].new_n_c == 16
        assert reqs[1].new_code_id == "alt"
        assert reqs[2].reconfig_signal is False

    def test_tc_is_read_as_the_nearest_double_of_its_ns(self, tmp_path):
        # 12 / 1e9 is the double nearest 12 ns; 12 * 1e-9 is one ulp off
        # (1.2000000000000002e-08), and the session CSV prints t_c
        path = tmp_path / "plan.txt"
        path.write_text("@100 set tc=12 signal=1\n@200 set tc=3.6 signal=1\n")
        assert [r.new_t_c for r in load_reconfig_script(path)] == [1.2e-08,
                                                                   3.6e-09]
        args = cli._parser().parse_args(["sweep", "--scheme", "ppm",
                                         "--tc", "12"])
        assert repr(cli._params(args).t_c) == "1.2e-08"

    def test_bad_shape(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("@100 tc=10 signal=1\n")
        with pytest.raises(FormatError, match=":1:"):
            load_reconfig_script(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("@100 set tc=10 signal=1\n@200 set speed=3 signal=1\n")
        with pytest.raises(FormatError, match=":2:"):
            load_reconfig_script(path)

    def test_frame_number_past_int_parsing_limit(self, tmp_path):
        # int() refuses strings of more than 4300 digits with ValueError
        path = tmp_path / "plan.txt"
        path.write_text("@" + "1" * 5000 + " set tc=10 signal=1\n")
        with pytest.raises(FormatError, match=":1:"):
            load_reconfig_script(path)

    def test_signal_required(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("@100 set tc=10\n")
        with pytest.raises(FormatError, match="signal"):
            load_reconfig_script(path)

    def test_signal_must_be_binary(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("@100 set tc=10 signal=yes\n")
        with pytest.raises(FormatError, match=":1:"):
            load_reconfig_script(path)

    def test_asserted_line_needs_payload(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("@100 set signal=1\n")
        with pytest.raises(FormatError, match=":1:"):
            load_reconfig_script(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("@100 set tc=soon signal=1\n")
        with pytest.raises(FormatError, match=":1:"):
            load_reconfig_script(path)

    def test_script_drives_session(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(
            "@150 set code=other signal=1\n"
            "@400 set tc=10 signal=1\n"
        )
        bits = random_bits(13, 600)
        result = run_session(bits, load_reconfig_script(path), make_state())
        assert [s.start_frame for s in result.segments] == [0, 150, 400]
        assert [s.t_c for s in result.segments] == [5e-9, 5e-9, 10e-9]
        assert result.total_errors == 0
