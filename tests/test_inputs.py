"""Outside input is either used as given or refused with a PhyError:
integer inputs follow check_int, positive reals check_positive, and the
text readers report the file line of a bad row."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uwbphy import (
    CM1_LIKE,
    DEFAULT_PULSE,
    BerPoint,
    ChannelRealization,
    CodeBank,
    FormatError,
    InvalidParams,
    ModulationConfig,
    PhyError,
    PhyState,
    PulseShape,
    QuantizerConfig,
    ReceiverConfig,
    ReconfigRequest,
    SampledSignal,
    SweepConfig,
    ThCode,
    ThParams,
    add_awgn,
    apply_reconfiguration,
    compare_architectures,
    draw_channel,
    generate_code,
    place_pulse_train,
    point_seeds,
    read_csv,
    run_session,
    run_sweep,
    sample_pulse,
    synchronize,
)
from uwbphy.cli import main
from uwbphy.errors import check_int, check_positive, check_type
from uwbphy.framing import MAX_CODE_LENGTH
from uwbphy.harness import CSV_HEADER
from uwbphy.receiver import simulate_links

from conftest import FAST_PULSE, RATE, make_mod, make_receiver

NAN, INF = math.nan, math.inf
PARAMS = ThParams(t_c=5e-9, n_c=4)
CODE = ThCode(offsets=(2, 0, 3, 1), code_id="fast")
TEMPLATE = sample_pulse(FAST_PULSE, RATE)


def _sync(search_window=10, n_sync_frames=8):
    cfg = make_receiver("bpam", PARAMS, CODE, TEMPLATE)
    tx = place_pulse_train(np.ones(8, dtype=int), make_mod("bpam"), PARAMS,
                           CODE, TEMPLATE)
    rx = SampledSignal(np.concatenate((tx.samples, np.zeros(100))), RATE)
    return synchronize(rx, cfg, search_window, n_sync_frames)


def _receiver(**kw):
    kw = {"mod": make_mod("bpam"), "params": PARAMS, "code": CODE,
          "template": TEMPLATE, **kw}
    return ReceiverConfig(**kw)


def _links(seed=0, channel=None):
    cfg = _receiver()
    blocks = [(np.array([1, 0, 1]), seed, channel)]
    return list(simulate_links(blocks, cfg, cfg, (4.0,)))


# Each of these was accepted, truncated or crashed with a non-PhyError
# exception (a wrongly typed config object with an AttributeError where
# it was used) before integer inputs, positive inputs and config
# objects each had one rule, and before the receiver held the rule that
# OOK needs an ADC of at least 3 bits (at 1 bit every window energy is
# the same, so a 30 dB link decodes coin flips; at 2 bits a window of
# noise alone holds about as much energy as a pulse, and a 20 dB sweep
# decodes coin flips too) and that an integration window spans at least
# one sample (an OOK window that rounds to none crashed simulate_links
# with numpy's ValueError).
REFUSED = {
    "ook threshold nan": lambda: make_receiver(
        "ook", PARAMS, CODE, TEMPLATE, threshold=NAN),
    "quantizer full_scale inf": lambda: QuantizerConfig(12, full_scale=INF),
    "pulse tau inf": lambda: PulseShape(tau=INF, duration=INF),
    "pulse duration inf": lambda: PulseShape(tau=0.5e-9, duration=INF),
    "ppm delta inf": lambda: ModulationConfig("ppm", delta=INF),
    "code offset 1.5": lambda: ThCode((1.5, 2), code_id="c"),
    "code offsets empty": lambda: ThCode((), code_id="c"),
    "sweep bits 1500.5": lambda: SweepConfig(
        "bpam", (0.0,), n_bits_per_point=1500.5),
    "sweep base_seed 1.5": lambda: SweepConfig(
        "bpam", (0.0,), n_bits_per_point=1000, base_seed=1.5),
    "sync window 2.5": lambda: _sync(search_window=2.5),
    "sync window nan": lambda: _sync(search_window=NAN),
    "sync window inf": lambda: _sync(search_window=INF),
    "code length 2.5": lambda: generate_code(0, 2.5, PARAMS),
    "code length past the bound": lambda: generate_code(
        0, MAX_CODE_LENGTH + 1, PARAMS),
    "request frame 2.5": lambda: ReconfigRequest(effective_frame=2.5),
    "ber errors 2.5": lambda: BerPoint(ebn0_db=0.0, errors=2.5, bits=10),
    "signal rate inf": lambda: SampledSignal(np.zeros(3), INF),
    "awgn seed -1": lambda: add_awgn(TEMPLATE, 4.0, 1.0, rng_seed=-1),
    "awgn seed 2.5": lambda: add_awgn(TEMPLATE, 4.0, 1.0, rng_seed=2.5),
    "channel seed -1": lambda: draw_channel(CM1_LIKE, rng_seed=-1),
    "channel seed 2.5": lambda: draw_channel(CM1_LIKE, rng_seed=2.5),
    "sweep params str": lambda: _sweep(params="x"),
    "sweep pulse str": lambda: _sweep(pulse="x"),
    "sweep channel str": lambda: _sweep(channel="x"),
    "sweep code str": lambda: _sweep(code="x"),
    "state params str": lambda: _state(params="x"),
    "state code_bank str": lambda: _state(code_bank="x"),
    "state mod str": lambda: _state(mod="x"),
    "state pulse str": lambda: _state(pulse="x"),
    "bank entries list": lambda: CodeBank(entries=[CODE], active_id="fast"),
    "bank entry str": lambda: CodeBank(entries={"fast": "x"},
                                       active_id="fast"),
    "session initial_state str": lambda: run_session([0, 1], [], "x"),
    "session schedule entry str": lambda: run_session([0, 1], ["x"],
                                                      _state()),
    # a sweep takes the profile, a session one realization of it
    "session channel profile": lambda: run_session(
        [0, 1], [], _state(), channel=CM1_LIKE),
    "compare config str": lambda: compare_architectures(["x"]),
    "receiver mod str": lambda: _receiver(mod="x"),
    "receiver params str": lambda: _receiver(params="x"),
    "receiver code str": lambda: _receiver(code="x"),
    "receiver template str": lambda: _receiver(template="x"),
    "receiver datapath str": lambda: _receiver(datapath="x"),
    "ook receiver 1-bit adc": lambda: make_receiver(
        "ook", PARAMS, CODE, TEMPLATE, datapath=QuantizerConfig(1, 1.0)),
    "ook receiver 1-bit agc": lambda: make_receiver(
        "ook", PARAMS, CODE, TEMPLATE, datapath=QuantizerConfig(1)),
    "ook receiver 2-bit adc": lambda: make_receiver(
        "ook", PARAMS, CODE, TEMPLATE, datapath=QuantizerConfig(2, 1.0)),
    "ook receiver 2-bit agc": lambda: make_receiver(
        "ook", PARAMS, CODE, TEMPLATE, datapath=QuantizerConfig(2)),
    "ook receiver sub-sample window": lambda: make_receiver(
        "ook", PARAMS, CODE, TEMPLATE, integration_window=1e-12),
    # BPAM and PPM decide by sign alone: a threshold would be ignored
    "bpam receiver threshold": lambda: make_receiver(
        "bpam", PARAMS, CODE, TEMPLATE, threshold=0.5),
    "ppm receiver threshold": lambda: make_receiver(
        "ppm", PARAMS, CODE, TEMPLATE, threshold=0.0),
    "sample_pulse shape dict": lambda: sample_pulse({"tau": 1e-9}, RATE),
    "sample_pulse rate list": lambda: sample_pulse(FAST_PULSE, [RATE]),
    "sample_pulse rate nan": lambda: sample_pulse(FAST_PULSE, NAN),
    "reconfigure req str": lambda: apply_reconfiguration(_state(), "x", 0),
    "reconfigure state str": lambda: apply_reconfiguration(
        "s", ReconfigRequest(effective_frame=10, new_n_c=8,
                             reconfig_signal=True), 0),
    "reconfigure frame str": lambda: _apply(new_n_c=8, current_frame="1"),
    "reconfigure frame 2.5": lambda: _apply(new_n_c=8, current_frame=2.5),
    "reconfigure frame -1": lambda: _apply(new_n_c=8, current_frame=-1),
    # a session applied these: a NaN delay failed in apply_channel with
    # numpy's ValueError, an inf gain made every bit an error without a
    # word, and 11 us of delay is past what a profile may draw
    "channel delay nan": lambda: ChannelRealization(
        taps=[(0.0, 1.0), (NAN, 0.5)]),
    "channel gain inf": lambda: ChannelRealization(
        taps=[(0.0, 1.0), (1e-9, INF)]),
    "channel delay past 10 us": lambda: ChannelRealization(
        taps=[(0.0, 1.0), (1.1e-5, 0.5)]),
    # a NaN sample made every statistic NaN, a 2-D template was taken,
    # and an empty one was refused for its integration window
    "receiver template nan sample": lambda: _receiver(template=SampledSignal(
        np.where(np.arange(len(TEMPLATE)) == 50, NAN, TEMPLATE.samples),
        RATE)),
    "receiver template 2-d": lambda: _receiver(
        template=SampledSignal(np.ones((201, 2)), RATE)),
    "receiver template empty": lambda: _receiver(
        template=SampledSignal(np.zeros(0), RATE)),
    # numpy refused these seeds with its ValueError or TypeError, and a
    # str channel failed in apply_channel with an AttributeError
    "links noise seed -1": lambda: _links(seed=-1),
    "links noise seed 1.5": lambda: _links(seed=1.5),
    "links noise seed str": lambda: _links(seed="x"),
    "links channel str": lambda: _links(channel="x"),
    # each raised numpy's ValueError from the conversion to (n, 2)
    "channel taps triple": lambda: ChannelRealization(taps=[(0.0, 1.0, 2.0)]),
    "channel taps str": lambda: ChannelRealization(taps=[("a", 1.0)]),
    "channel taps ragged": lambda: ChannelRealization(
        taps=[(0.0, 1.0), (1e-9,)]),
    "channel taps None": lambda: ChannelRealization(taps=None),
    "channel taps 5": lambda: ChannelRealization(taps=5),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_malformed_input_raises_phy_error(case):
    with pytest.raises(PhyError):
        REFUSED[case]()


def test_an_empty_template_is_refused_for_itself():
    # it was refused for an integration window of -2e-11 s
    with pytest.raises(InvalidParams, match="template"):
        _receiver(template=SampledSignal(np.zeros(0), RATE))


def test_an_overflowing_gain_is_refused_without_a_warning():
    # the energy 1e400 is past float64: numpy warned of the overflow
    # before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match="gains must be finite"):
            ChannelRealization(taps=[(0.0, 1e200)])


def test_taps_are_taken_as_any_sequence_of_pairs():
    want = ChannelRealization(taps=np.array([[0.0, 3.0], [2e-9, -4.0]]))
    for taps in ([(0, 3), (2e-9, -4)], ((0.0, 3.0), (2e-9, -4.0)),
                 [0.0, 3.0, 2e-9, -4.0]):
        assert ChannelRealization(taps=taps).taps.tobytes() == (
            want.taps.tobytes())
    assert want.gains().tolist() == [0.6, -0.8]


def test_a_block_takes_an_integral_float_noise_seed():
    [as_float], [as_int] = _links(seed=7.0), _links(seed=7)
    assert as_float.statistics.tobytes() == as_int.statistics.tobytes()


def test_block_past_the_int64_range_is_refused_after_the_one_before():
    # 3e18-sample frames: one frame fits the int64 sample index, four
    # do not; blocks are read one at a time, so the valid block's
    # record comes out before the next block is refused
    cfg = _receiver(params=ThParams(t_c=5e-9, n_c=12 * 10**15))
    blocks = [(np.array([1]), 0, None), (np.array([0, 1, 0, 1]), 1, None)]
    records = simulate_links(blocks, cfg, cfg, (4.0,))
    assert next(records).errors == 0
    with pytest.raises(InvalidParams, match="64-bit sample index"):
        next(records)


def test_integral_floats_count_as_integers():
    assert ThParams(t_c=5e-9, n_c=8.0).n_c == 8
    assert type(QuantizerConfig(12.0, full_scale=1.0).bits) is int
    assert _sync(search_window=10.0) == _sync()
    as_float = SweepConfig("bpam", (4.0,), n_bits_per_point=1500.0)
    [point] = run_sweep(as_float)
    assert point.bits == 1500
    assert [point] == run_sweep(SweepConfig("bpam", (4.0,), 1500))


class _Float(float):
    """A float subclass, as a caller's unit type might be."""


def _outcome(check, value, *args):
    """What check(value, *args) returns, with its type, or the message
    it refuses value with."""
    try:
        got = check(value, *args)
    except InvalidParams as exc:
        return str(exc)
    return got, type(got)


# what check_int(value, "n", 0), check_positive(value, "x"),
# check_type(value, "v", int) and check_type(value, "v", float, None)
# give: a bool is an int, a numpy scalar counts as the number it holds,
# and check_type goes by the class alone
NUMBER_KINDS = {
    "True": (True, (1, int), (1.0, float), (True, bool),
             "v must be float or None, got bool"),
    "False": (False, (0, int), "x must be positive and finite, got False",
              (False, bool), "v must be float or None, got bool"),
    "int64": (np.int64(8), (8, int), (8.0, float),
              "v must be int, got int64",
              "v must be float or None, got int64"),
    "float64": (np.float64(2.5),
                "n must be >= 0 and integral, got np.float64(2.5)",
                (2.5, float), "v must be int, got float64",
                (2.5, np.float64)),
    "float64-integral": (np.float64(8.0), (8, int), (8.0, float),
                         "v must be int, got float64", (8.0, np.float64)),
    "subclass": (_Float(2.5), "n must be >= 0 and integral, got 2.5",
                 (2.5, float), "v must be int, got _Float",
                 (2.5, _Float)),
    "subclass-integral": (_Float(8.0), (8, int), (8.0, float),
                          "v must be int, got _Float", (8.0, _Float)),
}


@pytest.mark.parametrize("case", sorted(NUMBER_KINDS))
def test_number_kinds_are_admitted_as_builtins(case):
    value, *want = NUMBER_KINDS[case]
    assert [_outcome(check_int, value, "n", 0),
            _outcome(check_positive, value, "x"),
            _outcome(check_type, value, "v", int),
            _outcome(check_type, value, "v", float, None)] == want


def test_integral_float_seeds_count_as_integers():
    assert point_seeds(3.0, 1.0) == point_seeds(3, 1)
    bits = np.arange(600) % 2
    schedule = [ReconfigRequest(effective_frame=300, new_n_c=8,
                                reconfig_signal=True)]
    state = _state(mod=make_mod("ook"))
    as_float, as_int = [
        run_session(bits, schedule, state, ebn0_db=8.0, rng_seed=seed)
        for seed in (3.0, 3)]
    assert [(s.start_frame, s.errors, s.decoded.tolist())
            for s in as_float.segments] == [
        (s.start_frame, s.errors, s.decoded.tolist())
        for s in as_int.segments]
    assert len(as_int.segments) == 2


def _state(**kw):
    bank = CodeBank(entries={CODE.code_id: CODE}, active_id=CODE.code_id)
    kw = {"params": PARAMS, "code_bank": bank, "mod": make_mod("bpam"),
          "pulse": FAST_PULSE, "sample_rate": RATE, **kw}
    return PhyState(**kw)


def _apply(current_frame=0, **kw):
    req = ReconfigRequest(effective_frame=10, reconfig_signal=True, **kw)
    return apply_reconfiguration(_state(), req, current_frame=current_frame)


def _sweep(**kw):
    return SweepConfig(**{"scheme": "bpam", "ebn0_grid": (0.0,),
                          "n_bits_per_point": 1000, **kw})


# (field, kind, build): build(value) makes the object with the field set
# to value. A kind names the values the field must refuse.
FIELDS = [
    ("ThParams.t_c", "positive", lambda v: ThParams(t_c=v, n_c=4)),
    ("ThParams.n_c", "int", lambda v: ThParams(t_c=5e-9, n_c=v)),
    ("ThCode.offsets", "int", lambda v: ThCode((v, 1), code_id="c")),
    ("PulseShape.tau", "positive",
     lambda v: PulseShape(tau=v, duration=4e-9)),
    ("PulseShape.duration", "positive",
     lambda v: PulseShape(tau=0.5e-9, duration=v)),
    ("SampledSignal.sample_rate", "positive",
     lambda v: SampledSignal(np.zeros(3), v)),
    ("ModulationConfig.delta (ppm)", "positive",
     lambda v: ModulationConfig("ppm", delta=v)),
    ("ModulationConfig.delta (bpam)", "int",
     lambda v: ModulationConfig("bpam", delta=v)),
    ("QuantizerConfig.bits", "int",
     lambda v: QuantizerConfig(bits=v, full_scale=1.0)),
    ("QuantizerConfig.full_scale", "optional positive",
     lambda v: QuantizerConfig(bits=12, full_scale=v)),
    ("ReceiverConfig.integration_window", "optional positive",
     lambda v: make_receiver("ook", PARAMS, CODE, TEMPLATE,
                             integration_window=v)),
    ("ReceiverConfig.threshold", "threshold",
     lambda v: make_receiver("ook", PARAMS, CODE, TEMPLATE, threshold=v)),
    ("SweepConfig.ebn0_grid", "ebn0", lambda v: _sweep(ebn0_grid=(v,))),
    ("SweepConfig.n_bits_per_point", "int",
     lambda v: _sweep(n_bits_per_point=v)),
    ("SweepConfig.quant_bits", "optional int",
     lambda v: _sweep(quant_bits=v)),
    ("SweepConfig.base_seed", "int", lambda v: _sweep(base_seed=v)),
    ("SweepConfig.sample_rate", "positive", lambda v: _sweep(sample_rate=v)),
    ("SweepConfig.delta", "optional positive",
     lambda v: _sweep(scheme="ppm", delta=v)),
    ("BerPoint.ebn0_db", "ebn0",
     lambda v: BerPoint(ebn0_db=v, errors=1, bits=10)),
    ("BerPoint.errors", "int",
     lambda v: BerPoint(ebn0_db=0.0, errors=v, bits=10)),
    ("BerPoint.bits", "int", lambda v: BerPoint(ebn0_db=0.0, errors=0, bits=v)),
    ("ReconfigRequest.effective_frame", "int",
     lambda v: ReconfigRequest(effective_frame=v)),
    ("ReconfigRequest.new_t_c", "optional positive",
     lambda v: _apply(new_t_c=v)),
    ("ReconfigRequest.new_n_c", "optional int", lambda v: _apply(new_n_c=v)),
    ("PhyState.epoch", "int", lambda v: _state(epoch=v)),
    ("PhyState.sample_rate", "positive", lambda v: _state(sample_rate=v)),
    ("point_seeds.base_seed", "int", lambda v: point_seeds(v, 0)),
    ("point_seeds.point_index", "int", lambda v: point_seeds(0, v)),
]

_NOT_A_NUMBER = st.sampled_from([NAN, "3"])
_NOT_INTEGRAL = st.floats().filter(lambda x: not float(x).is_integer())
_NOT_POSITIVE = st.floats(max_value=0.0) | st.just(INF) | _NOT_A_NUMBER
REFUSE = {
    "int": _NOT_INTEGRAL | _NOT_A_NUMBER | st.sampled_from([INF, -INF, None]),
    "optional int": _NOT_INTEGRAL | _NOT_A_NUMBER | st.just(INF),
    "positive": _NOT_POSITIVE | st.none(),
    "optional positive": _NOT_POSITIVE,
    "threshold": st.floats(max_value=0.0, exclude_max=True)
    | st.just(INF) | _NOT_A_NUMBER,
    "ebn0": st.sampled_from([NAN, -INF, "3", None]),
}


@pytest.mark.parametrize("field, kind, build", FIELDS,
                         ids=[f[0] for f in FIELDS])
@given(data=st.data())
def test_numeric_fields_refuse_malformed_values(field, kind, build, data):
    value = data.draw(REFUSE[kind], label=field)
    with pytest.raises(PhyError):
        build(value)


@pytest.fixture
def cli_csv(tmp_path):
    """The lines of a CSV that `uwbphy sweep` wrote, and the file line
    number of its last row."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scheme", "bpam", "--ebn0", "0,4",
                 "--bits", "1000", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines.index(CSV_HEADER) > 0
    return lines, len(lines)


@pytest.mark.parametrize("row", ["4.0,two,1000,0.0,0.0",
                                 "4.0,1001,1000,1.001,0.0"])
def test_read_csv_reports_the_file_line(cli_csv, tmp_path, row):
    lines, last = cli_csv
    lines[last - 1] = row
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}:{last}:")):
        read_csv(path)
