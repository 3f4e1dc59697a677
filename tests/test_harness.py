import math

import numpy as np
import pytest

from uwbphy import (
    BerPoint,
    CM1_LIKE,
    ConfigConflict,
    FormatError,
    GridMismatch,
    InvalidParams,
    PRESETS,
    SweepConfig,
    ThCode,
    ThParams,
    compare_architectures,
    format_csv,
    point_seeds,
    read_csv,
    run_session,
    run_sweep,
    sweep_metadata,
)
from uwbphy.harness import (
    BLOCK_BITS,
    CSV_HEADER,
    SESSION_CSV_HEADER,
    format_session_csv,
)

import oracles
from conftest import FAST_PULSE, RATE
from test_reconfig import make_state

FAST_PARAMS = ThParams(t_c=5e-9, n_c=4)
FAST_CODE = ThCode(offsets=(2, 0, 3, 1), code_id="fast")


def fast_sweep(scheme="bpam", grid=(0.0, 4.0), bits=2000, **kw):
    return SweepConfig(
        scheme=scheme,
        ebn0_grid=grid,
        n_bits_per_point=bits,
        params=FAST_PARAMS,
        pulse=FAST_PULSE,
        sample_rate=RATE,
        code=FAST_CODE,
        **kw,
    )


class TestSweepConfig:
    def test_scheme_checked(self):
        with pytest.raises(InvalidParams):
            fast_sweep(scheme="fsk")

    def test_grid_nonempty_and_increasing(self):
        with pytest.raises(InvalidParams):
            fast_sweep(grid=())
        with pytest.raises(InvalidParams):
            fast_sweep(grid=(4.0, 4.0))
        with pytest.raises(InvalidParams):
            fast_sweep(grid=(4.0, 2.0))

    @pytest.mark.parametrize("grid", [(float("nan"),), (float("-inf"), 0.0)])
    def test_grid_rejects_nan_and_minus_inf(self, grid):
        with pytest.raises(InvalidParams):
            fast_sweep(grid=grid)

    def test_minimum_bit_budget(self):
        with pytest.raises(InvalidParams):
            fast_sweep(bits=999)
        fast_sweep(bits=1000)

    def test_quant_bits_range(self):
        with pytest.raises(InvalidParams):
            fast_sweep(quant_bits=0)
        with pytest.raises(InvalidParams):
            fast_sweep(quant_bits=65)
        fast_sweep(quant_bits=64)

    def test_quant_bits_must_be_integer(self):
        with pytest.raises(InvalidParams):
            fast_sweep(quant_bits=12.5)
        assert fast_sweep(quant_bits=np.int64(12)).quant_bits == 12

    def test_ook_rejects_one_bit_adc(self):
        # every 1-bit sample is +/- half a step, so every OOK window
        # energy is the same and the decisions are coin flips
        with pytest.raises(InvalidParams, match="OOK"):
            fast_sweep(scheme="ook", quant_bits=1)
        fast_sweep(scheme="ook", quant_bits=2)
        fast_sweep(scheme="bpam", quant_bits=1)
        fast_sweep(scheme="ppm", quant_bits=1)

    def test_base_seed_must_be_non_negative(self):
        with pytest.raises(InvalidParams, match="base_seed"):
            fast_sweep(base_seed=-1)
        fast_sweep(base_seed=0)

    def test_ppm_shift_under_one_sample_is_rejected(self):
        # a shift that rounds to 0 samples used to decode every bit as 1
        with pytest.raises(ConfigConflict):
            run_sweep(fast_sweep(scheme="ppm", grid=(8.0,), delta=1e-12))

    def test_default_code_is_generated(self):
        cfg = SweepConfig(scheme="bpam", ebn0_grid=(0.0,), n_bits_per_point=1000)
        assert cfg.code.code_id == "gen1729"
        assert len(cfg.code) == 8
        assert all(0 <= c < cfg.params.n_c for c in cfg.code.offsets)

    def test_default_delta(self):
        assert fast_sweep(scheme="ppm").delta == FAST_PULSE.duration
        assert fast_sweep(scheme="bpam").delta == 0.0

    def test_modulation_property(self):
        mod = fast_sweep(scheme="ppm").modulation
        assert mod.scheme == "ppm" and mod.delta == FAST_PULSE.duration


class TestBerPoint:
    def test_counts_validated(self):
        with pytest.raises(InvalidParams):
            BerPoint(0.0, errors=-1, bits=100)
        with pytest.raises(InvalidParams):
            BerPoint(0.0, errors=101, bits=100)
        with pytest.raises(InvalidParams):
            BerPoint(0.0, errors=0, bits=0)

    def test_ber_and_interval(self):
        p = BerPoint(ebn0_db=6.0, errors=239, bits=100_000)
        assert p.ber == 239 / 100_000
        expected = 1.96 * math.sqrt(p.ber * (1 - p.ber) / 100_000)
        assert p.ci95_halfwidth == pytest.approx(expected, rel=1e-12)
        assert p.sigma() == pytest.approx(expected / 1.96, rel=1e-12)

    def test_zero_errors_zero_interval(self):
        p = BerPoint(ebn0_db=10.0, errors=0, bits=1000)
        assert p.ber == 0.0 and p.ci95_halfwidth == 0.0


class TestPointSeeds:
    def test_four_independent_streams(self):
        seeds = point_seeds(0, 0)
        assert len(seeds) == 4
        assert len(set(seeds)) == 4
        assert all(isinstance(s, int) for s in seeds)

    def test_varies_with_index_and_base(self):
        assert point_seeds(0, 0) != point_seeds(0, 1)
        assert point_seeds(0, 0) != point_seeds(1, 0)
        assert point_seeds(7, 3) == point_seeds(7, 3)


class TestRunSweep:
    def test_deterministic(self):
        cfg = fast_sweep(bits=2000, base_seed=5)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert [(p.ebn0_db, p.errors, p.bits) for p in a] == [
            (p.ebn0_db, p.errors, p.bits) for p in b
        ]

    def test_seed_changes_the_draw(self):
        a = run_sweep(fast_sweep(bits=2000, base_seed=1))
        b = run_sweep(fast_sweep(bits=2000, base_seed=2))
        assert any(pa.errors != pb.errors for pa, pb in zip(a, b))

    def test_noiseless_point_is_error_free(self):
        for scheme in ("ook", "bpam", "ppm"):
            cfg = fast_sweep(scheme=scheme, grid=(10.0, math.inf), bits=1000)
            points = run_sweep(cfg)
            assert points[-1].errors == 0

    def test_bpam_tracks_theory_at_4db(self):
        cfg = fast_sweep(grid=(4.0,), bits=10_000, base_seed=3)
        (point,) = run_sweep(cfg)
        truth = oracles.bpam_ber(4.0)
        assert abs(point.ber - truth) <= 3 * point.sigma()

    def test_ber_improves_with_snr(self):
        points = run_sweep(fast_sweep(grid=(0.0, 2.0, 4.0, 6.0, 8.0), bits=5000))
        for a, b in zip(points, points[1:]):
            slack = 3 * (a.sigma() + b.sigma())
            assert b.ber <= a.ber + slack

    def test_point_count_and_budget(self):
        points = run_sweep(fast_sweep(grid=(0.0, 4.0, 8.0), bits=1500))
        assert [p.ebn0_db for p in points] == [0.0, 4.0, 8.0]
        assert all(p.bits == 1500 for p in points)
        assert 1500 % BLOCK_BITS != 0  # exercises the partial last block

    def test_one_bit_adc_much_worse_than_twelve(self):
        kw = dict(grid=(4.0,), bits=10_000, base_seed=4)
        (coarse,) = run_sweep(fast_sweep(quant_bits=1, **kw))
        (fine,) = run_sweep(fast_sweep(quant_bits=12, **kw))
        assert coarse.ber - 3 * coarse.sigma() > fine.ber + 3 * fine.sigma()

    def test_multipath_degrades_bpam(self):
        kw = dict(grid=(10.0,), bits=5000, base_seed=6)
        (awgn,) = run_sweep(fast_sweep(**kw))
        (faded,) = run_sweep(fast_sweep(channel=CM1_LIKE, **kw))
        assert faded.errors > awgn.errors
        assert faded.ber - 3 * faded.sigma() > awgn.ber + 3 * awgn.sigma()

    def test_interval_covers_truth(self):
        # repeated small sweeps: the 95% interval should cover the
        # analytic BER most of the time (Wald intervals run a bit
        # below nominal at ~12 expected errors, hence the 85% floor)
        truth = oracles.bpam_ber(4.0)
        covered = 0
        runs = 100
        for seed in range(runs):
            (p,) = run_sweep(fast_sweep(grid=(4.0,), bits=1000, base_seed=seed))
            covered += abs(p.ber - truth) <= p.ci95_halfwidth
        assert covered >= 0.85 * runs


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        points = [
            BerPoint(0.0, 786, 10_000),
            BerPoint(4.0, 125, 10_000),
            BerPoint(8.0, 2, 10_000),
        ]
        path = tmp_path / "curve.csv"
        path.write_text(
            format_csv(points, meta={"scheme": "bpam", "base_seed": 0})
        )
        back = read_csv(path)
        assert [(p.ebn0_db, p.errors, p.bits) for p in back] == [
            (p.ebn0_db, p.errors, p.bits) for p in points
        ]
        assert [p.ber for p in back] == [p.ber for p in points]

    def test_layout(self):
        text = format_csv(
            [BerPoint(6.0, 239, 100_000)], meta={"b": 1, "a": "x"}
        )
        lines = text.splitlines()
        assert lines[0] == "# a = x"
        assert lines[1] == "# b = 1"
        assert lines[2] == CSV_HEADER
        assert lines[3].startswith("6.0,239,100000,")
        assert text.endswith("\n")

    def test_empty_points_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(format_csv([]))
        assert read_csv(path) == []

    def test_deterministic_text(self):
        points = [BerPoint(2.0, 33, 5000)]
        meta = {"scheme": "ppm", "base_seed": 9}
        assert format_csv(points, meta) == format_csv(points, meta)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("snr,count\n1,2\n")
        with pytest.raises(FormatError, match="header"):
            read_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1.0,2,3\n")
        with pytest.raises(FormatError, match=":2:"):
            read_csv(path)

    def test_malformed_counts(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1.0,two,1000,0.002,0.0001\n")
        with pytest.raises(FormatError, match=":2:"):
            read_csv(path)

    def test_sweep_metadata_contents(self):
        cfg = fast_sweep(scheme="ook", quant_bits=12, channel=CM1_LIKE)
        meta = sweep_metadata(cfg)
        assert meta["scheme"] == "ook"
        assert meta["channel"] == "cm1-like"
        assert meta["datapath"] == "quantized12"
        assert meta["code"] == "fast"
        float_meta = sweep_metadata(fast_sweep())
        assert float_meta["channel"] == "awgn"
        assert float_meta["datapath"] == "float"

    def test_session_csv(self):
        bits = np.random.default_rng(0).integers(0, 2, size=200)
        result = run_session(bits, [], make_state())
        text = format_session_csv(result, meta={"script": "none"})
        lines = text.splitlines()
        assert lines[0] == "# script = none"
        assert lines[1] == SESSION_CSV_HEADER
        assert len(lines) == 2 + len(result.segments)
        seg = result.segments[0]
        assert lines[2] == (
            f"0,0,{seg.n_bits},{seg.errors},{seg.ber!r},"
            f"{seg.t_c!r},{seg.throughput_bps!r}"
        )


class TestCompare:
    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            compare_architectures(
                [fast_sweep(grid=(0.0, 4.0)), fast_sweep(grid=(0.0, 6.0))]
            )
        with pytest.raises(GridMismatch):
            compare_architectures(
                [fast_sweep(bits=2000), fast_sweep(bits=3000)]
            )

    def test_needs_a_config(self):
        with pytest.raises(InvalidParams):
            compare_architectures([])

    def test_single_config(self):
        table = compare_architectures([fast_sweep(grid=(4.0,), bits=1000)])
        assert table.labels == ("bpam",)
        assert table.rows[0].ranking == ("bpam",)
        assert table.rows[0].significant == ()

    def test_duplicate_labels_disambiguated(self):
        table = compare_architectures(
            [
                fast_sweep(grid=(4.0,), bits=1000, base_seed=0),
                fast_sweep(grid=(4.0,), bits=1000, base_seed=1),
            ]
        )
        assert table.labels == ("bpam", "bpam#1")

    def test_bpam_beats_ook_significantly(self):
        table = compare_architectures(
            [
                fast_sweep(scheme="bpam", grid=(4.0,), bits=5000),
                fast_sweep(scheme="ook", grid=(4.0,), bits=5000),
            ]
        )
        row = table.rows[0]
        assert row.ranking == ("bpam", "ook")
        assert row.significant == (True,)

    def test_render_shape(self):
        table = compare_architectures(
            [
                fast_sweep(scheme="bpam", grid=(4.0,), bits=2000),
                fast_sweep(scheme="ook", grid=(4.0,), bits=2000),
            ]
        )
        text = table.render()
        lines = text.splitlines()
        assert lines[0].startswith("ebn0_db")
        assert "bpam" in lines[0] and "ook" in lines[0]
        assert "bpam >! ook" in lines[1] or "bpam > ook" in lines[1]
        assert text.endswith("\n")


class TestPresets:
    def test_catalog(self):
        assert set(PRESETS) == {
            "th-ook-v1",
            "th-ook-v2",
            "th-bpam-v1",
            "th-bpam-v2",
            "th-ppm-v1",
            "th-ppm-v2",
            "th-ppm-v3",
            "th-ppm-v4",
        }

    def test_known_rows(self):
        # (scheme, ADC word width)
        assert PRESETS["th-ook-v1"] == ("ook", 64)
        assert PRESETS["th-ook-v2"] == ("ook", 32)
        assert PRESETS["th-bpam-v1"] == PRESETS["th-bpam-v2"] == ("bpam", 32)
        assert PRESETS["th-ppm-v1"] == PRESETS["th-ppm-v2"] == ("ppm", 32)
        assert PRESETS["th-ppm-v3"] == PRESETS["th-ppm-v4"] == ("ppm", 64)

    def test_preset_sweep_runs(self):
        scheme, adc_bits = PRESETS["th-bpam-v1"]
        cfg = SweepConfig(
            scheme=scheme,
            ebn0_grid=(math.inf,),
            quant_bits=adc_bits,
            preset_id="th-bpam-v1",
            n_bits_per_point=1000,
            params=FAST_PARAMS,
            pulse=FAST_PULSE,
            code=FAST_CODE,
        )
        (point,) = run_sweep(cfg)
        assert point.errors == 0
