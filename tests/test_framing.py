import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uwbphy import (
    CodeBank,
    ConfigConflict,
    FormatError,
    InvalidParams,
    ThCode,
    ThParams,
    UnknownCode,
    chip_start_time,
    data_rate,
    generate_code,
    load_code_file,
    validate_code,
    write_code_file,
)
from uwbphy.framing import chip_samples


class TestThParams:
    def test_tc_positive(self):
        with pytest.raises(InvalidParams):
            ThParams(t_c=0.0, n_c=4)

    @pytest.mark.parametrize("t_c", [math.inf, math.nan])
    def test_tc_finite(self, t_c):
        with pytest.raises(InvalidParams, match="finite"):
            ThParams(t_c=t_c, n_c=4)

    def test_nc_at_least_two(self):
        with pytest.raises(InvalidParams):
            ThParams(t_c=1e-8, n_c=1)

    def test_frame_duration_derived(self):
        p = ThParams(t_c=1e-8, n_c=8)
        assert p.t_f == 8e-8

    def test_chip_samples_on_grid(self):
        assert chip_samples(ThParams(t_c=1e-8, n_c=4), 50e9) == 500

    def test_chip_samples_off_grid(self):
        with pytest.raises(ConfigConflict):
            chip_samples(ThParams(t_c=1.03e-8, n_c=4), 1e8)


class TestDataRate:
    def test_hundred_mbit(self):
        assert data_rate(ThParams(t_c=10e-9, n_c=8)) == pytest.approx(100e6)
        assert data_rate(ThParams(t_c=10e-9, n_c=4)) == pytest.approx(100e6)

    def test_five_hundred_mbit(self):
        assert data_rate(ThParams(t_c=2e-9, n_c=16)) == pytest.approx(500e6)

    @given(
        st.floats(min_value=1e-9, max_value=1e-6),
        st.integers(min_value=2, max_value=64),
    )
    def test_rate_times_frame_is_chip_count(self, t_c, n_c):
        p = ThParams(t_c=t_c, n_c=n_c)
        assert data_rate(p) * p.t_f == pytest.approx(n_c, rel=1e-12)


class TestValidateCode:
    def test_all_zero_ok(self):
        assert validate_code(ThCode((0, 0, 0), "z"), ThParams(1e-8, 4)) == ()

    def test_in_range_ok(self):
        assert validate_code(ThCode((2, 0, 3, 1), "c"), ThParams(1e-8, 4)) == ()

    def test_violation_indexed(self):
        assert validate_code(ThCode((2, 5), "c"), ThParams(1e-8, 4)) == (1,)


class TestGenerateCode:
    def test_deterministic(self):
        p = ThParams(1e-8, 4)
        assert generate_code(9, 8, p) == generate_code(9, 8, p)

    def test_always_valid(self):
        p = ThParams(1e-8, 8)
        for seed in range(20):
            assert validate_code(generate_code(seed, 16, p), p) == ()

    def test_uniformity(self):
        # each offset frequency within 5 sigma of N/n_c
        p = ThParams(1e-8, 4)
        n = 10_000
        code = generate_code(314, n, p)
        counts = np.bincount(code.offsets, minlength=4)
        expected = n / 4
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - expected) <= 5 * sigma)

    def test_rejects_empty(self):
        with pytest.raises(InvalidParams):
            generate_code(1, 0, ThParams(1e-8, 4))


class TestChipStartTime:
    def test_zero_code(self):
        p = ThParams(10e-9, 4)
        assert chip_start_time(0, ThCode((0, 0), "z"), p) == 0.0

    def test_formula(self):
        p = ThParams(10e-9, 4)
        code = ThCode((2, 0, 3, 1), "c")
        assert chip_start_time(3, code, p) == pytest.approx(130e-9)

    def test_cyclic(self):
        p = ThParams(10e-9, 4)
        code = ThCode((2, 0, 3, 1), "c")
        for j in range(4):
            for k in (1, 2, 5):
                delta = chip_start_time(4 * k + j, code, p) - chip_start_time(
                    j, code, p
                )
                assert delta == pytest.approx(4 * k * p.t_f)

    def test_strictly_increasing_over_frames(self):
        p = ThParams(10e-9, 8)
        code = generate_code(4, 16, p)
        times = [chip_start_time(j, code, p) for j in range(1000)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_negative_frame_rejected(self):
        with pytest.raises(InvalidParams):
            chip_start_time(-1, ThCode((0,), "z"), ThParams(1e-8, 4))


class TestCodeBank:
    def make(self):
        a = ThCode((0, 1), "a")
        b = ThCode((2, 3), "b")
        return CodeBank(entries={"a": a, "b": b}, active_id="a")

    def test_active_must_exist(self):
        with pytest.raises(UnknownCode):
            CodeBank(entries={}, active_id="a")

    def test_get_unknown(self):
        with pytest.raises(UnknownCode):
            self.make().get("zzz")

    def test_with_active_is_functional(self):
        bank = self.make()
        other = bank.with_active("b")
        assert bank.active_id == "a"
        assert other.active_id == "b"
        assert other.active().code_id == "b"

    def test_with_active_unknown(self):
        with pytest.raises(UnknownCode):
            self.make().with_active("zzz")

    def test_with_entry_is_functional(self):
        bank = self.make()
        grown = bank.with_entry(ThCode((1,), "c"))
        assert "c" not in bank.entries
        assert grown.get("c").offsets == (1,)
        assert grown.active_id == "a"

    def test_key_must_match_code_id(self):
        with pytest.raises(InvalidParams):
            CodeBank(entries={"x": ThCode((0,), "y")}, active_id="x")


class TestCodeFiles:
    def test_roundtrip(self, tmp_path):
        p = ThParams(1e-8, 8)
        codes = [generate_code(s, 8, p) for s in (1, 2, 3)]
        path = tmp_path / "codes.txt"
        write_code_file(path, codes)
        bank = load_code_file(path, p)
        assert bank.active_id == codes[0].code_id
        for c in codes:
            assert bank.get(c.code_id) == c

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("# bank\n\ncode a: 1,2,3\n")
        bank = load_code_file(path, ThParams(1e-8, 4))
        assert bank.active().offsets == (1, 2, 3)

    def test_out_of_range_rejected_at_load(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("code a: 1,2\ncode b: 2,9\n")
        with pytest.raises(FormatError, match=":2:"):
            load_code_file(path, ThParams(1e-8, 4))

    def test_bad_syntax_has_line_number(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("code a: 1,2\nwhat is this\n")
        with pytest.raises(FormatError, match=":2:"):
            load_code_file(path, ThParams(1e-8, 4))

    def test_non_integer_offsets(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("code a: 1,x,3\n")
        with pytest.raises(FormatError, match=":1:"):
            load_code_file(path, ThParams(1e-8, 4))

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("code a: 1\ncode a: 2\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_code_file(path, ThParams(1e-8, 4))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("# nothing\n")
        with pytest.raises(FormatError):
            load_code_file(path, ThParams(1e-8, 4))
