"""Round-trip and error-contract tests for the plain-text file formats."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ambishrink.series import TimeSeries
from ambishrink.textio import (
    RowBlocks,
    format_psi_record,
    parse_psi_record,
    read_matrix,
    read_signal,
    write_matrix,
    write_signal,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e16, -1e16]
edge_floats = st.sampled_from(EDGE_VALUES)


class TestMatrixRoundTrip:
    def test_real_matrix_exact(self, tmp_path):
        a = np.array([[1.0, -2.5e-300], [np.pi, 1e290]])
        path = tmp_path / "m.mat"
        write_matrix(path, a)
        back, trailing = read_matrix(path)
        np.testing.assert_array_equal(back, a)
        assert back.dtype == np.float64
        assert trailing == []

    def test_complex_matrix_exact(self, tmp_path):
        a = np.array([[1 + 2j, -3.5j], [0j, np.e - 1j * np.pi]])
        path = tmp_path / "m.mat"
        write_matrix(path, a)
        back, _ = read_matrix(path)
        np.testing.assert_array_equal(back, a)
        assert back.dtype == np.complex128

    def test_trailing_comments_preserved(self, tmp_path):
        path = tmp_path / "m.mat"
        write_matrix(path, np.eye(2), trailing=["# correction=clip mineig=0"])
        _, trailing = read_matrix(path)
        assert trailing == ["# correction=clip mineig=0"]

    def test_reserialization_is_bitwise_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7)) * np.exp(rng.uniform(-200, 200, (5, 7)))
        p1, p2 = tmp_path / "a.mat", tmp_path / "b.mat"
        write_matrix(p1, a)
        back, trailing = read_matrix(p1)
        write_matrix(p2, back, trailing=trailing)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        complex_kind=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_random_shapes(self, tmp_path, rows, cols, complex_kind, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, cols))
        if complex_kind:
            a = a + 1j * rng.standard_normal((rows, cols))
        path = tmp_path / f"m{rows}x{cols}.mat"
        write_matrix(path, a)
        back, _ = read_matrix(path)
        np.testing.assert_array_equal(back, a)


def reference_matrix_text(a: np.ndarray) -> str:
    """The ambimat v1 text of ``a`` built one ``format`` call per value."""
    kind = "complex" if np.iscomplexobj(a) else "real"

    def cell(v):
        if kind == "complex":
            return format(v.real, ".17g") + format(v.imag, "+.17g") + "j"
        return format(v, ".17g")

    rows, cols = a.shape
    lines = [f"# ambimat v1 {rows} {cols} {kind}"]
    lines += [",".join(cell(v) for v in row.tolist()) for row in a]
    return "\n".join(lines) + "\n"


class TestMatrixBytes:
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        shape=st.sampled_from([(1, 1), (1, 5), (4, 1), (3, 3), (2, 7), (6, 2)]),
        complex_kind=st.booleans(),
        data=st.data(),
    )
    def test_matches_per_value_format(self, tmp_path, shape, complex_kind, data):
        size = shape[0] * shape[1] * (2 if complex_kind else 1)
        values = data.draw(st.lists(finite_floats | edge_floats, min_size=size, max_size=size))
        a = np.array(values, dtype=float)
        if complex_kind:
            a = a.view(complex)  # exact (re, im) pairs, keeping a signed zero imaginary part
        a = a.reshape(shape)
        path = tmp_path / "m.mat"
        write_matrix(path, a)
        assert path.read_text() == reference_matrix_text(a)

    @pytest.mark.parametrize("complex_kind", [False, True], ids=["real", "complex"])
    def test_edge_values_match_per_value_format(self, tmp_path, complex_kind):
        a = np.array(EDGE_VALUES + EDGE_VALUES[::-1])
        a = (a.view(complex) if complex_kind else a).reshape(2, -1)
        path = tmp_path / "m.mat"
        write_matrix(path, a)
        assert path.read_text() == reference_matrix_text(a)

    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    def test_empty_matrix_with_trailing_line_round_trips(self, tmp_path, dtype):
        p1, p2 = tmp_path / "a.mat", tmp_path / "b.mat"
        write_matrix(p1, np.zeros((0, 3), dtype=dtype), trailing=["# dense shape=31x32"])
        back, trailing = read_matrix(p1)
        assert back.shape == (0, 3) and back.dtype == dtype
        assert trailing == ["# dense shape=31x32"]
        write_matrix(p2, back, trailing=trailing)
        assert p1.read_bytes() == p2.read_bytes()


class TestRowBlocks:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_blocks_write_the_array_bytes(self, tmp_path, dtype):
        a = np.random.default_rng(3).standard_normal((7, 4 if dtype is float else 8)).view(dtype)
        whole, blocked = tmp_path / "whole.mat", tmp_path / "blocked.mat"
        write_matrix(whole, a, trailing=["# half shape=13x4"])
        blocks = RowBlocks(7, a.shape[1], dtype, (a[:3], a[3:3], a[3:]))
        write_matrix(blocked, blocks, trailing=["# half shape=13x4"])
        assert blocked.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize(
        "blocks, message",
        [((np.ones((2, 3)),), "expected 3 rows, got 2"), ((np.ones((3, 2)),), "3 columns"),
         ((np.ones((1, 3)), np.full((2, 3), np.nan)), "non-finite")],
        ids=["short", "narrow", "nan"],
    )
    def test_bad_block_stops_the_write(self, tmp_path, blocks, message):
        with pytest.raises(ValueError, match=message):
            write_matrix(tmp_path / "m.mat", RowBlocks(3, 3, float, blocks), trailing=["# end"])
        assert "# end" not in (tmp_path / "m.mat").read_text()


class TestMatrixErrors:
    def test_rejects_one_dimensional_input(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            write_matrix(tmp_path / "m.mat", np.arange(4.0))

    def test_rejects_nonfinite_values(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_matrix(tmp_path / "m.mat", np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize(
        "a",
        [np.array([[1.0, 2.0], [3.0, np.inf]]), np.array([[1 + 1j], [complex(2.0, np.nan)]])],
        ids=["real-inf", "complex-nan"],
    )
    def test_nonfinite_value_leaves_no_file(self, tmp_path, a):
        path = tmp_path / "m.mat"
        with pytest.raises(ValueError, match="non-finite"):
            write_matrix(path, a)
        assert not path.exists()

    def test_rejects_uncommented_trailing_line(self, tmp_path):
        with pytest.raises(ValueError, match="#"):
            write_matrix(tmp_path / "m.mat", np.eye(2), trailing=["mineig=0"])

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("nonsense\n1,2\n")
        with pytest.raises(ValueError, match="ambimat"):
            read_matrix(path)

    def test_rejects_missing_rows(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("# ambimat v1 3 2 real\n1,2\n")
        with pytest.raises(ValueError, match="data rows"):
            read_matrix(path)

    def test_rejects_ragged_row(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("# ambimat v1 1 3 real\n1,2\n")
        with pytest.raises(ValueError, match="row 0"):
            read_matrix(path)

    def test_rejects_garbage_after_data(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("# ambimat v1 1 1 real\n1\nstray\n")
        with pytest.raises(ValueError, match="unexpected content"):
            read_matrix(path)


class TestSignalRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        x = TimeSeries(np.array([0.1, -2.0, 3.5e-8, 1e200]), dt=0.125)
        path = tmp_path / "x.sig"
        write_signal(path, x)
        back = read_signal(path)
        np.testing.assert_array_equal(back.samples, x.samples)
        assert back.dt == x.dt

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        values=st.lists(st.floats(-1e12, 1e12), min_size=2, max_size=32),
        dt=st.floats(1e-6, 1e6),
    )
    def test_round_trip_random(self, tmp_path, values, dt):
        x = TimeSeries(np.asarray(values), dt=dt)
        path = tmp_path / "x.sig"
        write_signal(path, x)
        back = read_signal(path)
        np.testing.assert_array_equal(back.samples, x.samples)
        assert back.dt == x.dt

    def test_header_names_length_and_step(self, tmp_path):
        path = tmp_path / "x.sig"
        write_signal(path, TimeSeries(np.array([1.0, 2.0]), dt=0.5))
        first = path.read_text().splitlines()[0]
        assert first == "# signal v1 n=2 dt=0.5"

    def test_rejects_wrong_sample_count(self, tmp_path):
        path = tmp_path / "x.sig"
        path.write_text("# signal v1 n=3 dt=1\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="expected 3 samples"):
            read_signal(path)

    def test_rejects_missing_header_field(self, tmp_path):
        path = tmp_path / "x.sig"
        path.write_text("# signal v1 n=2\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_signal(path)


class TestPsiRecord:
    def test_round_trip(self):
        line = format_psi_record(1.5, 0.25, 50.0, -123.456, 88)
        rec = parse_psi_record(line)
        assert rec["vbar"] == 1.5
        assert rec["rho"] == 0.25
        assert rec["sigma2"] == 50.0
        assert rec["nll"] == -123.456
        assert rec["iterations"] == 88

    @given(
        st.floats(1e-6, 1e6),
        st.floats(1e-9, 1 - 1e-9),
        st.floats(1e-6, 1e6),
        finite_floats,
        st.integers(0, 100000),
    )
    def test_round_trip_exact_values(self, vbar, rho, sigma2, nll, iterations):
        rec = parse_psi_record(format_psi_record(vbar, rho, sigma2, nll, iterations))
        assert rec == {
            "vbar": vbar,
            "rho": rho,
            "sigma2": sigma2,
            "nll": nll,
            "iterations": iterations,
        }

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            parse_psi_record("vbar=1 rho=0.5 sigma2=2 nll=3")
