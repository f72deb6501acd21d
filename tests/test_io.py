import dataclasses
import io
import math
import mmap
import re
import tracemalloc
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dissdim import aniso_measure as am
from dissdim import fixtures as fx
from dissdim import io as dio
from dissdim.fields import SCALARS, GriddedField, _mapped_bytes


@pytest.fixture
def sample_measure():
    rng = np.random.default_rng(11)
    points = np.column_stack([rng.random((40, 2)), rng.random(40)])
    return am.AtomicMeasure(points, rng.random(40))


@pytest.fixture
def sample_field():
    return fx.burgers_entropy_solution(fx.RiemannDatum(1.0, -1.0), -1.0, 1.0, 33, 0.5, 17)


class TestMeasureFormat:
    def test_text_roundtrip(self, sample_measure, tmp_path):
        path = tmp_path / "m.txt"
        dio.write_measure(path, sample_measure, binary=False)
        back = dio.read_measure(path)
        assert back.d == 2
        assert np.array_equal(back.positions, sample_measure.positions)
        assert np.array_equal(back.times, sample_measure.times)
        assert np.array_equal(back.weights, sample_measure.weights)

    def test_binary_roundtrip(self, sample_measure, tmp_path):
        path = tmp_path / "m.bin"
        dio.write_measure(path, sample_measure, binary=True)
        back = dio.read_measure(path)
        assert np.array_equal(back.positions, sample_measure.positions)
        assert np.array_equal(back.weights, sample_measure.weights)

    def test_header_contents(self, sample_measure, tmp_path):
        path = tmp_path / "m.txt"
        dio.write_measure(path, sample_measure)
        first = open(path, "rb").readline().decode()
        assert first.startswith("dissdim-measure v1 d=2 n=40")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n")
        with pytest.raises(dio.MalformedFileError):
            dio.read_measure(path)

    @pytest.mark.parametrize("header, message", [
        ("", "missing header line"),
        ("dissdim-measure v1 d=1 n body=text\n", "bad header token 'n'"),
        ("dissdim-measure v1 d=1 body=text\n", "header key 'n' is missing"),
        ("dissdim-measure v1 d=0 n=0 body=text\n", "header needs d >= 1"),
    ], ids=["empty-file", "token-without-value", "no-count", "d-0"])
    def test_each_header_fault_is_named(self, tmp_path, header, message):
        path = tmp_path / "bad.txt"
        path.write_text(header)
        with pytest.raises(dio.MalformedFileError, match=re.escape(f"{path}: {message}")):
            dio.read_measure(path)

    def test_short_body_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dissdim-measure v1 d=1 n=3 body=text\n0.0 0.0 1.0\n")
        with pytest.raises(dio.MalformedFileError) as err:
            dio.read_measure(path)
        assert err.value.line is not None

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dissdim-measure v1 d=1 n=1 body=text\n0.0 0.0\n")
        with pytest.raises(dio.MalformedFileError):
            dio.read_measure(path)

    def test_empty_measure(self, tmp_path):
        empty = am.AtomicMeasure(np.zeros((0, 2)), np.zeros(0))
        path = tmp_path / "empty.txt"
        dio.write_measure(path, empty)
        assert dio.read_measure(path).n_atoms == 0

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_an_empty_measure_keeps_its_dimension(self, tmp_path, d, binary):
        path = tmp_path / "empty"
        dio.write_measure(path, am.AtomicMeasure(np.zeros((0, d + 1)), []), binary=binary)
        back = dio.read_measure(path)
        assert (back.d, back.points.shape, back.weights.shape) == (d, (0, d + 1), (0,))


class TestFieldFormat:
    def test_binary_roundtrip(self, sample_field, tmp_path):
        path = tmp_path / "f.bin"
        dio.write_field(path, sample_field)
        back = dio.read_field(path)
        assert back.d == sample_field.d
        assert back.nx == sample_field.nx
        assert np.array_equal(back.u, sample_field.u)
        assert not back.scalars

    def test_csv_roundtrip_d1(self, sample_field, tmp_path):
        path = tmp_path / "f.csv"
        dio.write_field(path, sample_field, binary=False)
        back = dio.read_field(path)
        assert np.array_equal(back.u, sample_field.u)

    def test_with_pressure_and_scalar(self, tmp_path):
        field = fx.constant_field([0.3], 1, 0.0, 1.0, 9, 1.0, 5, pressure=2.0)
        field = dataclasses.replace(field, scalars={**field.scalars,
                                                    "theta": np.full((5, 9), -1.5)})
        path = tmp_path / "f.bin"
        dio.write_field(path, field)
        back = dio.read_field(path)
        assert list(back.scalars) == ["p", "theta"]
        for name, arr in field.scalars.items():
            assert np.array_equal(back.scalars[name], arr)

    def test_csv_rejected_for_d2(self, tmp_path):
        field = fx.constant_field([0.1, 0.2], 2, 0.0, 1.0, 5, 1.0, 3)
        with pytest.raises(ValueError):
            dio.write_field(tmp_path / "f.csv", field, binary=False)

    def test_overflowing_axes_exit_2(self, sample_field, tmp_path, capsys):
        from dissdim.cli import main
        path = tmp_path / "f.bin"
        dio.write_field(path, sample_field)
        head, body = path.read_bytes().split(b"\n", 1)
        fields = [b"a=-1.7e308" if f.startswith(b"a=") else b"b=1.7e308" if f.startswith(b"b=")
                  else f for f in head.split()]
        path.write_bytes(b" ".join(fields) + b"\n" + body)
        with pytest.raises(dio.MalformedFileError, match="overflow"):
            dio.read_field(path)
        assert main(["verify", "--input", str(path)]) == 2
        assert "MalformedFileError" in capsys.readouterr().out

    def test_wrong_payload_size(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"dissdim-field v1 d=2 nx=4 nt=2 a=0.0 b=1.0 T=1.0 components=u body=binary\n1234")
        with pytest.raises(dio.MalformedFileError):
            dio.read_field(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def bits(arr):
    """The exact float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


@st.composite
def measure_rows(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(0, 50))
    rows = draw(arrays(np.float64, (n, d + 2), elements=FINITE))
    rows[:, -1] = np.abs(rows[:, -1])
    return rows


@st.composite
def fields(draw):
    d = draw(st.sampled_from([1, 2]))
    nx, nt = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    a, b = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
    big_t = draw(FINITE.filter(lambda v: v > 0))
    shape = (nt,) + (nx,) * d
    extra = {name: draw(arrays(np.float64, shape, elements=FINITE))
             for name in SCALARS if draw(st.booleans())}
    u = draw(arrays(np.float64, shape + (d,), elements=FINITE))
    return (d, a, b, nx, big_t, nt, u), extra


FIELD_HEADER = "dissdim-field v1 d=1 nx=2 nt=2 a=0.0 b=1.0 T=1.0 components=u body=text"
FIELD_ROWS = ["0.0,0.0,1.0", "0.0,1.0,2.0", "1.0,0.0,3.0", "1.0,1.0,4.0"]


def field_csv(rows=FIELD_ROWS, eol="\n", header=FIELD_HEADER):
    return (header + eol + "".join(row + eol for row in rows)).encode()


class TestBodyCodec:
    @settings(max_examples=150, deadline=None)
    @given(rows=measure_rows(), binary=st.booleans())
    # a one-atom d=1 text body of exactly the binary length, 24 bytes
    @example(rows=np.array([[0.12345, 0.12345, 0.12345]]), binary=False)
    def test_measure_roundtrip_is_bit_exact(self, tmp_path_factory, rows, binary):
        d = rows.shape[1] - 2
        mu = am.AtomicMeasure(rows[:, :d + 1], rows[:, d + 1])
        path = tmp_path_factory.mktemp("codec") / "m"
        dio.write_measure(path, mu, binary=binary)
        back = dio.read_measure(path)
        assert back.d == d and back.n_atoms == len(rows)
        for got, want in ((back.positions, mu.positions), (back.times, mu.times),
                          (back.weights, mu.weights)):
            assert bits(got) == bits(want)

    @settings(max_examples=100, deadline=None)
    @given(grid=fields(), text=st.booleans())
    def test_field_roundtrip_is_bit_exact(self, tmp_path_factory, grid, text):
        (d, a, b, nx, big_t, nt, u), extra = grid
        try:
            field = GriddedField(d, a, b, nx, big_t, nt, u, extra)
        except ValueError:
            # refused only where the spacing or an end node overflows, or a
            # step rounds to 0
            h, dt = (b - a) / (nx - 1), big_t / (nt - 1)
            ends = (h, dt, a + h * (nx - 1), dt * (nt - 1))
            assert not (all(map(math.isfinite, ends)) and h > 0 and dt > 0)
            return
        binary = not (text and field.d == 1)
        path = tmp_path_factory.mktemp("codec") / "f"
        dio.write_field(path, field, binary=binary)
        back = dio.read_field(path)
        assert (back.d, back.nx, back.nt) == (field.d, field.nx, field.nt)
        assert bits([back.a, back.b, back.T]) == bits([field.a, field.b, field.T])
        assert bits(back.u) == bits(field.u)
        assert list(back.scalars) == list(field.scalars)
        for name, want in field.scalars.items():
            assert bits(back.scalars[name]) == bits(want)

    @pytest.mark.parametrize("binary", [False, True])
    def test_tokenless_headers_are_rejected(self, sample_measure, sample_field, tmp_path,
                                            binary):
        for write, read, obj in ((dio.write_measure, dio.read_measure, sample_measure),
                                 (dio.write_field, dio.read_field, sample_field)):
            path = tmp_path / "old"
            write(path, obj, binary=binary)
            # the token and a binary header's padding go
            path.write_bytes(re.sub(rb" body=\w+ *\n", b"\n", path.read_bytes(), count=1))
            with pytest.raises(dio.MalformedFileError, match=r"body=binary\|body=text") as err:
                read(path)
            assert err.value.line == 1

    def test_huge_count_is_rejected_without_allocating(self, tmp_path, capsys):
        from dissdim.cli import main
        path = tmp_path / "huge.measure"
        path.write_text(f"dissdim-measure v1 d=1 n={10 ** 12} body=text\n0.1 0.2 0.3\n")
        with pytest.raises(dio.MalformedFileError) as err:
            dio.read_measure(path)
        assert err.value.line == 3
        assert main(["dimension", "--input", str(path)]) == 2
        assert "MalformedFileError" in capsys.readouterr().out

    @pytest.mark.parametrize("n, body, line", [
        (1, "0.0 0.0 1.0\n0.5 0.5 1.0\n", 3),   # one row more than n
        (2, "0.0 0.0 1.0\n0.5 0.5\n", 3),        # a short row
        (1, "0.0 0.0 x\n", 2),                    # a non-numeric entry
    ])
    def test_text_faults_name_the_line(self, tmp_path, n, body, line):
        path = tmp_path / "m"
        path.write_text(f"dissdim-measure v1 d=1 n={n} body=text\n{body}")
        with pytest.raises(dio.MalformedFileError) as err:
            dio.read_measure(path)
        assert err.value.line == line

    @pytest.mark.parametrize("header, body", [
        ("dissdim-measure v1 d=1 n=1 body=csv", b"0 0 1\n"),
        ("dissdim-measure v1 d=1 n=1 body=binary", b"0 0 1\n"),
        ("dissdim-field v1 d=2 nx=2 nt=2 a=0.0 b=1.0 T=1.0 components=u body=text",
         b"0,0,0,0\n" * 4),
    ])
    def test_token_faults(self, tmp_path, header, body):
        path = tmp_path / "bad"
        path.write_bytes(header.encode() + b"\n" + body)
        read = dio.read_measure if "measure" in header else dio.read_field
        with pytest.raises(dio.MalformedFileError):
            read(path)

    ONE_ATOM = np.array([0.25, 0.5, 0.125], dtype="<f8").tobytes()

    @pytest.mark.parametrize("header, body, key, fault", [
        # read as one binary atom (0.25, 0.5, 0.125) when the last value won
        ("dissdim-measure v1 d=1 n=2 n=1 body=text body=binary", ONE_ATOM, "n", "repeated"),
        ("dissdim-measure v1 d=1 n=1 body=text body=binary", ONE_ATOM, "body", "repeated"),
        ("dissdim-measure v1 d=1 n=1 wat=3 body=text", b"0 0 1\n", "wat", "unknown"),
        ("dissdim-measure v1 d=1 n=1 nx=1 body=text", b"0 0 1\n", "nx", "unknown"),
        ("dissdim-measure v1 d=1 n=-1 body=text", b"", "n", "bad"),
        (FIELD_HEADER.replace("nt=2", "nt=2 nt=2"), field_csv()[len(FIELD_HEADER) + 1:],
         "nt", "repeated"),
        (FIELD_HEADER.replace("T=1.0", "T=1.0 n=4"), field_csv()[len(FIELD_HEADER) + 1:],
         "n", "unknown"),
        (FIELD_HEADER.replace("nx=2", "nx=-2"), b"", "nx", "bad"),
        (FIELD_HEADER.replace("nt=2", "nt=-2"), b"", "nt", "bad"),
    ])
    def test_each_header_key_is_defined_once_and_counts_are_not_negative(
            self, tmp_path, capsys, header, body, key, fault):
        from dissdim.cli import main
        path = tmp_path / "bad"
        path.write_bytes(header.encode() + b"\n" + body)
        measure = "measure" in header
        with pytest.raises(dio.MalformedFileError, match=f"key '{key}' is {fault}") as err:
            (dio.read_measure if measure else dio.read_field)(path)
        assert err.value.line == 1
        assert main(["dimension" if measure else "verify", "--input", str(path)]) == 2
        assert f"key '{key}' is {fault}" in capsys.readouterr().out

    @pytest.mark.parametrize("data, line", [
        pytest.param(field_csv(FIELD_ROWS[:1] + ["0.0,1.0,2.0,5.0"] + FIELD_ROWS[2:]), 3,
                     id="extra-column"),
        pytest.param(field_csv(FIELD_ROWS[:1] + ["0.0,1.0"] + FIELD_ROWS[2:]), 3, id="short-row"),
        pytest.param(field_csv(FIELD_ROWS[:2] + ["t,0.0,3.0"] + FIELD_ROWS[3:]), 4, id="text-t"),
        pytest.param(field_csv(FIELD_ROWS[:2] + ["1.0,x,3.0"] + FIELD_ROWS[3:]), 4, id="text-x"),
        pytest.param(field_csv(FIELD_ROWS[:3] + ["1.0,1.0,u"]), 5, id="text-u"),
        pytest.param(field_csv(FIELD_ROWS + ["2.0,0.0,5.0"]), 6, id="row-too-many"),
        pytest.param(field_csv(FIELD_ROWS[:3]), 5, id="row-too-few"),
    ])
    def test_field_csv_faults_name_the_line(self, tmp_path, data, line):
        path = tmp_path / "f"
        path.write_bytes(data)
        with pytest.raises(dio.MalformedFileError) as err:
            dio.read_field(path)
        assert err.value.line == line

    @pytest.mark.parametrize("data, line", [
        pytest.param(field_csv([FIELD_ROWS[0] + "\r" + FIELD_ROWS[1]] + FIELD_ROWS[2:]), 2,
                     id="joins-two-rows"),
        pytest.param(field_csv([FIELD_ROWS[0], "0.0,1.0\r,2.0"] + FIELD_ROWS[2:]), 3,
                     id="inside-a-row"),
        pytest.param(field_csv(FIELD_ROWS[:2] + ["\r" + FIELD_ROWS[2]] + FIELD_ROWS[3:]), 4,
                     id="row-start"),
        pytest.param(field_csv(FIELD_ROWS[:2] + [FIELD_ROWS[2] + "\r"] + FIELD_ROWS[3:],
                               eol="\r\n"), 4, id="before-crlf"),
        pytest.param(field_csv(FIELD_ROWS).removesuffix(b"\n") + b"\r", 5, id="file-end"),
        pytest.param(field_csv(header=FIELD_HEADER.replace(" body", "\rbody")), 1,
                     id="header"),
        pytest.param(field_csv(header=FIELD_HEADER.replace(" body", "\rbody"), eol="\r\n"), 1,
                     id="header-crlf"),
    ])
    def test_a_lone_cr_is_rejected(self, tmp_path, data, line):
        from dissdim.cli import main
        path = tmp_path / "f"
        path.write_bytes(data)
        with pytest.raises(dio.MalformedFileError, match="CR") as err:
            dio.read_field(path)
        assert err.value.line == line
        assert main(["verify", "--input", str(path)]) == 2

    @pytest.mark.parametrize("data", [
        pytest.param(field_csv(FIELD_ROWS[:2] + [""] + FIELD_ROWS[2:] + [""]), id="blank"),
        pytest.param(field_csv(eol="\r\n"), id="crlf"),
        pytest.param(field_csv(FIELD_ROWS[:2] + [""] + FIELD_ROWS[2:], eol="\r\n"),
                     id="blank-crlf"),
    ])
    def test_blank_lines_and_crlf_are_accepted(self, tmp_path, data):
        path = tmp_path / "f"
        path.write_bytes(data)
        assert dio.read_field(path).u.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_name_numpy_would_decompress(self, sample_field, tmp_path, suffix):
        from dissdim.cli import main
        path = tmp_path / f"f{suffix}"
        dio.write_field(path, sample_field, binary=False)   # a text body is read as it stands
        assert bits(dio.read_field(path).u) == bits(sample_field.u)
        assert main(["verify", "--input", str(path)]) == 0
        path.write_bytes(field_csv(FIELD_ROWS[:2] + ["1.0,x,3.0"] + FIELD_ROWS[3:]))
        with pytest.raises(dio.MalformedFileError) as err:
            dio.read_field(path)
        assert err.value.line == 4
        dio.write_field(path, sample_field)   # a binary body is read as it stands
        assert bits(dio.read_field(path).u) == bits(sample_field.u)

    def test_a_name_that_parses_as_a_url_is_read_locally(self, sample_field, tmp_path,
                                                         monkeypatch):
        """numpy's loader fetches a name with a scheme and a host; the local
        file of that relative name is read, and nothing is fetched."""
        import urllib.request

        def no_fetch(*args, **kwargs):
            raise AssertionError(f"fetch attempted: {args!r}")

        monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        name = "http://localhost/f.field"
        dio.write_field(name, sample_field, binary=False)
        assert bits(dio.read_field(name).u) == bits(sample_field.u)

    @pytest.mark.parametrize("token", ["1e39", "-1e39", "1e-400", "nan", "-inf", " 1 ", "+1.5",
                                       "", "1_0", "0x1p3"])
    def test_the_dropped_columns_are_checked_as_the_values_are(self, tmp_path, token):
        """The t and x columns, parsed as float32, accept exactly the tokens the
        float64 u column accepts, and a rejected token is named at its line."""
        path = tmp_path / "f"

        def verdict(column):
            row = ["1.0", "0.0", "3.0"]
            row[column] = token
            path.write_bytes(field_csv(FIELD_ROWS[:2] + [",".join(row)] + FIELD_ROWS[3:]))
            try:
                dio.read_field(path)
            except dio.MalformedFileError as err:
                # a u that parses to a non-finite sample is refused by the field, with no line
                return "parsed" if err.line is None and "non-finite" in str(err) else err.line
            return "parsed"

        t, x, u = map(verdict, range(3))
        assert t == x == u
        assert u in ("parsed", 4)

    def test_a_text_read_holds_its_body_at_final_size(self, tmp_path):
        nx, nt = 2049, 101
        rng = np.random.default_rng(5)
        for extra in ((), ("p", "theta")):
            field = GriddedField(1, -1.0, 1.0, nx, 1.0, nt, rng.standard_normal((nt, nx, 1)),
                                 {name: rng.standard_normal((nt, nx)) for name in extra})
            dio.write_field(tmp_path / "f", field, binary=False)
            tracemalloc.start()
            try:
                back = dio.read_field(tmp_path / "f")
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # float64 values, with t and x parsed into the first one's bytes; 1 B spare
            final = (8 * (1 + len(extra)) + 1) * nx * nt
            assert held <= final
            assert peak <= 1.05 * final
            assert bits(back.u) == bits(field.u)
            for name in extra:
                assert bits(back.scalars[name]) == bits(field.scalars[name])


def percent_rows(rows, sep, lead=()):
    """Text rows as the %-formatter wrote them before the repr cache: the oracle."""
    fmt = sep.join(["%s"] * len(lead) + ["%r"] * rows.shape[1]) + "\n"
    values = chain.from_iterable(zip(*lead, *rows.T.tolist()))
    return ((fmt * rows.shape[0]) % tuple(values)).encode("ascii")


def _between(a, b):
    return [np.nextafter(a, -math.inf), a, np.nextafter(a, math.inf), b]


# signed zeros, subnormals and the values where repr switches notation
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.0, -1.0,
         *_between(1e-4, -1e-4), *_between(1e16, -1e16)]
NON_FINITE = [math.inf, -math.inf, math.nan,
              *np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)]


@st.composite
def slices(draw, n_rows, n_cols, finite=True):
    """An (n_rows, n_cols) block: one value throughout, all values distinct, or any."""
    values = st.one_of(st.sampled_from(EDGES if finite else EDGES + NON_FINITE),
                       st.floats(allow_nan=not finite, allow_infinity=not finite))
    kind = draw(st.sampled_from(["same", "distinct", "any"]))
    if kind == "same":
        return np.full((n_rows, n_cols), draw(values))
    flat = draw(st.lists(values, min_size=n_rows * n_cols, max_size=n_rows * n_cols,
                         unique_by=(lambda v: bits([v])) if kind == "distinct" else None))
    return np.array(flat, dtype=float).reshape(n_rows, n_cols)


# t and x tokens parse to float32 bytes unlike the value's: signed zeros, subnormals,
# magnitudes past float32's range, and any token that parses as a float64
LEAD_TOKENS = st.one_of(
    st.sampled_from([repr(float(v)) for v in EDGES]
                    + ["1e39", "-1e39", "1e-50", "-1e-50", "3.4028236e38", "1e400"]),
    st.floats().map(repr))


class TestTextRecords:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_rows=st.integers(1, 8), n_cols=st.integers(1, 3))
    def test_the_values_read_back_over_the_dropped_columns(self, tmp_path_factory, data,
                                                           n_rows, n_cols):
        """t and x are parsed into the first value's bytes, which that value then
        overwrites: u, p and theta read back bit for bit into one C-contiguous
        array whatever t and x hold, as long as numpy converts a row in column order."""
        values = data.draw(slices(n_rows, n_cols))
        lead = data.draw(st.lists(st.tuples(LEAD_TOKENS, LEAD_TOKENS),
                                  min_size=n_rows, max_size=n_rows))
        path = tmp_path_factory.mktemp("records") / "f"
        path.write_bytes(b"header\n" + "".join(
            ",".join([t, x, *map(repr, row)]) + "\n"
            for (t, x), row in zip(lead, values.tolist())).encode("ascii"))
        with open(path, "rb") as fh:
            fh.readline()
            rows = dio._read_rows(fh, path, "text", n_rows, n_cols, (",", 2))
        assert rows.shape == (n_rows, n_cols) and rows.dtype == np.float64
        assert rows.flags.c_contiguous
        assert bits(rows) == bits(values)


COMPONENT_ORDERS = [(), ("p",), ("theta",), ("p", "theta"), ("theta", "p")]


def field_file(path, d, nx, nt, comps, columns, binary):
    """Write a field file by hand: the header names ``comps``, the body holds
    ``columns`` (one (rows, k) block per name, u first) in that order."""
    rows = np.concatenate(columns, axis=1)
    head = (f"dissdim-field v1 d={d} nx={nx} nt={nt} a=0.0 b=1.0 T=1.0 "
            f"components={','.join(comps)} body={'binary' if binary else 'text'}\n")
    if binary:
        body = rows.astype("<f8").tobytes()
    else:
        body = "".join(f"0.0,0.0,{','.join(map(repr, row))}\n" for row in rows.tolist()).encode()
    path.write_bytes(head.encode() + body)


class TestComponentOrder:
    """A field file's extra columns are read in the order its header names them,
    and written back in that order."""

    @pytest.mark.parametrize("extra", COMPONENT_ORDERS, ids=lambda e: ",".join(("u",) + e))
    @pytest.mark.parametrize("d, binary", [(1, True), (2, True), (1, False)])
    def test_every_order_round_trips(self, tmp_path, extra, d, binary):
        nx, nt = 3, 2
        shape = (nt,) + (nx,) * d
        rng = np.random.default_rng(len(extra) + d)
        u = rng.standard_normal(shape + (d,))
        values = {name: rng.standard_normal(shape) for name in extra}
        path = tmp_path / "f"
        field_file(path, d, nx, nt, ("u",) + extra,
                   [u.reshape(-1, d)] + [values[name].reshape(-1, 1) for name in extra], binary)
        back = dio.read_field(path)
        assert bits(back.u) == bits(u)
        assert list(back.scalars) == list(extra)
        for name in extra:
            assert bits(back.scalars[name]) == bits(values[name])
        # a rewrite keeps the header, and so the column order, and every bit
        dio.write_field(tmp_path / "g", back, binary=binary)
        (head, body), (again_head, again_body) = (
            p.read_bytes().split(b"\n", 1) for p in (path, tmp_path / "g"))
        assert again_head.rstrip(b" ") == head   # the writer pads a binary header
        if binary:
            assert again_body == body
        else:
            assert list(dio.read_field(tmp_path / "g").scalars) == list(extra)

    @pytest.mark.parametrize("comps", ["u,p,rho", "p,u", "p,theta,u", "u,p,p", "u,theta,p,theta",
                                       "u,u", ""])
    @pytest.mark.parametrize("binary", [True, False])
    def test_a_bad_component_list_is_rejected_at_line_1(self, tmp_path, comps, binary):
        names = comps.split(",")
        path = tmp_path / "f"
        field_file(path, 1, 3, 2, names, [np.zeros((6, len(names)))], binary)
        with pytest.raises(dio.MalformedFileError, match="components") as err:
            dio.read_field(path)
        assert err.value.line == 1
        assert repr(comps) in str(err.value)


class TestTextWriter:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_rows=st.integers(0, 8), n_cols=st.integers(1, 5),
           lead=st.booleans())
    def test_rows_match_the_percent_formatter(self, data, n_rows, n_cols, lead):
        rows = data.draw(slices(n_rows, n_cols, finite=False))
        t, xs = -0.0, [repr(v) for v in np.linspace(-1, 1, n_rows).tolist()]
        fh = io.BytesIO()
        if lead:
            dio._write_rows(fh, rows, False, ",", ([f"{t!r},"] * n_rows, [x + "," for x in xs]))
            assert fh.getvalue() == percent_rows(rows, ",", ([repr(t)] * n_rows, xs))
        else:
            dio._write_rows(fh, rows, False, " ")
            assert fh.getvalue() == percent_rows(rows, " ")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), nx=st.integers(2, 6), nt=st.integers(2, 4),
           extra=st.sampled_from(COMPONENT_ORDERS))
    def test_field_file_matches_the_percent_formatter(self, tmp_path_factory, data, nx, nt,
                                                      extra):
        samples = np.stack([data.draw(slices(nx, 1 + len(extra))) for _ in range(nt)])
        field = GriddedField(1, -1.0, 1.0, nx, 1.0, nt, samples[:, :, :1],
                             {name: samples[:, :, 1 + i] for i, name in enumerate(extra)})
        path = tmp_path_factory.mktemp("writer") / "f"
        dio.write_field(path, field, binary=False)
        head, body = path.read_bytes().split(b"\n", 1)
        assert head.endswith(b" components=" + ",".join(["u", *extra]).encode() + b" body=text")
        xs = [repr(x) for x in field.x_axis.tolist()]
        assert body == b"".join(percent_rows(block, ",", ([repr(t)] * nx, xs))
                                for t, block in zip(field.t_axis.tolist(), samples))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), n=st.integers(0, 12))
    def test_measure_file_matches_the_percent_formatter(self, tmp_path_factory, data, d, n):
        rows = data.draw(slices(n, d + 2))
        rows[:, -1] = np.copysign(rows[:, -1], 1.0)   # weights >= 0
        mu = am.AtomicMeasure(rows[:, :d + 1], rows[:, -1])
        path = tmp_path_factory.mktemp("writer") / "m"
        dio.write_measure(path, mu, binary=False)
        assert path.read_bytes() == (f"dissdim-measure v1 d={d} n={n} body=text\n".encode()
                                     + percent_rows(rows, " "))

    def test_measure_written_in_blocks(self, tmp_path):
        rows = np.random.default_rng(5).random((2 * 4096 + 3, 3))
        dio.write_measure(tmp_path / "m", am.AtomicMeasure(rows[:, :2], rows[:, 2]))
        assert (tmp_path / "m").read_bytes().split(b"\n", 1)[1] == percent_rows(rows, " ")


def traced_peak(call):
    """The high-water mark of the bytes traced while ``call()`` runs, and its result.

    numpy reports its data buffers to ``tracemalloc``, so the peak counts
    every array and bytes object the call makes, freed or kept.
    """
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def edge_field(d, extra, nx=3, nt=2):
    """A field whose samples cycle through EDGES: signed zeros, subnormals, ..."""
    shape = (nt,) + (nx,) * d
    cycle = np.resize(np.array(EDGES), int(np.prod(shape)) * (d + len(extra)))
    cols = cycle.reshape(-1, d + len(extra))
    return GriddedField(d, 0.0, 1.0, nx, 1.0, nt, cols[:, :d].reshape(shape + (d,)),
                        {name: cols[:, d + i].reshape(shape) for i, name in enumerate(extra)})


MIB = 1 << 20


def mapping_of(arr):
    """What the end of ``arr``'s base chain is: the mmap.mmap of a mapped body."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr


class TestBinaryBody:
    """The binary read maps the body read-only; the writers gather a slice at a time."""

    def test_empty_measure(self, tmp_path):
        path = tmp_path / "m"
        dio.write_measure(path, am.AtomicMeasure(np.zeros((0, 3)), []), binary=True)
        # the header is padded to 40 bytes, a multiple of 8
        assert path.read_bytes() == b"dissdim-measure v1 d=2 n=0 body=binary \n"
        back = dio.read_measure(path)
        assert back.n_atoms == 0 and back.positions.shape == (0, 2)
        assert not isinstance(mapping_of(back.weights), mmap.mmap)   # mmap refuses 0 bytes

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 3), n=st.integers(0, 9), nx=st.integers(2, 5),
           nt=st.integers(2, 3), extra=st.sampled_from(COMPONENT_ORDERS),
           a=st.floats(-1e6, 1e6), width=st.floats(1e-3, 1e6), T=st.floats(1e-3, 1e6))
    def test_every_binary_header_is_a_multiple_of_8_bytes(self, tmp_path_factory, d, n, nx,
                                                          nt, extra, a, width, T):
        shape = (nt,) + (nx,) * d
        field = GriddedField(d, a, a + width, nx, T, nt, np.ones(shape + (d,)),
                             {name: np.zeros(shape) for name in extra})
        mu = am.AtomicMeasure(np.ones((n, d + 1)), np.ones(n))
        folder = tmp_path_factory.mktemp("padding")
        dio.write_field(folder / "f", field)
        dio.write_measure(folder / "m", mu, binary=True)
        for name in ("f", "m"):
            head = (folder / name).read_bytes().split(b"\n", 1)[0]
            assert (len(head) + 1) % 8 == 0 and re.fullmatch(rb".* body=binary {0,7}", head)
        back = dio.read_field(folder / "f")
        assert back.u.flags.aligned and bits(back.u) == bits(field.u)

    @pytest.mark.parametrize("extra", [(), ("p",), ("p", "theta")])
    @pytest.mark.parametrize("d", [1, 2])
    def test_an_unpadded_file_reads_bit_for_bit(self, tmp_path, d, extra):
        field = edge_field(d, extra, nx=5, nt=3)
        rows = np.resize(np.array(EDGES), (len(EDGES), d + 2))
        rows[:, -1] = np.copysign(rows[:, -1], 1.0)
        mu = am.AtomicMeasure(rows[:, :d + 1], rows[:, d + 1])
        dio.write_field(tmp_path / "f", field)
        dio.write_measure(tmp_path / "m", mu, binary=True)
        for name in ("f", "m"):
            head, body = (tmp_path / name).read_bytes().split(b"\n", 1)
            head = head.rstrip(b" ")   # as written before the padding
            (tmp_path / name).write_bytes(head + b"\n" + body)
        back, back_mu = dio.read_field(tmp_path / "f"), dio.read_measure(tmp_path / "m")
        assert back_mu.weights.flags.aligned == ((len(head) + 1) % 8 == 0)
        for got, want in zip([back.u, *back.scalars.values()], [field.u, *field.scalars.values()]):
            assert bits(got) == bits(want)
        for name in ("positions", "times", "weights"):
            assert bits(getattr(back_mu, name)) == bits(getattr(mu, name))

    @pytest.mark.parametrize("kind", ["field", "measure"])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_a_body_one_byte_off_exits_2(self, sample_field, sample_measure, tmp_path, capsys,
                                         monkeypatch, kind, change):
        from dissdim.cli import main
        path = tmp_path / kind
        if kind == "field":
            dio.write_field(path, sample_field)
            read, argv = dio.read_field, ["verify", "--input", str(path)]
        else:
            dio.write_measure(path, sample_measure, binary=True)
            read, argv = dio.read_measure, ["dimension", "--input", str(path)]
        data = path.read_bytes()
        expected = len(data) - len(data.split(b"\n", 1)[0]) - 1
        path.write_bytes(data[:change] if change < 0 else data + b"\0")
        message = f"binary body has {expected + change} bytes, expected {expected}"
        monkeypatch.setattr(np, "memmap", None)   # refused before any mapping
        with pytest.raises(dio.MalformedFileError, match=message) as err:
            read(path)
        assert err.value.line == 2
        assert main(argv) == 2
        assert message in capsys.readouterr().out

    def test_a_body_that_shrinks_after_the_size_check(self, sample_field, tmp_path,
                                                      monkeypatch):
        path = tmp_path / "f"
        dio.write_field(path, sample_field)
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(dio.os, "fstat", lambda fd: SimpleNamespace(st_size=full))
        with pytest.raises(dio.MalformedFileError, match="binary body ended before") as err:
            dio.read_field(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", ["u", "p", "theta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("node", [0, -1])
    def test_a_non_finite_sample_exits_2(self, tmp_path, capsys, d, name, value, node):
        from dissdim.cli import main
        field = edge_field(d, ("p", "theta"))
        rows = np.concatenate([field.u.reshape(-1, d)]
                              + [a.reshape(-1, 1) for a in field.scalars.values()], axis=1)
        rows[node, {"u": d - 1, "p": d, "theta": d + 1}[name]] = value
        path = tmp_path / "f"
        dio.write_field(path, field)
        head = path.read_bytes().split(b"\n", 1)[0]
        path.write_bytes(head + b"\n" + rows.astype("<f8").tobytes())
        with pytest.raises(dio.MalformedFileError, match=f"{name} contains non-finite samples"):
            dio.read_field(path)
        assert main(["verify", "--input", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().out

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_signed_zeros_and_subnormals_read_back_bit_exact(self, tmp_path, d):
        field = edge_field(d, ("p", "theta"))
        dio.write_field(tmp_path / "f", field)
        back = dio.read_field(tmp_path / "f")
        for got, want in zip([back.u, *back.scalars.values()], [field.u, *field.scalars.values()]):
            assert bits(got) == bits(want)
        rows = np.resize(np.array(EDGES), (len(EDGES), d + 2))
        rows[:, -1] = np.copysign(rows[:, -1], 1.0)
        mu = am.AtomicMeasure(rows[:, :d + 1], rows[:, d + 1])
        dio.write_measure(tmp_path / "m", mu, binary=True)
        back = dio.read_measure(tmp_path / "m")
        for name in ("positions", "times", "weights"):
            assert bits(getattr(back, name)) == bits(getattr(mu, name))

    def test_a_measure_is_two_views_of_the_mapping(self, sample_measure, tmp_path):
        # the points and the weights are columns of the mapped body, not copies
        dio.write_measure(tmp_path / "m", sample_measure, binary=True)
        mu = dio.read_measure(tmp_path / "m")
        body = mapping_of(mu.points)
        assert isinstance(body, mmap.mmap) and mapping_of(mu.weights) is body
        with pytest.raises(TypeError):   # the mapping itself is read-only
            body[0] = 0
        whole = np.frombuffer(body, dtype=np.uint8)
        assert np.shares_memory(mu.points, whole) and np.shares_memory(mu.weights, whole)
        del whole
        assert bits(mu.points) == bits(sample_measure.points)
        assert bits(mu.weights) == bits(sample_measure.weights)

    def test_arrays_are_read_only(self, sample_measure, tmp_path):
        dio.write_field(tmp_path / "f", edge_field(2, ("p", "theta")))
        dio.write_measure(tmp_path / "m", sample_measure, binary=True)
        field, mu = dio.read_field(tmp_path / "f"), dio.read_measure(tmp_path / "m")
        for arr in (field.u, *field.scalars.values(), mu.positions, mu.times, mu.weights):
            assert isinstance(mapping_of(arr), mmap.mmap)
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0

    def test_the_arrays_are_plain_views_whose_mapping_is_found(self, sample_measure, tmp_path):
        # no np.memmap method runs when they are indexed, and the page
        # releases still find the mapping through their base chain
        dio.write_field(tmp_path / "f", edge_field(2, ("p",), nx=40))
        dio.write_measure(tmp_path / "m", sample_measure, binary=True)
        field, mu = dio.read_field(tmp_path / "f"), dio.read_measure(tmp_path / "m")
        with open(tmp_path / "f", "rb") as fh:
            fh.readline()
            body = dio._read_rows(fh, tmp_path / "f", "binary", 2 * 40 * 40, 3, None)
        for arr in (body, field.u, field.scalars["p"], mu.points, mu.weights):
            assert type(arr) is np.ndarray and not arr.flags.writeable
            found = _mapped_bytes(arr)
            assert found is not None and found[0] is mapping_of(arr)

    @pytest.mark.parametrize("d, nx, nt, extra", [(1, 4097, 129, ("p", "theta")),
                                                  (2, 129, 33, ("p",))])
    def test_field_io_holds_the_body_once(self, tmp_path, d, nx, nt, extra):
        rng = np.random.default_rng(d)
        shape = (nt,) + (nx,) * d
        field = GriddedField(d, 0.0, 1.0, nx, 1.0, nt, rng.standard_normal(shape + (d,)),
                             {name: rng.standard_normal(shape) for name in extra})
        body = np.prod(shape) * (d + len(extra)) * 8   # 12.1 and 12.6 MiB
        written, _ = traced_peak(lambda: dio.write_field(tmp_path / "f", field))
        assert written < MIB   # one time slice is 96 and 390 KiB
        read, back = traced_peak(lambda: dio.read_field(tmp_path / "f"))
        assert read < MIB   # the body is mapped, not copied
        assert bits(back.u) == bits(field.u)

    @pytest.mark.parametrize("d", [1, 2])
    def test_measure_io_holds_the_body_once(self, tmp_path, d):
        rows = np.random.default_rng(d).random((300_000, d + 2))
        mu = am.AtomicMeasure(rows[:, :d + 1], rows[:, d + 1])
        written, _ = traced_peak(lambda: dio.write_measure(tmp_path / "m", mu, binary=True))
        assert written < MIB   # 4096 rows are 96 and 128 KiB
        read, back = traced_peak(lambda: dio.read_measure(tmp_path / "m"))
        assert read < MIB   # the body is mapped, not copied
        assert bits(back.weights) == bits(mu.weights)

    def test_a_small_window_leaves_the_body_on_disk(self, tmp_path, grown_in_fork,
                                                    steady_field_file):
        """Reading a 38.7 MB field and checking one small cylinder grows the
        peak RSS by far less than the body: the finiteness check releases
        each block it has checked, and the pairing copies only its window."""
        result = grown_in_fork(steady_field_file(tmp_path / "f"), f"""
            field = dio.read_field({str(tmp_path / "f")!r})
            cutoff = CutoffPair.build((0.5, 0.5, 0.5), 1 / 32, 2.0)
            holder_cylinder_bound(field, cutoff, 3.0, 3.0)
            body = field.u.nbytes
        """)
        assert result["body"] >= 32e6
        assert result["grown"] < result["body"] / 2

    def test_a_sweep_leaves_the_body_on_disk(self, tmp_path, grown_in_fork, steady_field_file):
        """Fifteen cylinders whose windows together cover most of the field
        grow the peak RSS by less than a third of the body: each window
        block releases the pages it has copied."""
        result = grown_in_fork(steady_field_file(tmp_path / "f"), f"""
            field = dio.read_field({str(tmp_path / "f")!r})
            for x, y in ((0.3, 0.3), (0.3, 0.7), (0.7, 0.3), (0.7, 0.7), (0.5, 0.5)):
                for delta in (1 / 8, 1 / 16, 1 / 32):
                    cutoff = CutoffPair.build((x, y, 0.5), delta, 1.0)
                    holder_cylinder_bound(field, cutoff, 3.0, 3.0)
            body = field.u.nbytes
        """)
        assert result["body"] >= 32e6
        assert result["grown"] < result["body"] / 3

    def test_a_measure_read_leaves_the_body_on_disk(self, tmp_path, grown_in_fork):
        """Reading a 33.6 MB measure grows the peak RSS by less than half of
        the body: the finiteness and the sign checks release each block."""
        path = str(tmp_path / "m")
        result = grown_in_fork(f"""
            n = 1_400_000   # 24 bytes a row
            # broadcast columns: writing the measure holds 4096 rows at a time
            mu = am.AtomicMeasure(np.broadcast_to([0.25, 0.5], (n, 2)), np.broadcast_to(1.0, n))
            dio.write_measure({path!r}, mu, binary=True)
        """, f"""
            mu = dio.read_measure({path!r})
            body = os.path.getsize({path!r})
        """)
        assert result["body"] >= 32e6
        assert result["grown"] < result["body"] / 2

    @pytest.mark.parametrize("bad, message", [
        ({-1: math.nan}, "finite"),
        ({-1: math.inf}, "finite"),
        ({-1: -math.inf}, "finite"),
        ({-1: -1e-300}, "non-negative"),
        ({0: -1.0, -1: math.nan}, "finite"),   # the finiteness check comes first
    ])
    def test_a_bad_weight_in_any_block_exits_2(self, tmp_path, capsys, bad, message):
        from dissdim.cli import main
        rows = np.ones((200_000, 3))   # 4.8 MB: the checks walk it in 5 blocks
        for row, weight in bad.items():
            rows[row, 2] = weight
        path = tmp_path / "m"
        dio.write_measure(path, am.AtomicMeasure(np.ones((1, 2)), [1.0]), binary=True)
        head = path.read_bytes().split(b"\n", 1)[0].replace(b"n=1 ", b"n=200000 ")
        path.write_bytes(head + b"\n" + rows.astype("<f8").tobytes())
        with pytest.raises(dio.MalformedFileError, match=message):
            dio.read_measure(path)
        assert main(["dimension", "--input", str(path)]) == 2
        assert message in capsys.readouterr().out

    def test_bodies_read_where_mmap_cannot_release_pages(self, sample_field, sample_measure,
                                                         tmp_path, monkeypatch):
        """Python on Windows has no MADV_DONTNEED; a read there releases nothing."""
        monkeypatch.delattr(mmap, "MADV_DONTNEED")
        dio.write_field(tmp_path / "f", sample_field)
        dio.write_measure(tmp_path / "m", sample_measure, binary=True)
        back, back_mu = dio.read_field(tmp_path / "f"), dio.read_measure(tmp_path / "m")
        assert isinstance(mapping_of(back.u), mmap.mmap)
        for got, want in zip([back.u, *back.scalars.values()],
                             [sample_field.u, *sample_field.scalars.values()]):
            assert bits(got) == bits(want)
        for name in ("positions", "times", "weights"):
            assert bits(getattr(back_mu, name)) == bits(getattr(sample_measure, name))


class TestReportCsv:
    def test_header_then_one_line_per_row(self):
        mu = fx.burgers_dissipation_measure(fx.RiemannDatum(1.0, -1.0), 1.0, 512)
        lad = am.density_ladder(mu, 1.0, 1.0, [0.1, 0.05, 0.025])
        text = dio.report_csv(["delta", "density"], zip(lad.scales, lad.densities))
        lines = text.split("\n")
        assert lines[0] == "delta,density"
        assert len(lines) == 5 and lines[-1] == ""

    def test_cells_are_their_reprs(self):
        pts = fx.time_singular_measure_fixture(1, 512, seed=1).support_points()
        scales = [0.25, 0.125, 0.0625]
        res = am.box_counting_dimension(pts, 1.0, scales)
        rows = [(delta, n, res.dim_estimate, -0.0, math.nan)
                for delta, n in zip(scales, res.counts)]
        lines = dio.report_csv(["delta", "count", "slope", "zero", "gap"], rows).splitlines()
        assert lines[0] == "delta,count,slope,zero,gap"
        assert lines[1:] == [f"{delta!r},{n},{res.dim_estimate!r},-0.0,nan"
                             for delta, n in zip(scales, res.counts)]
