"""On-disk formats for atomic measures and gridded fields, plus CSV reports.

Both file kinds are one ASCII header line and a body of float64 rows.  The
header ends with ``body=binary`` (little-endian float64 records) or
``body=text`` (one line per row, every value as its Python ``repr``, so a
text body reads back bit for bit; empty lines are skipped).  A header
without the token, as written before it existed, is read as binary when the
body is exactly rows * columns * 8 bytes long and as text otherwise.

    dissdim-measure v1 d=<int> n=<int> body=<binary|text>

is followed by ``n`` rows ``x_1 ... x_d t w`` (text values separated by spaces).

    dissdim-field v1 d=<int> nx=<int> nt=<int> a=<f> b=<f> T=<f> components=u[,p][,theta] body=<binary|text>

is followed by one row of components per node in (t-major, then x
lexicographic) order.  The text body is CSV for d = 1 only; its rows
``t,x,u[,p][,theta]`` lead with the grid axes, which are not read back.
"""

from __future__ import annotations

import os
import warnings
from itertools import chain

import numpy as np

from .aniso_measure import AtomicMeasure
from .fields import GriddedField

__all__ = [
    "MalformedFileError",
    "write_measure",
    "read_measure",
    "write_field",
    "read_field",
    "ladder_csv",
    "box_count_csv",
]

MEASURE_MAGIC = "dissdim-measure v1"
FIELD_MAGIC = "dissdim-field v1"


class MalformedFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Body codec shared by both file kinds.
# ---------------------------------------------------------------------------

def _header_line(header: str, binary: bool) -> bytes:
    return f"{header} body={'binary' if binary else 'text'}\n".encode("ascii")


def _write_rows(fh, rows: np.ndarray, binary: bool, sep: str, lead=()) -> None:
    """Append ``rows`` to the body; a text row starts with the ``lead`` string columns."""
    if binary:
        fh.write(rows.astype("<f8").tobytes())
        return
    fmt = sep.join(["%s"] * len(lead) + ["%r"] * rows.shape[1]) + "\n"
    values = chain.from_iterable(zip(*lead, *rows.T.tolist()))
    fh.write(((fmt * rows.shape[0]) % tuple(values)).encode("ascii"))


def _read_header(fh, magic: str, path, **types):
    """The body token (None if absent) and the header values of ``types``,
    converted; the first key is the dimension d, which must be at least 1."""
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise MalformedFileError(f"{path}: missing header line", line=1)
    parts = line.decode("ascii", "replace").split()
    if parts[: len(magic.split())] != magic.split():
        raise MalformedFileError(f"{path}: expected header {magic!r}", line=1)
    fields = {}
    for token in parts[len(magic.split()):]:
        if "=" not in token:
            raise MalformedFileError(f"{path}: bad header token {token!r}", line=1)
        key, value = token.split("=", 1)
        fields[key] = value
    try:
        values = [convert(fields[key]) for key, convert in types.items()]
    except (KeyError, ValueError) as exc:
        raise MalformedFileError(f"{path}: bad header ({exc})", line=1)
    if values[0] < 1:
        raise MalformedFileError(f"{path}: header needs d >= 1", line=1)
    return fields.get("body"), values


def _read_rows(fh, path, token, n_rows: int, n_cols: int, text) -> np.ndarray:
    """Decode the body after the header as an (n_rows, n_cols) array.

    ``token`` is the header's body token (None when absent).  ``text`` is
    the text layout ``(sep, lead)``: the column separator (None for
    whitespace) and the count of leading columns to drop; None when this
    file has no text body.
    """
    start = fh.tell()
    size = os.fstat(fh.fileno()).st_size - start
    expected = n_rows * n_cols * 8
    if token is None:
        token = "binary" if size == expected or text is None else "text"
    if token == "binary":
        if size != expected:
            raise MalformedFileError(
                f"{path}: binary body has {size} bytes, expected {expected}", line=2)
        return np.frombuffer(fh.read(), dtype="<f8").reshape(n_rows, n_cols)
    if token != "text":
        raise MalformedFileError(f"{path}: unknown body token {token!r}", line=1)
    if text is None:
        raise MalformedFileError(f"{path}: a text body is only defined for d = 1", line=1)
    sep, lead = text
    width = lead + n_cols
    problem = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # loadtxt warns on an empty body
            rows = np.loadtxt(fh, delimiter=sep, comments=None, ndmin=2, encoding="ascii")
    except ValueError as exc:   # also UnicodeDecodeError
        problem = str(exc)
    else:
        if len(rows) == n_rows and (n_rows == 0 or rows.shape[1] == width):
            return rows.reshape(n_rows, width)[:, lead:]
    fh.seek(start)
    line, problem = _first_bad_line(fh, n_rows, width, sep) or (None, problem)
    raise MalformedFileError(f"{path}: {problem}", line=line)


def _first_bad_line(fh, n_rows: int, width: int, sep):
    """(1-based file line, reason) of the first fault in a text body, or None.

    Runs on the error path only; it skips empty lines as ``np.loadtxt`` does.
    """
    found = 0
    line_no = 1
    for line_no, raw in enumerate(fh, start=2):
        line = raw.decode("ascii", "replace").rstrip("\r\n")
        parts = line.split(sep)
        if not line or not parts:
            continue
        found += 1
        if found > n_rows:
            return line_no, f"expected {n_rows} rows, found more"
        if len(parts) != width:
            return line_no, f"expected {width} columns, found {len(parts)}"
        try:
            [float(v) for v in parts]
        except ValueError:
            return line_no, "non-numeric entry"
    if found < n_rows:
        return line_no + 1, f"expected {n_rows} rows, found {found}"
    return None


# ---------------------------------------------------------------------------
# Measures.
# ---------------------------------------------------------------------------

def write_measure(path, mu: AtomicMeasure, binary: bool = False) -> None:
    rows = np.column_stack([mu.positions, mu.times, mu.weights])
    with open(path, "wb") as fh:
        fh.write(_header_line(f"{MEASURE_MAGIC} d={mu.d} n={mu.n_atoms}", binary))
        _write_rows(fh, rows, binary, " ")


def read_measure(path) -> AtomicMeasure:
    with open(path, "rb") as fh:
        token, (d, n) = _read_header(fh, MEASURE_MAGIC, path, d=int, n=int)
        rows = _read_rows(fh, path, token, n, d + 2, (None, 0))
    try:
        return AtomicMeasure(rows[:, :d], rows[:, d], rows[:, d + 1], d=d)
    except ValueError as exc:
        raise MalformedFileError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Fields.
# ---------------------------------------------------------------------------

def write_field(path, field: GriddedField, binary: bool = True) -> None:
    if not binary and field.d != 1:
        raise ValueError("the CSV body is only defined for d = 1")
    extra = {name: arr for name, arr in (("p", field.p), ("theta", field.theta))
             if arr is not None}
    header = (f"{FIELD_MAGIC} d={field.d} nx={field.nx} nt={field.nt} a={field.a!r} "
              f"b={field.b!r} T={field.T!r} components={','.join(['u', *extra])}")
    samples = np.concatenate([field.u.reshape(field.nt, -1, field.d)]
                             + [arr.reshape(field.nt, -1, 1) for arr in extra.values()], axis=2)
    xs = [repr(x) for x in field.x_axis.tolist()]
    with open(path, "wb") as fh:
        fh.write(_header_line(header, binary))
        # one time slice at a time keeps the text buffer small
        for t, block in zip(field.t_axis.tolist(), samples):
            _write_rows(fh, block, binary, ",", ([repr(t)] * len(xs), xs))


def read_field(path) -> GriddedField:
    with open(path, "rb") as fh:
        token, (d, nx, nt, a, b, big_t, comps) = _read_header(
            fh, FIELD_MAGIC, path, d=int, nx=int, nt=int, a=float, b=float, T=float,
            components=lambda v: v.split(","))
        extra = [name for name in ("p", "theta") if name in comps]
        mat = _read_rows(fh, path, token, nt * nx ** d, d + len(extra),
                         (",", 2) if d == 1 else None)
    shape = (nt,) + (nx,) * d
    columns = {name: mat[:, d + i].reshape(shape) for i, name in enumerate(extra)}
    try:
        return GriddedField(d, a, b, nx, big_t, nt, mat[:, :d].reshape(shape + (d,)), **columns)
    except ValueError as exc:
        raise MalformedFileError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# CSV reports.
# ---------------------------------------------------------------------------

def ladder_csv(ladder) -> str:
    lines = ["delta,density,fit_slope,residual"]
    for delta, rho in zip(ladder.scales, ladder.densities):
        lines.append(f"{delta!r},{rho!r},{ladder.fitted_slope!r},{ladder.fit_residual!r}")
    return "\n".join(lines) + "\n"


def box_count_csv(scales, result) -> str:
    lines = ["delta,count,fit_slope,residual"]
    for delta, count in zip(scales, result.counts):
        lines.append(f"{float(delta)!r},{count},{result.dim_estimate!r},{result.fit_residual!r}")
    return "\n".join(lines) + "\n"
