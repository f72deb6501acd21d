"""On-disk formats for atomic measures and gridded fields, plus CSV reports.

Both file kinds are one ASCII header line and a body of float64 rows.  The
header ends with ``body=binary`` (little-endian float64 records) or
``body=text`` (one line per row, every value as its Python ``repr``, so a
text body reads back bit for bit; empty lines are skipped).  A header with
no body token, or another one, is rejected at line 1, as is one that
repeats a key, names a key its file kind does not define, or gives a
negative count (n, nx, nt).  Text lines end in LF
or CRLF; a CR anywhere else in the header or in a text body is rejected
with its line number.

    dissdim-measure v1 d=<int> n=<int> body=<binary|text>

is followed by ``n`` rows ``x_1 ... x_d t w`` (text values separated by spaces).

    dissdim-field v1 d=<int> nx=<int> nt=<int> a=<f> b=<f> T=<f> components=u[,p][,theta] body=<binary|text>

is followed by one row of components per node in (t-major, then x
lexicographic) order, its columns in the header's order: ``u`` first, then
each name of ``fields.SCALARS`` at most once, in any order.  The field's
``scalars`` mapping keeps that order, and the writer follows the mapping's
order, so a file read and written again keeps its header and its values.
The text body is CSV for d = 1 only; its rows ``t,x,u[,p][,theta]`` lead
with the grid axes, which are not read back.

The text writer takes a field one time slice at a time (a measure, 4096 rows
at a time) and calls ``repr`` once per distinct float64 bit pattern in it, so
-0.0 and 0.0 keep their own text; the ``x,`` strings are made once per field
and the ``t,`` string once per slice.  Each column of a slice fills its
stride of one list of strings (``out[i::width] = column``), joined once.
The reader first checks the body in 64 KiB chunks for bytes that are not
ASCII or a CR outside a CRLF, then hands ``np.loadtxt`` the file's path, so
that numpy parses it with its chunked C reader.  numpy would decompress a
path ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``, so under such a name
it gets the open file as a text stream instead, which it reads line by line.
Only a body that fails is read again line by line, to name the first bad
line.

A read returns each body as one (rows, columns) float64 array that the
returned object's arrays view (a measure's ``points`` are its first d + 1
columns, its ``weights`` the last).  A binary body is a read-only memory map
of the file (``np.memmap``), not a copy: only the pages a computation
touches become resident.  The checks of a read walk the body with
``fields.blocks``, which releases each block after it (``fields.release``),
a ``verify`` window copies its box one time row at a time and releases each
before it reads the next, and the ``dimension`` steps in ``aniso_measure``
read a measure the same way, so no command keeps a file it reads resident.
A binary
header line is padded with trailing spaces to a multiple of 8 bytes, so the
body is 8-byte aligned in the mapping (numpy sums an unaligned array in
another order); an unpadded file still reads, bit for bit.  A body shorter
or longer than its header says is rejected before it is mapped, but one that
another process truncates while it is mapped ends the reader with SIGBUS.
A text body is parsed into memory as one record of 8 bytes per value: the
leading t and x columns of a field, still parsed and so still checked, go
as float32 into the bytes of the row's first value, which numpy converts
after them and so writes over them.  The writers gather one time slice (or
4096 measure rows) at a time and write a binary block from the array's own
buffer, so a write makes no copy of the whole body.
"""

from __future__ import annotations

import io
import os
import warnings

import numpy as np

from .aniso_measure import AtomicMeasure
from .fields import SCALARS, GriddedField

__all__ = [
    "MalformedFileError",
    "write_measure",
    "read_measure",
    "write_field",
    "read_field",
    "report_csv",
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
    """The header line; a binary one is padded with trailing spaces to a
    multiple of 8 bytes, so that the body starts 8-byte aligned in a mapping."""
    line = f"{header} body={'binary' if binary else 'text'}"
    if binary:
        line += " " * (-(len(line) + 1) % 8)
    return f"{line}\n".encode("ascii")


def _write_rows(fh, rows: np.ndarray, binary: bool, sep: str, lead=()) -> None:
    """Append the C-contiguous float64 ``rows`` to the body.

    A text row starts with its string from each list in ``lead`` (one string
    per row, ending in its separator); ``repr`` runs once per distinct bit pattern.
    """
    if binary:
        fh.write(np.ascontiguousarray(rows, dtype="<f8"))   # the array's own buffer
        return
    keys, inverse = np.unique(rows.view(np.uint64), return_inverse=True)
    words = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    inverse = inverse.reshape(rows.shape)
    ends = [sep] * (rows.shape[1] - 1) + ["\n"]
    columns = [*lead] + [(words + end)[inverse[:, j]].tolist() for j, end in enumerate(ends)]
    out = [""] * (len(rows) * len(columns))
    for i, column in enumerate(columns):
        out[i::len(columns)] = column
    fh.write("".join(out).encode("ascii"))


def _count(value: str) -> int:
    """A header count (n, nx, nt): an int, at least 0."""
    if int(value) < 0:
        raise ValueError("a count must be >= 0")
    return int(value)


def _read_header(fh, magic: str, path, **types):
    """The body token, "binary" or "text", and the header values of ``types``,
    converted; the first key is the dimension d, which must be at least 1.
    Each key of ``types`` and ``body`` appears once, and no other key does."""
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise MalformedFileError(f"{path}: missing header line", line=1)
    if b"\r" in line.removesuffix(b"\r\n").removesuffix(b"\n"):
        raise MalformedFileError(f"{path}: CR inside the header line", line=1)
    parts = line.decode("ascii", "replace").split()
    if parts[: len(magic.split())] != magic.split():
        raise MalformedFileError(f"{path}: expected header {magic!r}", line=1)
    fields = {}
    for token in parts[len(magic.split()):]:
        if "=" not in token:
            raise MalformedFileError(f"{path}: bad header token {token!r}", line=1)
        key, value = token.split("=", 1)
        if key in fields or key not in (*types, "body"):
            raise MalformedFileError(f"{path}: header key {key!r} is "
                                     f"{'repeated' if key in fields else 'unknown'}", line=1)
        fields[key] = value
    values = []
    for key, convert in types.items():
        try:
            values.append(convert(fields[key]))
        except KeyError:
            raise MalformedFileError(f"{path}: header key {key!r} is missing", line=1) from None
        except ValueError as exc:
            raise MalformedFileError(f"{path}: header key {key!r} is bad ({exc})", line=1) from None
    if values[0] < 1:
        raise MalformedFileError(f"{path}: header needs d >= 1", line=1)
    body = fields.get("body")
    if body not in ("binary", "text"):
        raise MalformedFileError(f"{path}: header needs body=binary|body=text, got {body!r}",
                                 line=1)
    return body, values


def _read_rows(fh, path, token, n_rows: int, n_cols: int, text) -> np.ndarray:
    """Decode the body after the header as an (n_rows, n_cols) array.

    ``token`` is the header's body token, "binary" or "text".  ``text`` is
    the text layout ``(sep, lead)``: the column separator (None for
    whitespace) and the count of leading columns to drop; None when this
    file has no text body.  A binary body is returned as a read-only map of
    the file, a text body as one C-contiguous float64 array parsed into one
    record of 8 * n_cols bytes per row: the lead columns, as float32, overlap
    the first value, which numpy converts after them and so writes over them.
    """
    start = fh.tell()
    size = os.fstat(fh.fileno()).st_size - start
    expected = n_rows * n_cols * 8
    if token == "binary":
        if size != expected:
            raise MalformedFileError(
                f"{path}: binary body has {size} bytes, expected {expected}", line=2)
        if not expected:   # mmap refuses zero bytes
            rows = np.empty((n_rows, n_cols), dtype="<f8")
            rows.flags.writeable = False
            return rows
        try:
            return np.memmap(fh, dtype="<f8", mode="r", offset=start, shape=(n_rows, n_cols))
        except ValueError:   # mmap checks the size again: the file shrank since fstat
            raise MalformedFileError(f"{path}: binary body ended before {expected} bytes",
                                     line=2) from None
    if text is None:
        raise MalformedFileError(f"{path}: a text body is only defined for d = 1", line=1)
    sep, lead = text
    # one record per row, the float64 values at offset 0; numpy parses (and so
    # checks) each dropped lead column into float32 bytes that the values,
    # converted next in field order, overwrite
    dtype = np.dtype({"names": ["lead", "body"], "formats": [("<f4", (lead,)), ("<f8", (n_cols,))],
                      "offsets": [0, 0], "itemsize": 8 * n_cols})
    problem = "a non-ASCII byte or a CR outside a CRLF"
    if _plain_text(fh):
        # numpy would decompress a path with these suffixes; the open handle it reads as it stands
        stream = os.fsdecode(path).endswith((".gz", ".bz2", ".xz", ".lzma"))
        fh.seek(start)
        # absolute, because numpy fetches a name that parses as a URL (a local
        # "http://host/f" included) over the network instead of opening it
        source = (io.TextIOWrapper(fh, encoding="latin-1") if stream
                  else os.path.abspath(os.fsdecode(path)))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # loadtxt warns on an empty body
                # a row bound lets numpy allocate the records once: one row past
                # n_rows, so a longer body fails at its line, and no more rows
                # than the bytes hold (2 or more a column), so a huge count is cheap
                rows = np.loadtxt(source, dtype, delimiter=sep, comments=None, ndmin=1,
                                  encoding="latin-1", skiprows=0 if stream else 1,
                                  max_rows=min(n_rows + 1, size // (2 * (lead + n_cols)) + 1))
        except ValueError as exc:
            problem = str(exc)
        else:
            if len(rows) == n_rows:
                return rows["body"]
        finally:
            if stream:
                source.detach()   # leaves fh open
    fh.seek(start)
    line, problem = _first_bad_line(fh, n_rows, lead + n_cols, sep) or (None, problem)
    raise MalformedFileError(f"{path}: {problem}", line=line)


def _plain_text(fh) -> bool:
    """Whether the rest of ``fh`` is ASCII with every CR in a CRLF.

    ``np.loadtxt`` reads a path in text mode, where a lone CR would end a
    line; it decodes as Latin-1, so the header may hold any byte.
    """
    # each chunk ends at a line end, so no CRLF is split between two chunks
    for chunk in iter(lambda: fh.read(1 << 16) + fh.readline(), b""):
        if not chunk.isascii() or (b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n")):
            return False
    return True


def _first_bad_line(fh, n_rows: int, width: int, sep):
    """(1-based file line, reason) of the first fault in a text body, or None.

    Runs on the error path only; it skips empty lines as ``np.loadtxt`` does.
    """
    found = 0
    line_no = 1
    for line_no, raw in enumerate(fh, start=2):
        line = raw.decode("ascii", "replace").removesuffix("\r\n").removesuffix("\n")
        if "\r" in line:
            return line_no, "CR outside a CRLF"
        parts = line.split(sep)
        if not line or not parts:
            continue
        found += 1
        if found > n_rows:
            return line_no, f"expected {n_rows} rows, found more"
        if len(parts) != width:
            return line_no, f"expected {width} columns, found {len(parts)}"
        try:
            if "_" in line:   # float() reads 1_0, numpy's parser does not
                raise ValueError
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
    with open(path, "wb") as fh:
        fh.write(_header_line(f"{MEASURE_MAGIC} d={mu.d} n={mu.n_atoms}", binary))
        # 4096 rows at a time bound the gathered rows and the text buffer like a field slice
        for start in range(0, mu.n_atoms, 4096):
            chunk = slice(start, start + 4096)
            rows = np.column_stack([mu.points[chunk], mu.weights[chunk]])
            _write_rows(fh, rows, binary, " ")


def read_measure(path) -> AtomicMeasure:
    with open(path, "rb") as fh:
        token, (d, n) = _read_header(fh, MEASURE_MAGIC, path, d=int, n=_count)
        rows = _read_rows(fh, path, token, n, d + 2, (None, 0))
    try:
        return AtomicMeasure(rows[:, :d + 1], rows[:, d + 1])
    except ValueError as exc:
        raise MalformedFileError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Fields.
# ---------------------------------------------------------------------------

def write_field(path, field: GriddedField, binary: bool = True) -> None:
    if not binary and field.d != 1:
        raise ValueError("the CSV body is only defined for d = 1")
    header = (f"{FIELD_MAGIC} d={field.d} nx={field.nx} nt={field.nt} a={field.a!r} "
              f"b={field.b!r} T={field.T!r} components={','.join(['u', *field.scalars])}")
    xs = [f"{x!r}," for x in field.x_axis.tolist()]
    with open(path, "wb") as fh:
        fh.write(_header_line(header, binary))
        # one time slice at a time bounds the gathered rows, the text buffer and the repr cache
        for k, t in enumerate(field.t_axis.tolist()):
            block = np.concatenate([field.u[k].reshape(-1, field.d)]
                                   + [a[k].reshape(-1, 1) for a in field.scalars.values()], axis=1)
            _write_rows(fh, block, binary, ",", ([f"{t!r},"] * len(xs), xs))


def read_field(path) -> GriddedField:
    with open(path, "rb") as fh:
        token, (d, nx, nt, a, b, big_t, comps) = _read_header(
            fh, FIELD_MAGIC, path, d=int, nx=_count, nt=_count, a=float, b=float, T=float,
            components=lambda v: v.split(","))
        extra = comps[1:]
        if comps[0] != "u" or not set(extra) <= set(SCALARS) or len(set(extra)) < len(extra):
            raise MalformedFileError(f"{path}: components must be u, then {' and '.join(SCALARS)}"
                                     f" each at most once, got {','.join(comps)!r}", line=1)
        mat = _read_rows(fh, path, token, nt * nx ** d, d + len(extra),
                         (",", 2) if d == 1 else None)
    shape = (nt,) + (nx,) * d
    columns = {name: mat[:, d + i].reshape(shape) for i, name in enumerate(extra)}
    try:
        return GriddedField(d, a, b, nx, big_t, nt, mat[:, :d].reshape(shape + (d,)), columns)
    except ValueError as exc:
        raise MalformedFileError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# CSV reports.
# ---------------------------------------------------------------------------

def report_csv(header, rows) -> str:
    """A CSV report: the header's names, then each row's cells as their ``repr``."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"
