"""Benchmark-owned inputs and checks, each run as its own process.

    python3 bench/inputs.py env
        Print where dissdim is imported from and the numeric environment.
    python3 bench/inputs.py shear2d PATH NX NT
        Write the decaying 2D shear field (nu=1e-2, k=2*pi on [0,1]^2, T=1).
    python3 bench/inputs.py shock-roundtrip PATH NX NT
        Check that a text field equals the exact standing shock
        (u_l=1, u_r=-1 on [-1,1], T=1) sample for sample.
"""

import ctypes
import glob
import json
import math
import os
import platform
import sys

import numpy as np


def _blas() -> dict:
    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def env() -> dict:
    import dissdim
    return {"dissdim": os.path.abspath(dissdim.__file__), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": _blas()}


def shear2d(path: str, nx: int, nt: int) -> dict:
    from dissdim import io
    from dissdim.fixtures import decaying_shear_field
    field = decaying_shear_field(1e-2, 2 * math.pi, 0.0, 1.0, nx, 1.0, nt)
    io.write_field(path, field)
    return {"bytes": os.path.getsize(path)}


def shock_roundtrip(path: str, nx: int, nt: int) -> dict:
    from dissdim import io
    from dissdim.fixtures import RiemannDatum, burgers_entropy_solution
    read = io.read_field(path)
    exact = burgers_entropy_solution(RiemannDatum(1.0, -1.0, 0.0), -1.0, 1.0, nx, 1.0, nt)
    return {"equal": bool(np.array_equal(read.u, exact.u))}


if __name__ == "__main__":
    command, args = sys.argv[1], sys.argv[2:]
    if command == "env":
        result = env()
    elif command == "shear2d":
        result = shear2d(args[0], int(args[1]), int(args[2]))
    elif command == "shock-roundtrip":
        result = shock_roundtrip(args[0], int(args[1]), int(args[2]))
    else:
        sys.exit(f"unknown command {command!r}")
    print(json.dumps(result))
