"""One benchmark operation in a fresh interpreter.

    python3 perfbench/oprun.py SPEC.json

SPEC holds ``mode`` (``env`` or ``op``), ``src`` (the directory ``conesum``
must be imported from), ``config`` (a conesum JSON config), ``argv`` (for
``conesum.cli.main``), ``trace`` and ``result`` (where this process writes
its JSON result).  Both modes first import ``conesum.cli`` and run
``load_config`` on the config, the set-up a user pays on every command, and
time it.  ``env`` then records library versions; ``op`` times
``main(argv)`` and, with ``trace``, records spans around conesum's public
functions.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    import ctypes

    import numpy as np

    info = {"version": None, "threads": None, "library": None}
    try:
        cfg = np.show_config(mode="dicts")
        info["version"] = cfg["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = sorted({line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = Path(path).name
                return info
    return info


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    start = time.perf_counter()
    import conesum.cli
    from conesum.config import load_config

    load_config(spec["config"])
    setup_s = time.perf_counter() - start
    src = Path(spec["src"]).resolve()
    origin = Path(conesum.cli.__file__).resolve()
    if src not in origin.parents:
        raise RuntimeError(f"conesum imported from {origin}, expected under {src}")
    result: dict = {"setup_s": setup_s}
    if spec["mode"] == "env":
        result["environment"] = _environment()
    elif spec["mode"] == "op":
        run = conesum.cli.main
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            run = tracer.spanned("cli", run)
        rc, exc = None, None
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            rc = run(spec["argv"])
        except SystemExit as stop:  # argparse rejects its arguments this way
            rc = stop.code
        except Exception:
            exc = traceback.format_exc()
        wall_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            exception=exc,
            wall_s=wall_s,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["trace"] = tracer.dump()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
