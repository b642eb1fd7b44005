"""One measured skybeam process, started by run.py with PYTHONPATH=src.

    child.py setup <config.json> <seed> <result.json>
        time import, config validation, scenario and codebooks.
    child.py op <0|1> <result.json> <skybeam argv...>
        call skybeam.cli.main(argv) as `skybeam <argv>` would, with the
        layer tracer installed when the flag is 1.

Both write a small JSON result; an op exits with the CLI's own code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

START = time.perf_counter()
SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    import skybeam.cli

    if not Path(skybeam.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"skybeam was imported from {skybeam.__file__}, not from {SRC}")
    return skybeam.cli


def _environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def setup(config: str, seed: str, result: str) -> int:
    _import_cli()
    from skybeam.codebook import build_dl_codebook, build_ssb_codebook
    from skybeam.config import codebook_params_from_config, load_config
    from skybeam.scenario import scenario_from_config

    cfg = load_config(config)
    cfg["seeds"]["master"] = int(seed)
    scenario = scenario_from_config(cfg)
    params = codebook_params_from_config(cfg)
    panel = scenario.sectors[0].panel
    build_ssb_codebook(panel, params.ssb_oversampling_h, params.ssb_oversampling_v)
    build_dl_codebook(panel, params.dl_oversampling_h, params.dl_oversampling_v)
    elapsed = time.perf_counter() - START
    Path(result).write_text(json.dumps({"setup_s": elapsed, "environment": _environment()}))
    return 0


def op(traced: str, result: str, argv: list[str]) -> int:
    cli = _import_cli()
    tracer = None
    if traced == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    rc = cli.main(argv)
    payload = {
        "rc": rc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.report() if tracer else None,
    }
    Path(result).write_text(json.dumps(payload))
    return rc


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(*rest))
    sys.exit(op(rest[0], rest[1], rest[2:]))
