"""Command-line experiment runner.

Verbs: prepare, train-base, measure, train-predictors, cactus-run,
report.  Exit codes: 0 success, 3 runtime numeric failure, 2 any other
package error (configuration, validation, a corrupt input file).

``python -m cactusnet`` and the ``cactusnet`` console script both run
``entry_point``; ``main`` is the same command for an in-process caller.
"""

import argparse
import ctypes
import gc
import json
import os
import sys

from .config import load_config
from .errors import CactusNetError, NumericFailureError
from . import runner

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# glibc's mallopt parameters (malloc.h) and the values its adaptive policy
# reaches on 64-bit: the mmap threshold climbs to at most 32 MiB, and the
# trim threshold follows it at twice that.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _fix_malloc_thresholds():
    """Start the heap where glibc's adaptive thresholds would end up.

    An SGD step allocates a few MB of activations and gradients and frees
    them; with the default thresholds glibc hands the freed heap top back
    to the OS, and the next step faults the same pages in again.  Setting
    either threshold turns off glibc's dynamic adjustment of both, so both
    are set.  This moves where arrays live, not what is computed.  A
    silent no-op where the C library has no ``mallopt`` (macOS) or cannot
    be opened, and where ``mallopt`` refuses a value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


# where the running process lists the files it has mapped (Linux)
PROC_MAPS = "/proc/self/maps"
# the thread setter of numpy's bundled OpenBLAS (scipy-openblas64)
OPENBLAS_SET_THREADS = "scipy_openblas_set_num_threads64_"


def _mapped_openblas():
    """The path of numpy's OpenBLAS as this process has mapped it, or None.

    Read from the process's own memory map: ``ctypes.util.find_library``
    starts subprocesses, and could name another copy than numpy's.
    """
    try:
        with open(PROC_MAPS) as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "scipy_openblas" in os.path.basename(fields[5]):
                    return fields[5].rstrip("\n")
    except OSError:
        pass
    return None


def pin_blas_threads():
    """Run numpy's OpenBLAS on one thread, whatever the environment says.

    Under some sgemm kernels (Haswell's, which AVX2 CPUs without AVX-512
    get) a product split over two threads rounds differently from one,
    so every file from ``train-base`` on would follow
    ``OPENBLAS_NUM_THREADS``.  At these matrix sizes a second thread
    adds CPU time and no speed.  A silent no-op where numpy's OpenBLAS
    is not mapped (macOS, a numpy on another BLAS), cannot be opened, or
    lacks the setter.
    """
    path = _mapped_openblas()
    if path is None:
        return
    try:
        setter = getattr(ctypes.cdll.LoadLibrary(path), OPENBLAS_SET_THREADS)
    except (OSError, AttributeError):
        return
    setter.argtypes = (ctypes.c_int,)
    setter.restype = None
    setter(1)


# verb -> (its ``runner`` function, help); the function is looked up when
# the verb runs, so a binding patched after import is the one called
VERBS = {
    "prepare": ("prepare", "write the manifest for a synthetic run"),
    "train-base": ("run_train_base", "train the base classifier"),
    "measure": ("run_measure", "run the 1-vs-1 applicability sweep"),
    "train-predictors": ("run_train_predictors",
                         "train per-layer applicability predictors"),
    "cactus-run": ("run_cactus", "route a stream through the tree"),
    "report": ("run_report", "bundle plot-ready outputs"),
}


def _parser():
    p = argparse.ArgumentParser(
        prog="cactusnet",
        description="Layer applicability measurement and CactusNet growth")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--seed", type=int, help="override the master seed")
    sub = p.add_subparsers(dest="command", required=True)
    for verb, (_, text) in VERBS.items():
        sub.add_parser(verb, help=text)
    sub.choices["cactus-run"].add_argument(
        "stream", help="stream JSON (mock/manifest/dataset)")
    return p


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    pin_blas_threads()
    args = _parser().parse_args(argv)
    overrides = {"out_dir": args.out, "master_seed": args.seed}
    try:
        cfg = load_config(args.config, cli_overrides=overrides)
        run = getattr(runner, VERBS[args.command][0])
        result = run(cfg, args.stream) if args.command == "cactus-run" else run(cfg)
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CactusNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def entry_point() -> int:
    """``main`` on the process's arguments, in a process about to exit.

    ``gc.freeze`` moves every live object into the collector's permanent
    generation, so the interpreter's shutdown collections skip the heap
    instead of taking it apart object by object (tens of ms a phase) just
    before the OS reclaims it.  atexit handlers and the stdout and stderr
    flushes still run, and every file the package opens is closed by a
    ``with`` before ``main`` returns.  ``main`` itself leaves the
    collector alone, for callers that run it in-process and live on.
    """
    code = main()
    gc.freeze()
    return code
