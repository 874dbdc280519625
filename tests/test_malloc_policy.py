"""The CLI's malloc thresholds: the values it sets and when, the silent
fallback where the C library has no ``mallopt``, and that heap placement
moves no output bit.
"""

import ctypes
import subprocess
import sys

import pytest

from cactusnet import runner
from test_cli import COMPARED, child_env, run, run_full, write_tiny_config

MIB = 1 << 20


class FakeLibc:
    """A C library whose ``mallopt`` records each call in ``log``."""

    def __init__(self, log, result=1):
        def mallopt(param, value):
            log.append(("mallopt", param, value))
            return result
        self.mallopt = mallopt


def loader(lib):
    def load(name):
        assert name is None  # the running process's own C library
        return lib
    return load


def no_libc(name):
    raise OSError("no C library")


def test_thresholds_are_set_before_the_verb_runs(tmp_path, monkeypatch):
    log = []
    lib = FakeLibc(log)
    monkeypatch.setattr(ctypes, "CDLL", loader(lib))
    monkeypatch.setattr(runner, "run_train_base",
                        lambda cfg: log.append(("runner",)) or {})
    assert run(write_tiny_config(tmp_path), "train-base") == 0
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
    assert log == [("mallopt", -3, 32 * MIB), ("mallopt", -1, 64 * MIB),
                   ("runner",)]
    assert lib.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert lib.mallopt.restype is ctypes.c_int


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The tiny pipeline with the real C library."""
    base = tmp_path_factory.mktemp("reference")
    run_full(base)
    return base


@pytest.mark.parametrize("libc", ["no mallopt", "cannot load", "refused"])
def test_a_missing_or_refusing_mallopt_is_a_silent_no_op(
        reference_run, tmp_path, monkeypatch, capsys, libc):
    load = {"no mallopt": lambda name: object(),
            "cannot load": no_libc,
            "refused": loader(FakeLibc([], result=0))}[libc]
    monkeypatch.setattr(ctypes, "CDLL", load)
    capsys.readouterr()
    run_full(tmp_path)  # asserts exit 0 for every verb
    # measure's per-cell progress lines are the only stderr
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith("measure: cell ") for line in err)
    for name in COMPARED:
        assert (tmp_path / name).read_bytes() == \
            (reference_run / name).read_bytes(), name


RUNNER_PHASES = """
import sys
from cactusnet import runner
from cactusnet.config import load_config

cfg = load_config(sys.argv[1])
runner.prepare(cfg)
runner.run_train_base(cfg)
runner.run_measure(cfg)
runner.run_train_predictors(cfg)
runner.run_cactus(cfg, sys.argv[2])
runner.run_report(cfg)
assert "cactusnet.cli" not in sys.modules
"""


def test_the_cli_process_and_a_plain_runner_process_write_the_same_bytes(
        tmp_path):
    stream = '{"type": "mock", "apps": [0.99, 0.2, 0.2]}'
    a, b = tmp_path / "cli", tmp_path / "runner"
    for base in (a, b):
        base.mkdir()
        write_tiny_config(base)
        (base / "stream.json").write_text(stream)
    env = child_env()
    for verb in (["prepare"], ["train-base"], ["measure"], ["train-predictors"],
                 ["cactus-run", str(a / "stream.json")], ["report"]):
        proc = subprocess.run(
            [sys.executable, "-m", "cactusnet", "--config",
             str(a / "config.json"), *verb], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER_PHASES, str(b / "config.json"),
         str(b / "stream.json")], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for name in COMPARED:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
