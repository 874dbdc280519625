"""The CLI's BLAS thread pin: how it finds numpy's OpenBLAS, the silent
fallback where it cannot, and that the thread count in the environment
no longer moves an output bit.
"""

import copy
import ctypes
import json
import platform
import subprocess
import sys

import pytest

from cactusnet import cli, runner
from cactusnet.config import default_config_dict
from test_cli import TINY, child_env, run, write_tiny_config

LIB = "/opt/lib with space/libscipy_openblas64_-abc123.so"
MAPS = (
    "55d0a0000000-55d0a0001000 r--p 00000000 fe:00 11 /usr/bin/python3.11\n"
    "7f0000000000-7f0000001000 rw-p 00000000 00:00 0 \n"
    f"7f4663800000-7f4663a89000 r--p 00000000 fe:00 62288 {LIB}\n"
    f"7f4663a89000-7f4663b00000 r-xp 00289000 fe:00 62288 {LIB}\n")


class FakeBlas:
    """An OpenBLAS whose thread setter records its calls in ``log``."""

    def __init__(self, log):
        self.scipy_openblas_set_num_threads64_ = lambda n: log.append(("set", n))


class FakeLoader:
    def __init__(self, log, lib):
        self.log, self.lib = log, lib

    def LoadLibrary(self, path):
        self.log.append(("load", path))
        if self.lib is None:
            raise OSError("cannot open")
        return self.lib


@pytest.fixture
def maps(tmp_path, monkeypatch):
    path = tmp_path / "maps"
    path.write_text(MAPS)
    monkeypatch.setattr(cli, "PROC_MAPS", str(path))
    return path


def test_one_thread_is_set_before_the_verb_runs(tmp_path, maps, monkeypatch):
    log = []
    lib = FakeBlas(log)
    monkeypatch.setattr(ctypes, "cdll", FakeLoader(log, lib))
    monkeypatch.setattr(runner, "run_train_base",
                        lambda cfg: log.append(("runner",)) or {})
    assert run(write_tiny_config(tmp_path), "train-base") == 0
    assert log == [("load", LIB), ("set", 1), ("runner",)]
    setter = lib.scipy_openblas_set_num_threads64_
    assert setter.argtypes == (ctypes.c_int,) and setter.restype is None


@pytest.mark.parametrize("case", ["no maps", "no openblas mapped",
                                  "cannot load", "no setter"])
def test_a_missing_library_or_setter_is_a_silent_no_op(
        tmp_path, maps, monkeypatch, case):
    log = []
    lib = None if case == "cannot load" else object()
    monkeypatch.setattr(ctypes, "cdll", FakeLoader(log, lib))
    if case == "no maps":
        maps.unlink()
    elif case == "no openblas mapped":
        maps.write_text(MAPS.replace("openblas", "blas"))
    cli.pin_blas_threads()
    loads = [] if case in ("no maps", "no openblas mapped") else [("load", LIB)]
    assert log == loads
    assert run(write_tiny_config(tmp_path), "prepare") == 0


def haswell_config(base):
    """The smallest config found on which ``train-base`` writes other bits
    at one and two OpenBLAS threads under the Haswell kernel: the tiny
    dataset at 12 images per class and 20-pixel sides, the default
    network without its third convolution and with a head as wide as
    the tiny manifest's two known classes, one epoch."""
    desk = default_config_dict()["architecture"]["layers"]
    doc = copy.deepcopy(TINY)
    doc["dataset"].update(per_class=12, image_side=20)
    layers = desk[:6] + desk[8:]
    layers[-2]["units"] = 2
    doc["architecture"] = {"layers": layers}
    doc.update(taps=[2, 5, 8])
    doc["train"]["base"]["epochs"] = 1
    path = base / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or platform.machine() not in ("x86_64", "AMD64"),
    reason="the pin finds OpenBLAS through /proc, and the Haswell kernel "
           "is x86-64's")
def test_train_base_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    ckpts = []
    for threads in ("1", "2"):
        base = tmp_path / threads
        base.mkdir()
        cfg = haswell_config(base)
        env = dict(child_env(), OPENBLAS_CORETYPE="Haswell",
                   OPENBLAS_NUM_THREADS=threads)
        for verb in ("prepare", "train-base"):
            proc = subprocess.run(
                [sys.executable, "-m", "cactusnet", "--config", str(cfg), verb],
                capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
        ckpts.append((base / "out" / "base.ckpt").read_bytes())
    assert ckpts[0] == ckpts[1]
