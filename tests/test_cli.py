"""CLI verbs, exit codes, resumability, and byte-identical reruns.

Uses a deliberately tiny experiment so the full phase chain runs in
seconds; the desk-scale defaults are exercised by the acceptance suite.
"""

import ast
import csv
import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from cactusnet.cactus import GrowthConfig
from cactusnet.cli import main
from cactusnet.config import DEFAULTS, config_from_dict, load_config
from cactusnet.data import write_idx_images, write_idx_labels
from cactusnet.errors import ConfigError
from cactusnet.fileio import fmt_float
from cactusnet.nn import Network, checkpoint_save
from cactusnet.predictor import PREDICTOR_MAGIC, load_predictor

TINY = {
    "manifest": "manifest.json",
    "dataset": {"type": "synthetic", "classes_per_family": 4, "per_class": 60,
                "image_side": 12, "seed": 5, "num_known": 2,
                "num_objective_unknown": 1, "num_nonobjective_unknown": 1},
    "architecture": {
        "input_shape": [12, 12, 1],
        "layers": [
            {"kind": "Conv2D", "filters": 4, "kernel": [3, 3]},
            {"kind": "ReLU"},
            {"kind": "MaxPool2D", "kernel": [2, 2], "stride": 2},
            {"kind": "Flatten"},
            {"kind": "Dense", "units": 16},
            {"kind": "ReLU"},
            {"kind": "Dense", "units": 8},
            {"kind": "ReLU"},
            {"kind": "Dense", "units": 2},
            {"kind": "Softmax"},
        ]},
    "taps": [2, 5, 7],
    "k": 2,
    "train_fraction": 2.0 / 3.0,
    "decision_depth": 1,
    "threshold_reference_tap": 5,
    "threshold_final_tap": 7,
    "train": {"base": {"learning_rate": 0.05, "epochs": 6, "batch_size": 16},
              "pair": {"learning_rate": 0.05, "epochs": 2, "batch_size": 16},
              "predictor": {"learning_rate": 0.02, "epochs": 8,
                            "batch_size": 16}},
    "heldout_classes": [2],
    "master_seed": 9,
    "out_dir": "out",
}


def write_tiny_config(base: Path, **tweaks) -> Path:
    doc = json.loads(json.dumps(TINY))
    doc.update(tweaks)
    path = base / "config.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


def run(cfg_path, *argv):
    return main(["--config", str(cfg_path), *argv])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One full tiny pipeline, shared by the read-only assertions."""
    base = tmp_path_factory.mktemp("tiny")
    cfg = write_tiny_config(base)
    assert run(cfg, "prepare") == 0
    assert run(cfg, "train-base") == 0
    assert run(cfg, "measure") == 0
    assert run(cfg, "train-predictors") == 0
    stream = base / "stream.json"
    stream.write_text(json.dumps({"type": "mock",
                                  "apps": [0.99, 0.97, 0.2, 0.2, 0.99]}))
    assert run(cfg, "cactus-run", str(stream)) == 0
    assert run(cfg, "report") == 0
    return base


class TestPipelineOutputs:
    def test_expected_files_exist(self, pipeline_dir):
        out = pipeline_dir / "out"
        for name in ("base.ckpt", "base_metrics.csv", "records.csv",
                     "applicability.csv", "subset_curves.csv",
                     "measure_meta.json", "predictor_summary.json",
                     "predictor_eval.csv", "growth_log.jsonl",
                     "verdict_histogram.csv"):
            assert (out / name).is_file(), name
        assert (out / "tree" / "tree.json").is_file()
        assert (out / "report" / "curves.csv").is_file()

    def test_record_count_is_classes_by_probes_by_layers(self, pipeline_dir):
        rows = (pipeline_dir / "out" / "records.csv").read_text().splitlines()
        assert len(rows) - 1 == 4 * 2 * 3  # measured * k * taps

    def test_subset_curves_shape(self, pipeline_dir):
        rows = (pipeline_dir / "out" / "subset_curves.csv").read_text().splitlines()
        assert rows[0] == "subset,layer,mean_app"
        assert len(rows) - 1 == 3 * 3  # subsets * taps

    def test_predictor_summary_shape(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "out" / "predictor_summary.json").read_text())
        assert [e["layer"] for e in doc["layers"]] == [2, 5, 7]
        for entry in doc["layers"]:
            assert set(entry) == {"layer", "train_mse", "heldout_mse"}

    def test_fidelity_table_has_one_row_per_heldout_class(self, pipeline_dir):
        rows = (pipeline_dir / "out" / "report" / "predictor_fidelity.csv"
                ).read_text().splitlines()
        assert rows[0] == "class,subset,actual_app,mean_predicted,abs_err"
        assert len(rows) - 1 == 1  # one held-out class in the tiny config

    def test_eval_csv_covers_every_layer(self, pipeline_dir):
        rows = (pipeline_dir / "out" / "predictor_eval.csv"
                ).read_text().splitlines()
        assert rows[0] == "class,subset,layer,actual_app,mean_predicted,abs_err"
        assert len(rows) - 1 == 1 * 3  # one held-out class, three taps

    def test_tree_baselines_are_the_subset_curves(self, pipeline_dir):
        out = pipeline_dir / "out"
        with open(out / "subset_curves.csv", encoding="utf-8", newline="") as fh:
            curves = {(r["subset"], int(r["layer"])): float(r["mean_app"])
                      for r in csv.DictReader(fh)}
        ref, final = TINY["threshold_reference_tap"], TINY["threshold_final_tap"]
        want = {"q": curves[("objective_known", ref)],
                "y1": curves[("objective_unknown", ref)],
                "y2": curves[("nonobjective_unknown", final)]}
        nodes = [json.loads((out / "tree" / "tree.json").read_text())["root"]]
        found = []
        while nodes:
            node = nodes.pop()
            nodes.extend(node["children"])
            if node["thresholds"] is not None:
                found.append({key: node["thresholds"][key] for key in want})
        assert found and all(got == want for got in found)

    def test_growth_log_is_json_lines(self, pipeline_dir):
        lines = (pipeline_dir / "out" / "growth_log.jsonl").read_text().splitlines()
        assert len(lines) == 1 + 5  # header + one decision per input
        for line in lines[1:]:
            assert "verdict" in json.loads(line)


class TestExitCodes:
    def test_missing_manifest_exits_2_no_partial_outputs(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert run(cfg, "train-base") == 2
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "train-base"]) == 2

    def test_invalid_json_config_exits_2(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "train-base"]) == 2

    def test_bad_decision_depth_exits_2(self, tmp_path):
        cfg = write_tiny_config(tmp_path, decision_depth=99)
        assert run(cfg, "prepare") == 2

    @pytest.mark.parametrize("field, value", [("frozen", "no"), ("stide", 2),
                                              ("filters", 4.5)])
    def test_malformed_layer_dict_exits_2(self, tmp_path, capsys, field, value):
        assert run(write_tiny_config(tmp_path), "prepare") == 0
        arch = json.loads(json.dumps(TINY["architecture"]))
        arch["layers"][0][field] = value
        cfg = write_tiny_config(tmp_path, architecture=arch)
        capsys.readouterr()
        assert run(cfg, "train-base") == 2
        assert "Conv2D" in capsys.readouterr().err
        assert not (tmp_path / "out" / "base.ckpt").exists()

    @pytest.mark.parametrize("field, value", [
        ("train.base.epochs", 1.5), ("train.base.batch_size", 16.0),
        ("train.pair.epochs", True), ("train.predictor.batch_size", "16"),
        ("dataset.per_class", "36"), ("dataset.image_side", 12.0),
        ("dataset.num_known", False)])
    def test_non_integer_count_exits_2(self, tmp_path, capsys, field, value):
        assert run(write_tiny_config(tmp_path), "prepare") == 0
        section, *keys, leaf = field.split(".")
        doc = json.loads(json.dumps(TINY[section]))
        node = doc
        for key in keys:
            node = node[key]
        node[leaf] = value
        cfg = write_tiny_config(tmp_path, **{section: doc})
        capsys.readouterr()
        assert run(cfg, "train-base") == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("k", 6.7), ("k", "2"), ("decision_depth", "1"), ("decision_depth", 1.0),
        ("threshold_reference_tap", 5.0), ("threshold_final_tap", True),
        ("master_seed", True), ("master_seed", 9.5), ("master_seed", "9")])
    def test_non_integer_top_level_field_exits_2(self, tmp_path, capsys, field,
                                                 value):
        cfg = write_tiny_config(tmp_path, **{field: value})
        capsys.readouterr()
        assert run(cfg, "prepare") == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("taps", [[2, 5, 7, 9], [2, 5, 7, 8], [-1, 5, 7],
                                      [2.0, 5, 7], ["2", 5, 7]])
    def test_tap_outside_the_trainable_range_exits_2(self, tmp_path, capsys,
                                                      taps):
        # TINY's final Dense layer is 8 and its Softmax 9
        cfg = write_tiny_config(tmp_path, taps=taps)
        capsys.readouterr()
        assert run(cfg, "prepare") == 2
        assert "tap" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_non_object_document_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        capsys.readouterr()
        assert run(path, "prepare") == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("section, key", [
        (None, "tapz"), ("train.pair", "seed"), ("growth", "seed"),
        ("architecture", "layer")])
    def test_unknown_key_exits_2(self, tmp_path, capsys, section, key):
        doc = json.loads(json.dumps(TINY))
        node = doc
        for name in section.split(".") if section else ():
            node = node.setdefault(name, {})
        node[key] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(path, "prepare") == 2
        assert f"unknown key(s) {key}" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("growth", {"max_branches_per_node": 2.9}),
        ("growth", {"max_branches_per_node": "7"}),
        ("growth", 4),
        ("threshold_overrides", {"q": 0.9, "y1": 0.8}),
        ("threshold_overrides", {"q": 0.9, "y1": 0.8, "y2": 0.7, "tau1": 0.9}),
        ("heldout_classes", [2.0]),
        ("train", {"pair": [0.05, 2, 16]}),
        ("out_dir", 5), ("manifest", 5),
        ("train_fraction", "0.5"), ("train_fraction", True)])
    def test_ill_formed_section_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_tiny_config(tmp_path, **{field: value})
        capsys.readouterr()
        assert run(cfg, "prepare") == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("group", [
        {"labels": "labels.idx"}, {"images": "images.idx", "labels": 3},
        {"images": "images.idx", "labels": "labels.idx", "id_offset": 1.5},
        {"images": "images.idx", "labels": "labels.idx", "offset": 1},
        "images.idx"])
    def test_malformed_idx_group_exits_2(self, tmp_path, capsys, group):
        assert run(write_tiny_config(tmp_path), "prepare") == 0
        dataset = dict(TINY["dataset"], type="idx", groups=[group])
        cfg = write_tiny_config(tmp_path, dataset=dataset)
        capsys.readouterr()
        assert run(cfg, "train-base") == 2
        assert "dataset.groups[0]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_idx_group_with_mismatched_counts_exits_2(self, tmp_path, capsys):
        assert run(write_tiny_config(tmp_path), "prepare") == 0
        write_idx_images(tmp_path / "images.idx", np.zeros((10, 12, 12), np.uint8))
        write_idx_labels(tmp_path / "labels.idx", [0] * 8)
        dataset = dict(TINY["dataset"], type="idx", groups=[
            {"images": "images.idx", "labels": "labels.idx"}])
        cfg = write_tiny_config(tmp_path, dataset=dataset)
        capsys.readouterr()
        assert run(cfg, "train-base") == 2
        err = capsys.readouterr().err
        assert "dataset.groups[0] holds 10 images but 8 labels" in err
        assert not (tmp_path / "out").exists()

    def test_measure_before_train_base_exits_2(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert run(cfg, "prepare") == 0
        assert run(cfg, "measure") == 2

    def test_corrupt_checkpoint_exits_2(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        assert run(cfg, "prepare") == 0
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "base.ckpt").write_bytes(b"garbage")
        assert run(cfg, "measure") == 2

    def test_leaky_heldout_exits_2(self, tmp_path):
        cfg = write_tiny_config(tmp_path, heldout_classes=[999])
        assert run(cfg, "prepare") == 0
        assert run(cfg, "train-base") == 0
        assert run(cfg, "measure") == 0
        assert run(cfg, "train-predictors") == 2

    @pytest.mark.parametrize("text", [
        "{not json", "[1]", '{"type": "mock"}', '{"type": "dataset"}',
        '{"type": "mock", "apps": ["high"]}',
        '{"type": "dataset", "path": "missing.bin"}',
        '{"type": "dataset", "path": "."}',
        '{"type": "manifest", "classes": [0], "per_class": 0}',
        '{"type": "manifest", "classes": [0], "per_class": -1}',
        '{"type": "manifest", "classes": [0], "per_class": 2.7}',
        '{"type": "mock", "apps": [NaN]}', '{"type": "mock", "apps": [0.5, Infinity]}',
        '{"type": "mock", "apps": [-Infinity]}', '{"type": "mock", "apps": [5.0]}',
        '{"type": "mock", "apps": [-0.1]}', '{"type": "mock", "apps": [true]}',
        '{"type": "mock", "apps": [0.5, false]}', '{"type": "mock", "apps": [2]}'])
    def test_malformed_stream_exits_2(self, pipeline_dir, tmp_path, capsys, text):
        stream = tmp_path / "malformed.json"
        stream.write_text(text)
        growth_log = (pipeline_dir / "out" / "growth_log.jsonl").read_bytes()
        capsys.readouterr()
        assert run(pipeline_dir / "config.json", "cactus-run", str(stream)) == 2
        assert "stream" in capsys.readouterr().err
        assert (pipeline_dir / "out" / "growth_log.jsonl").read_bytes() == growth_log

    def test_corrupt_stream_dataset_keeps_its_error(self, pipeline_dir, tmp_path,
                                                    capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        stream = tmp_path / "stream.json"
        stream.write_text(json.dumps({"type": "dataset", "path": str(bad)}))
        capsys.readouterr()
        assert run(pipeline_dir / "config.json", "cactus-run", str(stream)) == 2
        err = capsys.readouterr().err
        assert "bad magic" in err and "invalid stream document" not in err

    def test_empty_stream_is_ok(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        for verb in ("prepare", "train-base", "measure", "train-predictors"):
            assert run(cfg, verb) == 0
        stream = tmp_path / "empty.json"
        stream.write_text(json.dumps({"type": "mock", "apps": []}))
        assert run(cfg, "cactus-run", str(stream)) == 0
        lines = (tmp_path / "out" / "growth_log.jsonl").read_text().splitlines()
        assert len(lines) == 1  # header only, no decisions


def test_partial_growth_takes_the_other_defaults(pipeline_dir, tmp_path):
    base = tmp_path / "run"
    shutil.copytree(pipeline_dir, base)
    cfg = write_tiny_config(base, growth={"consolidation_window": 10})
    assert load_config(cfg).growth == GrowthConfig(max_branches_per_node=4,
                                                   consolidation_window=10)
    assert run(cfg, "cactus-run", str(base / "stream.json")) == 0
    header = (base / "out" / "growth_log.jsonl").read_text().splitlines()[0]
    assert json.loads(header)["config"]["consolidation_window"] == 10


def test_stale_flat_tap_predictor_exits_2(pipeline_dir, tmp_path, capsys):
    # predictor checkpoints written before taps kept their shape store a
    # flat tap as (1, 1, d), and repeat the plan in their extra fields
    base = tmp_path / "run"
    shutil.copytree(pipeline_dir, base)
    out = base / "out"
    ckpt = out / "predictor_tap05.ckpt"
    model = load_predictor(ckpt)
    (d,) = model.net.input_shape
    checkpoint_save(
        Network(model.net.specs, (1, 1, d), model.net.params), ckpt,
        magic=PREDICTOR_MAGIC,
        extra={"layer_index": 5, "tap_shape": [1, 1, d], "plan": "dense",
               "kernel": 0, "in_mean": model.in_mean,
               "in_scale": model.in_scale,
               "train_class_ids": list(model.train_class_ids)})
    (out / "growth_log.jsonl").unlink()
    shutil.rmtree(out / "tree")
    stream = base / "manifest_stream.json"
    stream.write_text(json.dumps({"type": "manifest", "classes": [0, 1, 2, 3],
                                  "per_class": 8}))
    capsys.readouterr()
    assert run(base / "config.json", "cactus-run", str(stream)) == 2
    assert f"do not match tap (1, 1, {d})" in capsys.readouterr().err
    assert not (out / "growth_log.jsonl").exists()
    assert not (out / "tree").exists()


def test_every_measured_class_held_out_exits_2(pipeline_dir, tmp_path, capsys):
    # the tiny manifest measures classes 0, 1, 2 and 4
    base = tmp_path / "run"
    shutil.copytree(pipeline_dir, base)
    for ckpt in (base / "out").glob("predictor_*"):
        ckpt.unlink()
    cfg = write_tiny_config(base, heldout_classes=[0, 1, 2, 4])
    capsys.readouterr()
    assert run(cfg, "train-predictors") == 2
    assert "heldout_classes" in capsys.readouterr().err
    assert not list((base / "out").glob("predictor_*"))


def snapshot(base: Path) -> dict:
    return {p.relative_to(base): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def test_incomplete_table_exits_2(pipeline_dir, tmp_path, capsys):
    # a cell whose job failed, or whose record is lost, is absent from the table
    base = tmp_path / "run"
    shutil.copytree(pipeline_dir, base)
    out = base / "out"
    for ckpt in out.glob("predictor_*"):
        ckpt.unlink()
    records = out / "records.csv"
    lines = records.read_text().splitlines(keepends=True)
    x, un_j, layer = lines[3].split(",")[:3]
    records.write_text("".join(lines[:3] + lines[4:]))
    before = snapshot(base)
    capsys.readouterr()
    assert run(base / "config.json", "train-predictors") == 2
    err = capsys.readouterr().err
    assert f"({x}, {layer})" in err and "measure" in err
    assert snapshot(base) == before
    assert not list(out.glob("predictor_*"))


@pytest.mark.parametrize("twin, code", [("different", 2), ("exact", 0)])
def test_journal_with_two_records_of_one_job(pipeline_dir, tmp_path, capsys,
                                             twin, code):
    base = tmp_path / "run"
    shutil.copytree(pipeline_dir, base)
    records = base / "out" / "records.csv"
    journal = records.read_bytes()
    lines = journal.decode().splitlines(keepends=True)
    x, un_j, layer, xi, seed = lines[1].rstrip("\r\n").split(",")
    if twin == "different":
        xi = "0.125" if float(xi) != 0.125 else "0.25"
    records.write_bytes(journal + f"{x},{un_j},{layer},{xi},{seed}\r\n".encode())
    before = snapshot(base)
    capsys.readouterr()
    assert run(base / "config.json", "measure") == code
    err = capsys.readouterr().err
    if code:
        assert f"(x={x}, un_j={un_j}, layer={layer})" in err
        assert f"line {len(lines) + 1}" in err
        assert snapshot(base) == before
    else:
        assert snapshot(base) == {**before, Path("out/records.csv"): journal}


@pytest.mark.parametrize("xi", ["5.0", "nan"])
def test_journal_xi_outside_the_unit_interval_exits_2(pipeline_dir, tmp_path,
                                                      capsys, xi):
    base = tmp_path / "run"
    shutil.copytree(pipeline_dir, base)
    records = base / "out" / "records.csv"
    lines = records.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[3] = xi
    lines[1] = ",".join(fields)
    records.write_text("".join(lines))
    before = snapshot(base)
    capsys.readouterr()
    assert run(base / "config.json", "measure") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "records.csv line 2" in err and f"xi {xi}" in err
    assert snapshot(base) == before


def test_cactus_run_without_base_checkpoint_exits_2(pipeline_dir, tmp_path,
                                                   capsys):
    base = tmp_path / "run"
    shutil.copytree(pipeline_dir, base)
    (base / "out" / "base.ckpt").unlink()
    before = snapshot(base)
    capsys.readouterr()
    assert run(base / "config.json", "cactus-run", str(base / "stream.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "base checkpoint missing" in err and "train-base" in err
    assert snapshot(base) == before


def test_cactus_run_on_an_incomplete_table_exits_2(pipeline_dir, tmp_path,
                                                   capsys):
    base = tmp_path / "run"
    shutil.copytree(pipeline_dir, base)
    manifest = json.loads((base / "manifest.json").read_text())
    known = min(c["class_id"] for c in manifest["classes"]
                if c["subset"] == "objective_known")
    records = base / "out" / "records.csv"
    lines = records.read_text().splitlines(keepends=True)
    victim = next(i for i, line in enumerate(lines[1:], start=1)
                  if line.split(",")[0] == str(known)
                  and line.split(",")[2] == str(TINY["threshold_reference_tap"]))
    records.write_text("".join(lines[:victim] + lines[victim + 1:]))
    before = snapshot(base)
    capsys.readouterr()
    assert run(base / "config.json", "cactus-run", str(base / "stream.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"({known}, {TINY['threshold_reference_tap']})" in err
    assert snapshot(base) == before
    # train-predictors refuses the same table, naming the same cells
    assert run(base / "config.json", "train-predictors") == 2
    assert capsys.readouterr().err == err


def _replace_line(index, text):
    def corrupt(path):
        lines = path.read_text().splitlines(keepends=True)
        lines[index] = text
        path.write_text("".join(lines))
    return corrupt


def _overwrite(text):
    return lambda path: path.write_text(text)


@pytest.mark.parametrize("name, corrupt, verb", [
    ("out/records.csv", _replace_line(5, "1,x,5,0.5,7\n"), "measure"),
    ("out/records.csv", _replace_line(5, "1,2,5,high,7\n"), "train-predictors"),
    ("out/records.csv", _replace_line(5, "1,2,5,0.5\n"), "cactus-run"),
    ("out/records.csv", _replace_line(0, "y,un_j,layer,xi,seed\n"), "measure"),
    ("out/records.csv", _replace_line(0, "y,un_j,layer,xi,seed\n"),
     "train-predictors"),
    ("out/records.csv", _replace_line(0, "y,un_j,layer,xi,seed\n"), "cactus-run"),
    ("out/records.csv", lambda path: path.write_bytes(path.read_bytes() + b"\xff\n"),
     "measure"),
    ("manifest.json", _overwrite("{not json"), "train-base"),
    ("manifest.json", _overwrite("{}"), "train-base"),
    ("manifest.json", _overwrite('{"classes": [3]}'), "measure"),
    ("out/growth_log.jsonl", _overwrite("{not json\n"), "report"),
    ("out/growth_log.jsonl", _overwrite(""), "report"),
    ("out/predictor_eval.csv", _replace_line(1, "2,objective_unknown,five,0.9,0.9,0\n"),
     "report"),
    ("out/predictor_eval.csv", _overwrite("class,subset\n2,objective_unknown\n"),
     "report")], ids=[
    "records-non-integer-measure", "records-non-float-train-predictors",
    "records-short-row-cactus-run", "records-no-x-measure",
    "records-no-x-train-predictors", "records-no-x-cactus-run",
    "records-not-utf8-measure",
    "manifest-not-json", "manifest-empty-object", "manifest-class-not-object",
    "growth-log-not-json", "growth-log-empty", "eval-non-integer-layer",
    "eval-no-layer-column"])
def test_corrupt_input_file_exits_2(pipeline_dir, tmp_path, capsys, name,
                                    corrupt, verb):
    base = tmp_path / "run"
    shutil.copytree(pipeline_dir, base)
    corrupt(base / name)
    before = snapshot(base)
    argv = [str(base / "stream.json")] if verb == "cactus-run" else []
    capsys.readouterr()
    assert run(base / "config.json", verb, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and Path(name).name in err
    assert snapshot(base) == before


def test_seed_spread_salt_zero_matches_train_predictors(pipeline_dir):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "predictor_seed_spread", root / "benchmarks" / "predictor_seed_spread.py")
    spread = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spread)
    cfg = load_config(pipeline_dir / "config.json")
    with open(cfg.out_path / "predictor_eval.csv", encoding="utf-8") as fh:
        shipped = max((row["abs_err"] for row in csv.DictReader(fh)), key=float)
    (worst, _), = spread.worst_cells(cfg, [0]).values()
    assert fmt_float(worst) == shipped


def child_env():
    """The environment of a child that imports the package this test
    imported, installed or not."""
    import os

    import cactusnet
    src = str(Path(cactusnet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "cactusnet", "--config",
         str(tmp_path / "missing.json"), "train-base"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2
    assert "not found" in proc.stderr


class TestConfig:
    def test_settings_come_from_the_file_and_the_flags_only(self, tmp_path,
                                                            monkeypatch):
        # the variables an older release read are ignored
        cfg_path = write_tiny_config(tmp_path)
        monkeypatch.setenv("CNL_MASTER_SEED", "123")
        monkeypatch.setenv("CNL_OUT_DIR", "elsewhere")
        cfg = load_config(cfg_path)
        assert (cfg.master_seed, cfg.out_dir) == (TINY["master_seed"], TINY["out_dir"])
        cfg = load_config(cfg_path, cli_overrides={"master_seed": 7})
        assert cfg.master_seed == 7

    def test_malformed_retired_variable_is_ignored(self, tmp_path,
                                                    monkeypatch):
        cfg_path = write_tiny_config(tmp_path)
        monkeypatch.setenv("CNL_MASTER_SEED", "not-a-number")
        monkeypatch.setenv("CNL_K", "-1")
        cfg = load_config(cfg_path)
        assert (cfg.master_seed, cfg.k) == (TINY["master_seed"], TINY["k"])

    def test_default_document_validates(self):
        from cactusnet.config import default_config_dict
        config_from_dict(default_config_dict()).validate()

    def test_partial_sections_take_their_defaults(self):
        cfg = config_from_dict({"train": {"pair": {"epochs": 2}},
                                "architecture": {"input_shape": [20, 20, 1]}})
        defaults = config_from_dict({})
        assert cfg.train.pair.epochs == 2
        assert cfg.train.pair.learning_rate == DEFAULTS["train"]["pair"]["learning_rate"]
        assert (cfg.train.base, cfg.train.predictor) == \
            (defaults.train.base, defaults.train.predictor)
        assert cfg.layers == defaults.layers

    def test_every_config_document_the_repo_writes_loads(self):
        """A key added to one of these without a schema entry fails here."""
        from cactusnet.config import default_config_dict
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", root / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        demo = ast.parse((root / "demos" / "06_full_pipeline.py").read_text())
        demo_config, = [ast.literal_eval(node.value) for node in demo.body
                        if isinstance(node, ast.Assign)
                        and [getattr(t, "id", None) for t in node.targets] == ["CONFIG"]]
        documents = [workloads.config_doc(3, size) for size in workloads.SIZES]
        documents += [demo_config, TINY, default_config_dict()]
        for doc in documents:
            config_from_dict(doc)

    def test_unknown_top_level_workers_key_is_ignored(self, tmp_path):
        # perfbench's workload configs still carry "workers": 2
        cfg = load_config(write_tiny_config(tmp_path, workers=2))
        assert not hasattr(cfg, "workers")
        assert run(tmp_path / "config.json", "prepare") == 0


def run_full(base: Path):
    cfg = write_tiny_config(base)
    for verb in ("prepare", "train-base", "measure", "train-predictors"):
        assert run(cfg, verb) == 0
    stream = base / "stream.json"
    stream.write_text(json.dumps({"type": "mock", "apps": [0.99, 0.2, 0.2]}))
    assert run(cfg, "cactus-run", str(stream)) == 0
    assert run(cfg, "report") == 0


COMPARED = ["out/base.ckpt", "out/base_metrics.csv", "out/records.csv",
            "out/applicability.csv", "out/subset_curves.csv",
            "out/measure_meta.json", "out/predictor_summary.json",
            "out/predictor_eval.csv", "out/predictor_tap02.ckpt",
            "out/growth_log.jsonl", "out/tree/tree.json",
            "out/verdict_histogram.csv", "out/report/curves.csv",
            "out/report/growth_summary.json", "manifest.json"]


class TestDeterminism:
    @pytest.mark.slow
    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        run_full(a)
        run_full(b)
        for name in COMPARED:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_measure_resume_matches_uninterrupted(self, tmp_path):
        base = tmp_path / "r"
        base.mkdir()
        cfg = write_tiny_config(base)
        assert run(cfg, "prepare") == 0
        assert run(cfg, "train-base") == 0
        assert run(cfg, "measure") == 0
        records = base / "out" / "records.csv"
        full = records.read_bytes()
        # simulate an interrupted sweep: keep only the first 7 records
        lines = full.decode().splitlines(keepends=True)
        records.write_text("".join(lines[:8]))
        assert run(cfg, "measure") == 0
        assert records.read_bytes() == full

    def test_torn_journal_row_is_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        run_full(a)
        run_full(b)
        records = b / "out" / "records.csv"
        lines = records.read_text().splitlines(keepends=True)
        # a kill mid-append: the 8th record lost its newline and the
        # last digits of its seed, and nothing after it was written
        records.write_text("".join(lines[:8]) + lines[8][:-5])
        cfg = write_tiny_config(b)
        assert run(cfg, "measure") == 0
        assert run(cfg, "train-predictors") == 0
        assert run(cfg, "cactus-run", str(b / "stream.json")) == 0
        assert run(cfg, "report") == 0
        for name in COMPARED:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_resume_under_another_seed_is_refused(self, tmp_path, capsys):
        base = tmp_path / "s"
        base.mkdir()
        cfg = write_tiny_config(base)
        for verb in ("prepare", "train-base", "measure"):
            assert run(cfg, verb) == 0
        out = base / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        first = (out / "records.csv").read_text().splitlines()[1]
        x, un_j, layer = first.split(",")[:3]
        capsys.readouterr()
        assert main(["--config", str(cfg), "--seed", "7", "measure"]) == 2
        assert f"(x={x}, un_j={un_j}, layer={layer})" in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert after == before

    @pytest.mark.parametrize("change", ["pair_budget", "taps", "base_ckpt",
                                        "no_fingerprint"])
    def test_resume_of_another_run_is_refused(self, tmp_path, capsys, change):
        base = tmp_path / "f"
        base.mkdir()
        cfg = write_tiny_config(base)
        for verb in ("prepare", "train-base", "measure"):
            assert run(cfg, verb) == 0
        out = base / "out"
        # an interrupted sweep, so a resume would have jobs left to run
        records = out / "records.csv"
        records.write_text("".join(records.read_text().splitlines(keepends=True)[:5]))
        if change == "pair_budget":
            train = json.loads(json.dumps(TINY["train"]))
            train["pair"]["epochs"] = 5
            cfg = write_tiny_config(base, train=train)
        elif change == "taps":
            cfg = write_tiny_config(base, taps=[2, 4, 5, 7])
        elif change == "base_ckpt":
            ckpt = out / "base.ckpt"
            ckpt.write_bytes(ckpt.read_bytes()[:-4] + b"\0\0\0\0")
        else:
            (out / "records_run.json").unlink()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        capsys.readouterr()
        assert run(cfg, "measure") == 2
        err = capsys.readouterr().err
        assert "records.csv" in err
        if change != "no_fingerprint":
            assert change in err
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert after == before

    def test_fresh_sweep_after_a_changed_budget_runs(self, tmp_path):
        base = tmp_path / "g"
        base.mkdir()
        cfg = write_tiny_config(base)
        for verb in ("prepare", "train-base", "measure"):
            assert run(cfg, verb) == 0
        (base / "out" / "records.csv").unlink()
        train = json.loads(json.dumps(TINY["train"]))
        train["pair"]["epochs"] = 5
        assert run(write_tiny_config(base, train=train), "measure") == 0
        meta = json.loads((base / "out" / "measure_meta.json").read_text())
        run_doc = json.loads((base / "out" / "records_run.json").read_text())
        assert meta["pair_budget"]["epochs"] == run_doc["pair_budget"]["epochs"] == 5

    def test_failed_jobs_are_named_on_stderr(self, tmp_path, capsys, monkeypatch):
        import cactusnet.applicability as appmod
        base = tmp_path / "j"
        base.mkdir()
        cfg = write_tiny_config(base)
        for verb in ("prepare", "train-base"):
            assert run(cfg, verb) == 0
        real = appmod.stacked_separability
        probe = min(json.loads((base / "manifest.json").read_text())["probe_set"])

        def flaky(net, layer, pairs, features, cfg, seeds):
            if layer == 5 and any(un_j == probe for _, un_j in pairs):
                raise ValueError("synthetic failure")
            return real(net, layer, pairs, features, cfg, seeds)

        monkeypatch.setattr(appmod, "stacked_separability", flaky)
        capsys.readouterr()
        assert run(cfg, "measure") == 0
        out, err = capsys.readouterr()
        meta = json.loads((base / "out" / "measure_meta.json").read_text())
        failed = [f"job failed (x={f['x']}, un_j={probe}, layer=5): "
                  "synthetic failure" for f in meta["failures"]]
        # progress lines (one per cell) come first
        assert failed and [line for line in err.splitlines()
                           if not line.startswith("measure: cell ")] == failed
        assert json.loads(out)["failures"] == len(failed)

    def test_measure_reports_each_cell_on_stderr(self, tmp_path, capsys):
        base = tmp_path / "p"
        base.mkdir()
        cfg = write_tiny_config(base)
        for verb in ("prepare", "train-base"):
            assert run(cfg, verb) == 0
        capsys.readouterr()
        assert run(cfg, "measure") == 0
        lines = capsys.readouterr().err.splitlines()
        manifest = json.loads((base / "manifest.json").read_text())
        measured = sorted({c["class_id"] for c in manifest["classes"]}
                          - set(manifest["probe_set"]))
        cells = [(x, tap) for tap in TINY["taps"] for x in measured]
        assert lines == [
            f"measure: cell {i}/{len(cells)} (x={x}, layer={tap}): "
            f"{TINY['k']} jobs, 0 failed"
            for i, (x, tap) in enumerate(cells, start=1)]
        for name in COMPARED:
            if (base / name).is_file():
                assert b"measure: cell" not in (base / name).read_bytes()
        # a fully resumed sweep has no cell left to report
        assert run(cfg, "measure") == 0
        assert capsys.readouterr().err == ""

    def test_rerun_after_completion_is_idempotent(self, tmp_path):
        base = tmp_path / "i"
        base.mkdir()
        cfg = write_tiny_config(base)
        for verb in ("prepare", "train-base", "measure"):
            assert run(cfg, verb) == 0
        table = (base / "out" / "applicability.csv").read_bytes()
        assert run(cfg, "measure") == 0
        assert (base / "out" / "applicability.csv").read_bytes() == table
