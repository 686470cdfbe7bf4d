import json
import logging
import os
import re
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import synthdata
from coseg.annindex import IndexConfig, RetrievalResult, build, query
from coseg.annindex import load_file as load_index_file
from coseg.cli import main
from coseg.collage import CollageSpec
from coseg.descriptors import load_descriptors_file
from coseg.embedder import PairSample, TrainConfig, contrastive_loss, init_params, loss_gradient
from coseg.errors import ConfigError, StageError
from coseg.geometry import (
    BoundingBox,
    Proposal,
    dedup_near,
    iou,
    load_proposals,
    nms,
    save_proposals,
    top_k,
)
import coseg.annindex
import coseg.metrics
import coseg.pipeline
from coseg.pipeline import (
    DEFAULTS,
    ITEMS_FIELDS,
    KEYS,
    MANIFEST_FIELDS,
    ItemRecord,
    Key,
    ManifestRecord,
    STAGE_NAMES,
    STAGES,
    Stage,
    ingest,
    load_config,
    load_items,
    load_manifest,
    merge_config,
    parse_config,
    run_pipeline,
    run_stage,
    save_items,
    save_manifest,
)
from coseg.metrics import iou_verdicts, jaccard, precision
from coseg.pnm import read_image, write_pbm, write_pgm, write_ppm
from coseg.retrieval import SimilarityGroup, load_groups, retrieve_similar, save_groups
from oracles import drawn, whole_frame_collage

FAST_OVERRIDES = {
    "seed": "7",
    "train.iterations": "300",
    "train.batch_size": "32",
    "train.layers": "64,32",
    "train.mining": "aggressive",
    "index.n_trees": "10",
    "index.search_k": "500",
    "retrieve.k": "5",
    "retrieve.search_k": "500",
    "collage.limit": "3",
}


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full pipeline execution on the synthetic image dataset."""
    root = tmp_path_factory.mktemp("dataset")
    manifest, proposals = synthdata.make_image_dataset(root, seed=0)
    out = root / "out"
    cfg = merge_config(
        {
            "data.manifest": str(manifest),
            "data.proposals": str(proposals),
            "data.out_dir": str(out),
            **FAST_OVERRIDES,
        }
    )
    timings = run_pipeline(cfg)
    return root, out, cfg, timings


def flags(cfg: dict[str, str]) -> list[str]:
    """cfg as command-line flags."""
    return [arg for key, value in cfg.items() for arg in (f"--{key}", value)]


def load_index(out):
    """out's index.csgi, loaded for out's emb_test.csgd."""
    return load_index_file(out / "index.csgi", load_descriptors_file(out / "emb_test.csgd")[1])


def fresh_copy(pipeline_run, tmp_path):
    """Copy the finished run so a test can mutate artifacts safely."""
    root, out, cfg, _ = pipeline_run
    new_root = tmp_path / "copy"
    shutil.copytree(root, new_root)
    new_cfg = dict(cfg)
    new_cfg["data.manifest"] = str(new_root / "manifest.csv")
    new_cfg["data.proposals"] = str(new_root / "proposals.csv")
    new_cfg["data.out_dir"] = str(new_root / "out")
    return new_root, new_cfg


class TestLoadConfig:
    def test_parses_values_comments_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# run settings\n\nseed = 42\ntrain.lr=0.5\n  retrieve.k = 3  \n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg == {"seed": "42", "train.lr": "0.5", "retrieve.k": "3"}

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\nbogus.key=2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="run.cfg:2"):
            load_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)

    def test_value_may_contain_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("data.out_dir=/tmp/x=y\n", encoding="utf-8")
        assert load_config(path)["data.out_dir"] == "/tmp/x=y"

    @pytest.mark.parametrize("char", ["\u2028", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"],
                             ids=lambda c: f"U+{ord(c):04X}")
    def test_line_ends_at_lf_only(self, tmp_path, char):
        # str.splitlines would end a line at each of these characters
        path = tmp_path / "c.cfg"
        value = f"/tmp/a{char}b"
        path.write_bytes(f"# settings\r\ndata.out_dir={value}\r\n\r\nseed = 3\r\n".encode())
        assert load_config(path) == {"data.out_dir": value, "seed": "3"}
        path.write_bytes(f"data.out_dir={value}\nbogus\n".encode())
        with pytest.raises(ConfigError, match=r"c\.cfg:2: expected key=value, got 'bogus'"):
            load_config(path)

    def test_lone_cr_in_a_value_rejected(self, tmp_path):
        # it used to stay in the value
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed=3\r\ndata.out_dir=/tmp/a\rb\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2: CR outside a CRLF line end"):
            load_config(path)


class TestMergeConfig:
    def test_later_layers_win(self):
        cfg = merge_config({"seed": "1"}, {"seed": "2"})
        assert cfg["seed"] == "2"

    def test_defaults_fill_untouched_keys(self):
        cfg = merge_config({})
        assert cfg == DEFAULTS

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            merge_config({"train.optimizer": "adam"})


class TestManifest:
    def records(self):
        return [
            ManifestRecord("imgA", "images/a.ppm", "mug", "train",
                           gt_box=BoundingBox(1, 2, 3, 4), gt_mask_path="masks/a.pbm"),
            ManifestRecord("imgB", "images/b.ppm", "pen", "test"),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.csv"
        save_manifest(self.records(), path)
        again = load_manifest(path)
        assert again == self.records()

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        recs = [self.records()[0], self.records()[0]]
        save_manifest(recs, path)
        with pytest.raises(ValueError, match="duplicate"):
            load_manifest(path)

    def test_bad_split_names_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        save_manifest(self.records(), path)
        text = path.read_text(encoding="utf-8").replace("test", "holdout")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="manifest.csv:3"):
            load_manifest(path)

    def test_long_row_names_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        save_manifest(self.records(), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("imgC,images/c.ppm,mug,test,,,,,,EXTRA\n")
        with pytest.raises(ValueError, match="manifest.csv:4: 1 field"):
            load_manifest(path)

    @pytest.mark.parametrize("row, short", [("imgC,c.ppm,mug,test", 5), ("imgC,c.ppm,mug,test,1,2,3,4", 1)],
                             ids=["4_of_9", "8_of_9"])
    def test_short_row_names_line(self, tmp_path, row, short):
        # such a row used to load with its missing fields empty, so with no ground truth
        path = tmp_path / "manifest.csv"
        save_manifest(self.records(), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        with pytest.raises(ValueError, match=rf"manifest\.csv:4: {short} field\(s\) short of the header"):
            load_manifest(path)

    def test_partial_gt_box_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "item_id,image_path,class,split,gt_x,gt_y,gt_w,gt_h,gt_mask_path\n"
            "imgA,a.ppm,mug,train,1,2,,,\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="gt box"):
            load_manifest(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,path\nimgA,a.ppm\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_manifest(path)

    def test_bad_record_validation(self):
        with pytest.raises(ValueError):
            ManifestRecord("x", "a.ppm", "mug", "validation")
        with pytest.raises(ValueError):
            ManifestRecord("", "a.ppm", "mug", "train")

    def test_cr_in_a_field_rejected_on_save(self, tmp_path):
        # the file used to be written, and load_manifest then failed on a split of None
        with pytest.raises(ValueError, match="manifest.csv: a field may not hold a CR"):
            save_manifest([ManifestRecord("img0", "/x/a.ppm", "cat\rdog", "train")],
                          tmp_path / "manifest.csv")

    def test_oversized_field_names_line(self, tmp_path):
        # the csv module's own error used to escape, naming no path
        path = tmp_path / "manifest.csv"
        row = f"imgA,a.ppm,{'m' * 200_000},train,,,,,"
        path.write_text(",".join(MANIFEST_FIELDS) + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="manifest.csv:2: field larger than field limit"):
            load_manifest(path)


TABLE_ROWS = {  # name -> (reader, header, a valid row with the class third)
    "manifest.csv": (load_manifest, MANIFEST_FIELDS, "imgA,a.ppm,mug,train,1,2,3,4,".split(",")),
    "items.csv": (load_items, ITEMS_FIELDS, "i0,imgA,mug,test,0,0,2,2,0.5,gen,4,4".split(",")),
}


@pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
@pytest.mark.parametrize("name", list(TABLE_ROWS))
def test_table_cr_outside_crlf_names_line(tmp_path, name, quote):
    reader, fields, row = TABLE_ROWS[name]
    path = tmp_path / name
    lines = [",".join(fields), ",".join(f"{quote}{f}{quote}" for f in row)]
    path.write_text("".join(line + "\r\n" for line in lines), encoding="utf-8", newline="")
    (record,) = reader(path)  # CRLF line ends are fine
    cr_row = ",".join(f"{quote}{f}{quote}" for f in row[:2] + [row[2] + "\rx"] + row[3:])
    path.write_text("".join(line + "\r\n" for line in lines + [cr_row]), encoding="utf-8", newline="")
    with pytest.raises(ValueError, match=f"{name}:3: CR outside a CRLF line end"):
        reader(path)


@pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
def test_ingest_rejects_cr_in_a_manifest_class(tmp_path, quote):
    # quoted, the class used to pass ingest into items.csv, which train then
    # could not read; unquoted, ingest failed on a split of None
    manifest, proposals = synthdata.make_image_dataset(tmp_path, seed=0)
    header, *rows = manifest.read_text(encoding="utf-8").splitlines()
    rows = [row.split(",") for row in rows]
    manifest.write_text(header + "\n" + "".join(
        ",".join(f"{quote}{f}{quote}" for f in row[:2] + [row[2] + "\rx"] + row[3:]) + "\n" for row in rows
    ), encoding="utf-8", newline="")
    cfg = merge_config({"data.manifest": str(manifest), "data.proposals": str(proposals),
                        "data.out_dir": str(tmp_path / "out"), **FAST_OVERRIDES})
    with pytest.raises(StageError, match=r"manifest\.csv:2: CR outside a CRLF line end"):
        run_stage("ingest", cfg)


@pytest.mark.parametrize("reader, text, want", [
    (load_manifest, ",".join(MANIFEST_FIELDS) + "\nimgA,a.ppm,mug,train,1,2,3,4,\n",
     [ManifestRecord("imgA", "a.ppm", "mug", "train", gt_box=BoundingBox(1, 2, 3, 4))]),
    (load_config, "seed=3\n", {"seed": "3"}),
    (load_proposals, "imgA,1,2,3,4,0.5,gen\n", [Proposal("imgA", BoundingBox(1, 2, 3, 4), 0.5, "gen")]),
    (load_groups, '{"anchor": "a", "members": [{"id": "b", "distance": 1.0}]}\n',
     [SimilarityGroup("a", RetrievalResult(neighbors=(("b", 1.0),)))]),
], ids=["manifest", "config", "proposals", "groups"])
def test_input_byte_order_mark_skipped(tmp_path, reader, text, want):
    path = tmp_path / "input"
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert reader(path) == want


@pytest.mark.parametrize("reader, first_lines", [
    (load_manifest, [",".join(MANIFEST_FIELDS), "imgA,a.ppm,mug,train,1,2,3,4,"]),
    (load_items, [",".join(ITEMS_FIELDS), "i0,imgA,mug,test,0,0,2,2,0.5,gen,4,4"]),
    (load_proposals, ["imgA,1,2,3,4,0.5,gen"] * 2),
    (load_config, ["# settings", "seed=3"]),
    (load_groups, ['{"anchor": "a", "members": []}'] * 2),
], ids=["manifest", "items", "proposals", "config", "groups"])
def test_bytes_not_utf8_name_their_line(tmp_path, reader, first_lines):
    # they used to escape as a UnicodeDecodeError naming no path, or name an earlier CSV line
    path = tmp_path / "input"
    path.write_bytes("".join(line + "\n" for line in first_lines).encode() + b"ab\xffc\n")
    with pytest.raises(ValueError, match=r"input:3: bytes not UTF-8") as info:
        reader(path)
    assert not isinstance(info.value, UnicodeDecodeError)


def split_dataset(records, train_fraction, seed):
    """coseg.pipeline.split_dataset's records cut into (train, test) lists."""
    out = coseg.pipeline.split_dataset(records, train_fraction, seed)
    return [r for r in out if r.split == "train"], [r for r in out if r.split == "test"]


class TestSplitDataset:
    def make(self, counts):
        recs = []
        for cls, n in counts.items():
            for i in range(n):
                recs.append(ManifestRecord(f"{cls}_{i}", f"{cls}_{i}.ppm", cls, "train"))
        return recs

    def test_eight_two_split(self):
        train, test = split_dataset(self.make({"a": 10}), 0.8, seed=0)
        assert len(train) == 8 and len(test) == 2

    def test_seven_three_split(self):
        train, test = split_dataset(self.make({"a": 10}), 0.7, seed=0)
        assert len(train) == 7 and len(test) == 3

    def test_extreme_fractions_clamped(self):
        train, test = split_dataset(self.make({"a": 10}), 0.99, seed=0)
        assert len(train) == 9 and len(test) == 1
        train, test = split_dataset(self.make({"a": 10}), 0.01, seed=0)
        assert len(train) == 1 and len(test) == 9

    def test_stratified_per_class(self):
        train, test = split_dataset(self.make({"a": 10, "b": 5}), 0.8, seed=3)
        a_train = [r for r in train if r.class_name == "a"]
        b_train = [r for r in train if r.class_name == "b"]
        assert len(a_train) == 8 and len(b_train) == 4
        assert len(test) == 3

    def test_split_field_rewritten(self):
        recs = self.make({"a": 4})
        train, test = split_dataset(recs, 0.5, seed=0)
        assert all(r.split == "train" for r in train)
        assert all(r.split == "test" for r in test)

    def test_deterministic_and_seed_sensitive(self):
        recs = self.make({"a": 20, "b": 20})
        t1, _ = split_dataset(recs, 0.5, seed=5)
        t2, _ = split_dataset(recs, 0.5, seed=5)
        t3, _ = split_dataset(recs, 0.5, seed=6)
        assert [r.item_id for r in t1] == [r.item_id for r in t2]
        assert [r.item_id for r in t1] != [r.item_id for r in t3]

    def test_singleton_class_goes_to_train(self, caplog):
        recs = self.make({"a": 5, "lonely": 1})
        with caplog.at_level("WARNING"):
            train, test = split_dataset(recs, 0.8, seed=0)
        assert any(r.class_name == "lonely" for r in train)
        assert not any(r.class_name == "lonely" for r in test)
        assert "lonely" in caplog.text

    def test_records_keep_input_order(self):
        recs = self.make({"a": 6, "b": 4})
        out = coseg.pipeline.split_dataset(recs, 0.5, seed=1)
        assert [r.item_id for r in out] == [r.item_id for r in recs]
        assert {r.split for r in out} == {"train", "test"}

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            split_dataset(self.make({"a": 4}), 1.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset(self.make({"a": 4}), 0.0, seed=0)


class TestItemsTable:
    def test_round_trip(self, tmp_path):
        items = [
            ItemRecord(
                item_id="imgA#0",
                proposal=Proposal("imgA", BoundingBox(1, 2, 3, 4), 0.25, "gen"),
                class_name="mug",
                split="train",
                img_w=64,
                img_h=48,
            )
        ]
        path = tmp_path / "items.csv"
        save_items(items, path)
        assert load_items(path) == items

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("item_id,x\nimgA#0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_items(path)

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "items.csv"
        save_items([ItemRecord("a#0", Proposal("a", BoundingBox(0, 0, 1, 1), 0.5, ""), "c", "test", 8, 8)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("b#0,b,c,test,1,2\n")
        with pytest.raises(ValueError, match="items.csv:3"):
            load_items(path)

    def test_long_row_names_line(self, tmp_path):
        path = tmp_path / "items.csv"
        save_items([ItemRecord("a#0", Proposal("a", BoundingBox(0, 0, 1, 1), 0.5, ""), "c", "test", 8, 8)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("b#0,b,c,test,1,2,3,4,0.5,src,8,8,EXTRA,MORE\n")
        with pytest.raises(ValueError, match="items.csv:3: 2 field"):
            load_items(path)

    def test_score_survives_exactly(self, tmp_path):
        score = 0.12345678901234567
        items = [
            ItemRecord("a#0", Proposal("a", BoundingBox(0, 0, 1, 1), score, ""), "c", "test", 8, 8)
        ]
        path = tmp_path / "items.csv"
        save_items(items, path)
        assert load_items(path)[0].proposal.score == score


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest_ds")
    manifest, proposals = synthdata.make_image_dataset(root, n_classes=2, per_class=3,
                                                       train_per_class=2, seed=1)
    records = [replace(r, image_path=str(root / r.image_path)) for r in load_manifest(manifest)]
    return root, records, load_proposals(proposals)


class TestIngest:
    def test_survivor_chain_matches_composition(self, dataset):
        root, manifest, proposals = dataset
        items, vectors = ingest(manifest, proposals, 0.95, 0.7, 10)
        by_image = {}
        for p in proposals:
            by_image.setdefault(p.image_id, []).append(p)
        for record in manifest:
            want = top_k(nms(dedup_near(by_image[record.item_id], 0.95), 0.7), 10)
            got = [it.proposal for it in items if it.proposal.image_id == record.item_id]
            assert got == want

    def test_item_ids_number_survivors(self, dataset):
        root, manifest, proposals = dataset
        items, vectors = ingest(manifest, proposals, 0.95, 0.7, 10)
        per_image: dict[str, list[str]] = {}
        for it in items:
            per_image.setdefault(it.proposal.image_id, []).append(it.item_id)
        for image_id, ids in per_image.items():
            assert ids == [f"{image_id}#{j}" for j in range(len(ids))]

    def test_descriptor_matrix_aligned(self, dataset):
        root, manifest, proposals = dataset
        items, vectors = ingest(manifest, proposals, 0.95, 0.7, 10)
        assert vectors.shape == (len(items), 1024)
        assert vectors.dtype == np.float32

    def test_top_k_caps_survivors(self, dataset):
        root, manifest, proposals = dataset
        items, vectors = ingest(manifest, proposals, 0.95, 0.7, 2)
        per_image: dict[str, int] = {}
        for it in items:
            per_image[it.proposal.image_id] = per_image.get(it.proposal.image_id, 0) + 1
        assert all(n <= 2 for n in per_image.values())

    def test_unknown_image_rejected(self, dataset):
        root, manifest, proposals = dataset
        bad = proposals + [Proposal("ghost", BoundingBox(0, 0, 4, 4), 0.5, "x")]
        with pytest.raises(ValueError, match="ghost"):
            ingest(manifest, bad, 0.95, 0.7, 10)

    def test_missing_image_file_rejected(self, dataset, tmp_path):
        root, manifest, proposals = dataset
        moved = [replace(r, image_path=str(tmp_path / Path(r.image_path).name)) for r in manifest]
        # read_image's own error names the first missing file
        with pytest.raises(FileNotFoundError, match=re.escape(moved[0].image_path)):
            ingest(moved, proposals, 0.95, 0.7, 10)

    def test_empty_proposals_warn_and_empty_result(self, dataset, caplog):
        root, manifest, _ = dataset
        with caplog.at_level("WARNING"):
            items, vectors = ingest(manifest, [], 0.95, 0.7, 10)
        assert items == []
        assert vectors.shape == (0, 1024)
        assert "no proposals" in caplog.text


class TestFullPipeline:
    def test_all_artifacts_written(self, pipeline_run):
        _, out, _, timings = pipeline_run
        for name in (
            "manifest_used.csv", "items.csv", "desc_train.csgd", "desc_test.csgd",
            "model.csgm", "loss_trace.csv", "emb_test.csgd", "index.csgi",
            "groups.jsonl", "report.json",
        ):
            assert (out / name).exists(), name
        assert set(timings) == set(STAGE_NAMES)
        assert all(t >= 0 for t in timings.values())

    def test_descriptors_split_by_manifest(self, pipeline_run):
        _, out, _, _ = pipeline_run
        items = {it.item_id: it for it in load_items(out / "items.csv")}
        for split in ("train", "test"):
            ids, vectors = load_descriptors_file(out / f"desc_{split}.csgd")
            assert len(ids) == vectors.shape[0] > 0
            assert all(items[i].split == split for i in ids)

    def test_embeddings_have_model_output_dim(self, pipeline_run):
        _, out, _, _ = pipeline_run
        ids, emb = load_descriptors_file(out / "emb_test.csgd")
        assert emb.shape[1] == 32  # last entry of train.layers
        test_ids, _ = load_descriptors_file(out / "desc_test.csgd")
        assert ids == test_ids

    def test_index_covers_test_items(self, pipeline_run):
        _, out, _, _ = pipeline_run
        index = load_index(out)
        ids, _ = load_descriptors_file(out / "emb_test.csgd")
        assert len(index) == len(ids)
        assert index.config.seed == 7
        assert index.config.n_trees == 10

    def test_groups_reference_test_items_only(self, pipeline_run):
        _, out, _, _ = pipeline_run
        groups = load_groups(out / "groups.jsonl")
        ids, _ = load_descriptors_file(out / "emb_test.csgd")
        assert [g.anchor for g in groups] == ids
        known = set(ids)
        for g in groups:
            assert len(g.members.neighbors) <= 5
            for member, _ in g.members.neighbors:
                assert member in known

    def test_report_structure(self, pipeline_run):
        _, out, _, _ = pipeline_run
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert set(report) == {
            "per_class", "avg_precision", "avg_jaccard", "skipped", "empty_segmentations",
        }
        assert report["per_class"]
        for scores in report["per_class"].values():
            assert 0.0 <= scores["precision"] <= 1.0
            assert 0.0 <= scores["jaccard"] <= 1.0

    def test_collages_render_valid_ppm(self, pipeline_run):
        _, out, _, _ = pipeline_run
        files = sorted((out / "collages").glob("*.ppm"))
        assert 0 < len(files) <= 3  # collage.limit
        for f in files:
            assert read_image(f).shape == (512, 512, 3)

    def test_loss_trace_rows(self, pipeline_run):
        _, out, _, _ = pipeline_run
        lines = (out / "loss_trace.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 301  # header + one row per iteration
        for i, line in enumerate(lines[1:]):
            index, loss = line.split(",")
            assert index == str(i) and repr(float(loss)) == loss

    def test_stage_rerun_reproduces_artifacts(self, pipeline_run, tmp_path):
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        out = tmp_path / "copy" / "out"
        before = {
            name: (out / name).read_bytes()
            for name in ("model.csgm", "index.csgi", "groups.jsonl")
        }
        for stage in ("train", "index", "retrieve"):
            run_stage(stage, cfg)
        for name, data in before.items():
            assert (out / name).read_bytes() == data, f"{name} changed on re-run"


def tree_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("classical_hinge", ["false", "true"])
def test_resplit_random_mining_cosine_walking_run(tmp_path, monkeypatch, classical_hinge):
    """Settings no benchmark workload runs: a resplit manifest, random mining,
    either hinge, the cosine metric, and a forest small enough that every
    query walks it."""
    manifest, proposals = synthdata.make_image_dataset(
        tmp_path, n_classes=3, per_class=6, train_per_class=4, seed=4
    )
    walks = []
    walk = coseg.annindex._walk_candidates

    def counting(index, qv, budget):
        walks.append(budget)
        return walk(index, qv, budget)

    monkeypatch.setattr(coseg.annindex, "_walk_candidates", counting)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        run_pipeline(merge_config({
            "data.manifest": str(manifest),
            "data.proposals": str(proposals),
            "data.out_dir": str(out),
            "seed": "5",
            "split.resplit": "true",
            "split.train_fraction": "0.5",
            "train.mining": "random",
            "train.classical_hinge": classical_hinge,
            "train.iterations": "20",
            "train.batch_size": "16",
            "train.layers": "16,8",
            "index.metric": "cosine",
            "index.n_trees": "3",
            "index.leaf_capacity": "4",
            "retrieve.k": "2",
            "retrieve.search_k": "1",
            "collage.limit": "2",
        }))
    assert tree_bytes(outs[0]) == tree_bytes(outs[1])

    out = outs[0]
    original = load_manifest(manifest)
    used = load_manifest(out / "manifest_used.csv")
    assert [r.item_id for r in used] == [r.item_id for r in original]
    assert [r.split for r in used] == [r.split for r in coseg.pipeline.split_dataset(original, 0.5, 5)]
    assert [r.split for r in used] != [r.split for r in original]
    split_of = {r.item_id: r.split for r in used}
    items = {it.item_id: it for it in load_items(out / "items.csv")}
    ids, _ = load_descriptors_file(out / "desc_test.csgd")
    assert all(split_of[items[i].proposal.image_id] == "test" for i in ids)
    # a query asks for k + 1 = 3 neighbors: its budget max(1, 3 * 3) is below the item count
    assert len(ids) > 9 and len(walks) == 2 * len(ids)
    assert [g.anchor for g in load_groups(out / "groups.jsonl")] == ids


class TestRetrieveStage:
    def test_index_for_other_embeddings_refused(self, pipeline_run, tmp_path):
        # train and embed under another seed, skipping index: index.csgi is
        # still the old embeddings' index, which the new ones must not load
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        cfg["seed"] = "8"
        out = Path(cfg["data.out_dir"])
        for stage in ("train", "embed"):
            run_stage(stage, cfg)
        groups = (out / "groups.jsonl").read_bytes()
        with pytest.raises(StageError, match=r"index\.csgi: index was built for other items") as exc_info:
            run_stage("retrieve", cfg)
        assert exc_info.value.stage == "retrieve"
        assert (out / "groups.jsonl").read_bytes() == groups
        run_stage("index", cfg)
        run_stage("retrieve", cfg)
        assert (out / "groups.jsonl").read_bytes() != groups

    @pytest.mark.parametrize("iou_filter", ["0", "0.3", "0.5", "0.8"])
    def test_ground_truth_iou_once_per_test_item(self, pipeline_run, tmp_path, monkeypatch, iou_filter):
        # a member's verdict is decided once per item, not once per group it is in
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        cfg["retrieve.iou_filter"] = iou_filter
        out = Path(cfg["data.out_dir"])
        run_stage("retrieve", {**cfg, "retrieve.iou_filter": "0"})
        unfiltered = load_groups(out / "groups.jsonl")
        calls = []
        counts = coseg.metrics._counts

        def counting(box, gt):
            calls.append(box)
            return counts(box, gt)

        monkeypatch.setattr(coseg.metrics, "_counts", counting)
        run_stage("retrieve", cfg)
        ids, _ = load_descriptors_file(out / "emb_test.csgd")
        assert len(calls) == len(ids)

        # the members kept are those that pass their own IoU test
        items = {it.item_id: it.proposal for it in load_items(out / "items.csv")}
        gt = {r.item_id: r.gt_box for r in load_manifest(out / "manifest_used.csv")}
        threshold = float(cfg["retrieve.iou_filter"])
        want = [
            [(m, d) for m, d in g.members.neighbors
             if iou(items[m].box, gt[items[m].image_id]) >= threshold]
            for g in unfiltered
        ]
        assert [list(g.members.neighbors) for g in load_groups(out / "groups.jsonl")] == want
        if float(iou_filter) > 0:  # at 0 every member passes
            assert sum(map(len, want)) < sum(len(g.members.neighbors) for g in unfiltered)
        if iou_filter == pipeline_run[2]["retrieve.iou_filter"]:
            assert (out / "groups.jsonl").read_bytes() == (pipeline_run[1] / "groups.jsonl").read_bytes()


class TestManifestPaths:
    """Ingest resolves manifest paths once; later stages read only data.out_dir."""

    def test_relative_mask_path_with_out_dir_away_from_manifest(self, pipeline_run, tmp_path):
        root, out, cfg, _ = pipeline_run
        data = tmp_path / "data"
        shutil.copytree(root, data, ignore=shutil.ignore_patterns("out"))
        (data / "masks").mkdir()
        records = []
        for r in load_manifest(data / "manifest.csv"):
            mask = np.zeros(read_image(data / r.image_path).shape[:2], dtype=bool)
            b = r.gt_box
            mask[b.y : b.y + b.h, b.x : b.x + b.w] = True
            write_pbm(data / "masks" / f"{r.item_id}.pbm", mask)
            records.append(replace(r, gt_mask_path=f"masks/{r.item_id}.pbm"))
        save_manifest(records, data / "manifest.csv")
        new_out = tmp_path / "elsewhere" / "deep" / "out"
        shutil.copytree(out, new_out)
        new_cfg = {
            **cfg,
            "data.manifest": str(data / "manifest.csv"),
            "data.proposals": str(data / "proposals.csv"),
            "data.out_dir": str(new_out),
        }
        run_stage("ingest", new_cfg)
        run_stage("evaluate", new_cfg)
        # masks equal to the ground-truth boxes score exactly as the boxes do
        assert (new_out / "report.json").read_bytes() == (out / "report.json").read_bytes()
        used = load_manifest(new_out / "manifest_used.csv")
        assert all(Path(r.image_path).is_absolute() for r in used)
        assert all(Path(r.gt_mask_path).is_absolute() and Path(r.gt_mask_path).exists() for r in used)
        # and evaluate reads them: a missing mask fails the stage
        (data / "masks" / f"{records[-1].item_id}.pbm").unlink()
        with pytest.raises(StageError):
            run_stage("evaluate", new_cfg)

    def test_collage_runs_without_manifest_setting(self, pipeline_run, tmp_path):
        _, out, cfg, _ = pipeline_run
        new_out = tmp_path / "out"
        shutil.copytree(out, new_out)
        shutil.rmtree(new_out / "collages")
        run_stage("collage", merge_config({
            "data.out_dir": str(new_out), "collage.limit": cfg["collage.limit"],
        }))
        made = sorted(p.name for p in (new_out / "collages").glob("*.ppm"))
        assert made == sorted(p.name for p in (out / "collages").glob("*.ppm"))
        for name in made:
            assert (new_out / "collages" / name).read_bytes() == (out / "collages" / name).read_bytes()


class TestCollageStage:
    def test_anchors_sharing_a_collage_file_fail(self, pipeline_run, tmp_path):
        # "cat 1#k" and "cat_1#k" both become cat_1_k.ppm; the second group
        # must not overwrite the first one's canvas
        new_root, cfg = fresh_copy(pipeline_run, tmp_path)
        records = load_manifest(new_root / "manifest.csv")
        first, second = [r.item_id for r in records if r.split == "test"][:2]
        rename = {first: "cat 1", second: "cat_1"}
        save_manifest(
            [replace(r, item_id=rename.get(r.item_id, r.item_id)) for r in records],
            new_root / "manifest.csv",
        )
        proposals = load_proposals(new_root / "proposals.csv")
        save_proposals(
            new_root / "proposals.csv",
            [replace(p, image_id=rename.get(p.image_id, p.image_id)) for p in proposals],
        )
        cfg.update({"train.iterations": "5", "collage.limit": "1000"})
        for stage in STAGE_NAMES[:-1]:
            run_stage(stage, cfg)
        with pytest.raises(StageError) as exc_info:
            run_stage("collage", cfg)
        assert exc_info.value.stage == "collage"
        message = str(exc_info.value)
        assert "'cat 1#" in message and "'cat_1#" in message and "collage file cat_1_" in message


    def test_grayscale_frames_render_as_gray_colour_frames(self, pipeline_run, tmp_path):
        # collage stacks a P5 frame into three equal channels, so its canvases
        # equal those drawn from P6 copies holding the gray level in each channel
        _, out, cfg, _ = pipeline_run
        writers = {
            "pgm": write_pgm,
            "ppm": lambda path, gray: write_ppm(path, np.stack([gray] * 3, axis=2)),
        }
        canvases = []
        for suffix, write in writers.items():
            run_out = tmp_path / suffix / "out"
            shutil.copytree(out, run_out)
            records = []
            for r in load_manifest(out / "manifest_used.csv"):
                frame = tmp_path / suffix / f"{r.item_id}.{suffix}"
                write(frame, read_image(r.image_path)[:, :, 0])
                records.append(replace(r, image_path=str(frame)))
            save_manifest(records, run_out / "manifest_used.csv")
            run_stage("collage", merge_config({
                "data.out_dir": str(run_out), "collage.limit": cfg["collage.limit"],
            }))
            canvases.append({p.name: p.read_bytes() for p in (run_out / "collages").glob("*.ppm")})
        assert canvases[0] and canvases[0] == canvases[1]

    def test_member_outside_its_frame_is_left_out(self, pipeline_run, tmp_path):
        # a frame cut down to its left edge after retrieve: a member whose box
        # misses the smaller frame is left out, as if it were not in its group
        _, out, cfg, _ = pipeline_run
        items = {it.item_id: it.proposal for it in load_items(out / "items.csv")}
        groups = load_groups(out / "groups.jsonl")
        slots = len(CollageSpec.slots)
        cut = next(items[m] for g in groups[:int(cfg["collage.limit"])]
                   for m, _ in g.members.neighbors[:slots] if items[m].box.x > 0)
        records = load_manifest(out / "manifest_used.csv")
        path = next(r.image_path for r in records if r.item_id == cut.image_id)
        frame = read_image(path)[:, :cut.box.x]
        write_ppm(tmp_path / "edge.ppm", frame)
        records = [replace(r, image_path=str(tmp_path / "edge.ppm")) if r.item_id == cut.image_id else r
                   for r in records]

        def inside(member):
            prop = items[member]
            return prop.image_id != cut.image_id or prop.box.clip(frame.shape[1], frame.shape[0]) is not None

        canvases = []
        for run, keep in (("all", lambda m: True), ("inside", inside)):
            run_out = tmp_path / run
            shutil.copytree(out, run_out)
            save_manifest(records, run_out / "manifest_used.csv")
            save_groups([
                replace(g, members=replace(g.members, neighbors=tuple(
                    (m, d) for m, d in g.members.neighbors[:slots] if keep(m))))
                for g in groups
            ], run_out / "groups.jsonl")
            run_stage("collage", merge_config({
                "data.out_dir": str(run_out), "collage.limit": cfg["collage.limit"],
            }))
            canvases.append({p.name: p.read_bytes() for p in (run_out / "collages").glob("*.ppm")})
        assert canvases[0] and canvases[0] == canvases[1]

    def test_rerun_with_lower_limit_leaves_only_current_canvases(self, pipeline_run, tmp_path):
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        cfg["retrieve.iou_filter"] = "0"  # every group keeps members, so each renders
        collages = Path(cfg["data.out_dir"]) / "collages"
        run_stage("retrieve", cfg)
        run_stage("collage", {**cfg, "collage.limit": "6"})
        assert len(list(collages.glob("*.ppm"))) == 6
        run_stage("collage", {**cfg, "collage.limit": "2"})
        assert len(list(collages.glob("*.ppm"))) == 2


class TestCollageBands:
    """The collage stage reads each frame once per canvas, as one band of
    rows spanning that canvas's member boxes in it, and draws the canvases
    that cutting whole frames draws (oracles.whole_frame_collage)."""

    FRAMES = {"colour": (30, 40, 3), "gray": (24, 32), "small": (16, 20, 3)}  # name -> frame shape
    GROUPS = {
        "first": [
            ("colour", BoundingBox(5, -6, 10, 12), 0.2),  # overhangs the top edge
            ("gray", BoundingBox(3, 18, 8, 10), 0.5),  # overhangs the bottom edge
            ("colour", BoundingBox(20, 9, 12, 7), 0.5),  # ties the gray member, which comes first
            ("small", BoundingBox(2, 17, 6, 4), 0.7),  # wholly below its frame: left out
            ("gray", BoundingBox(-4, 4, 9, 6), 0.9),
        ],
        "second": [
            ("colour", BoundingBox(1, 12, 6, 5), 0.1),
            ("small", BoundingBox(12, 3, 20, 20), 0.3),  # overhangs the right and bottom edges
            ("colour", BoundingBox(45, 20, 4, 4), 0.4),  # right of its frame: left out, rows still in the band
        ],
    }

    def test_canvases_match_whole_frame_oracle(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        out = tmp_path / "out"
        out.mkdir()
        paths = {}
        for name, shape in self.FRAMES.items():
            paths[name] = str(tmp_path / f"{name}.pnm")
            (write_ppm if len(shape) == 3 else write_pgm)(paths[name], rng.integers(0, 256, shape, dtype=np.uint8))
        save_manifest([ManifestRecord(name, path, "c", "test") for name, path in paths.items()],
                      out / "manifest_used.csv")
        # img_w and img_h disagree with every frame: the cut must use the frame's own size
        save_items([ItemRecord(f"{anchor}#{n}", Proposal(name, box, 0.5), "c", "test", 1, 1)
                    for anchor, members in self.GROUPS.items() for n, (name, box, _) in enumerate(members)],
                   out / "items.csv")
        save_groups([SimilarityGroup(anchor, RetrievalResult([(f"{anchor}#{n}", d) for n, (_, _, d) in
                                                              enumerate(members)]))
                     for anchor, members in self.GROUPS.items()], out / "groups.jsonl")

        reads = [[]]  # per canvas: (frame path, rows) of each read_image call
        original_read, original_make = coseg.pipeline.read_image, coseg.pipeline.make_collage

        def read(path, *rows):
            reads[-1].append((path, *rows))
            return original_read(path, *rows)

        def make(*args):
            reads.append([])
            return original_make(*args)

        monkeypatch.setattr(coseg.pipeline, "read_image", read)
        monkeypatch.setattr(coseg.pipeline, "make_collage", make)
        run_stage("collage", merge_config({"data.out_dir": str(out), "collage.limit": "10"}))

        assert sorted(p.name for p in (out / "collages").iterdir()) == ["first.ppm", "second.ppm"]
        for (anchor, members), canvas_reads in zip(self.GROUPS.items(), reads):
            oracle = whole_frame_collage([(paths[name], box, d) for name, box, d in members], CollageSpec())
            canvas = read_image(out / "collages" / f"{anchor}.ppm")
            assert np.array_equal(canvas, oracle), anchor
            assert all(len(call) == 2 and isinstance(call[1], slice) for call in canvas_reads)
            read_paths = [call[0] for call in canvas_reads]
            assert sorted(read_paths) == sorted({paths[name] for name, _, _ in members})
            for path, rows in canvas_reads:
                name = next(n for n in paths if paths[n] == path)
                boxes = [box for n, box, _ in members if n == name]
                span = range(min(max(b.y, 0) for b in boxes), max(b.y + b.h for b in boxes))
                assert set(range(*rows.indices(self.FRAMES[name][0]))) <= set(span)
        assert reads[-1] == []  # no read after the last canvas


class TestTablesDisagree:
    """A stage whose input tables disagree on an id fails, naming the id and
    the table that lacks it, and leaves its previous output as it was."""

    def drop_row(self, pipeline_run, tmp_path, table, item_id):
        """A copy of the run whose table lacks item_id's row; returns its config."""
        _, out, cfg, _ = pipeline_run
        new_out = tmp_path / "out"
        shutil.copytree(out, new_out)
        if table == "items.csv":
            save_items([it for it in load_items(out / table) if it.item_id != item_id], new_out / table)
        else:
            save_manifest([r for r in load_manifest(out / table) if r.item_id != item_id], new_out / table)
        return {**cfg, "data.out_dir": str(new_out)}

    def assert_fails(self, stage, cfg, table, item_id):
        out = Path(cfg["data.out_dir"])
        before = tree_bytes(out)
        with pytest.raises(StageError, match=re.escape(f"id {item_id!r} missing from {table}")) as exc_info:
            run_stage(stage, cfg)
        assert exc_info.value.stage == stage
        assert tree_bytes(out) == before

    @pytest.mark.parametrize("iou_filter", ["0", "0.5"])
    def test_retrieve_test_item_missing_from_items(self, pipeline_run, tmp_path, iou_filter):
        # at IoU 0 retrieve used to write the group anyway, with a null class
        # hint and the unknown id among other groups' members
        anchor = load_groups(pipeline_run[1] / "groups.jsonl")[0].anchor
        cfg = self.drop_row(pipeline_run, tmp_path, "items.csv", anchor)
        self.assert_fails("retrieve", {**cfg, "retrieve.iou_filter": iou_filter}, "items.csv", anchor)

    @pytest.mark.parametrize("iou_filter", ["0", "0.5"])
    def test_retrieve_test_image_missing_from_manifest(self, pipeline_run, tmp_path, iou_filter):
        # retrieve used to pass the image's items as having no ground truth,
        # keeping members the IoU filter would drop
        out = pipeline_run[1]
        items = {it.item_id: it for it in load_items(out / "items.csv")}
        image = items[load_groups(out / "groups.jsonl")[0].anchor].proposal.image_id
        cfg = self.drop_row(pipeline_run, tmp_path, "manifest_used.csv", image)
        self.assert_fails("retrieve", {**cfg, "retrieve.iou_filter": iou_filter}, "manifest_used.csv", image)

    def test_train_item_missing_from_items(self, pipeline_run, tmp_path):
        ids, _ = load_descriptors_file(pipeline_run[1] / "desc_train.csgd")
        cfg = self.drop_row(pipeline_run, tmp_path, "items.csv", ids[-1])
        self.assert_fails("train", cfg, "items.csv", ids[-1])

    def test_evaluate_image_missing_from_manifest(self, pipeline_run, tmp_path):
        # evaluate used to write report.json, skipping the image's items as
        # having no ground-truth mask
        out = pipeline_run[1]
        items = {it.item_id: it for it in load_items(out / "items.csv")}
        image = items[load_groups(out / "groups.jsonl")[0].anchor].proposal.image_id
        cfg = self.drop_row(pipeline_run, tmp_path, "manifest_used.csv", image)
        self.assert_fails("evaluate", cfg, "manifest_used.csv", image)

    def test_evaluate_member_missing_from_items(self, pipeline_run, tmp_path):
        # evaluate used to write report.json, skipping the member as having
        # no segmentation mask
        groups = load_groups(pipeline_run[1] / "groups.jsonl")
        member = next(g for g in groups if g.members).members.neighbors[0][0]
        cfg = self.drop_row(pipeline_run, tmp_path, "items.csv", member)
        self.assert_fails("evaluate", cfg, "items.csv", member)

    @pytest.mark.parametrize("table", ["items.csv", "manifest_used.csv"])
    def test_collage_member_missing(self, pipeline_run, tmp_path, table):
        _, out, cfg, _ = pipeline_run
        items = {it.item_id: it for it in load_items(out / "items.csv")}
        groups = load_groups(out / "groups.jsonl")[:int(cfg["collage.limit"])]
        member = next(g for g in groups if g.members).members.neighbors[0][0]
        missing = member if table == "items.csv" else items[member].proposal.image_id
        self.assert_fails("collage", self.drop_row(pipeline_run, tmp_path, table, missing), table, missing)


class TestEvaluateStage:
    def test_mask_size_differing_from_image_fails(self, pipeline_run, tmp_path):
        new_root, cfg = fresh_copy(pipeline_run, tmp_path)
        records = load_manifest(new_root / "manifest.csv")
        target = next(r for r in records if r.split == "test")
        h, w = read_image(new_root / target.image_path).shape[:2]
        write_pbm(new_root / "wide.pbm", np.ones((h, w + 1), dtype=bool))
        records = [replace(r, gt_mask_path="wide.pbm") if r is target else r for r in records]
        save_manifest(records, new_root / "manifest.csv")
        run_stage("ingest", cfg)
        with pytest.raises(StageError, match=f"wide.pbm is {w + 1}x{h}, its image {w}x{h}"):
            run_stage("evaluate", cfg)

    def test_image_without_ground_truth_is_skipped(self, pipeline_run, tmp_path):
        _, out, _, _ = pipeline_run
        new_out = tmp_path / "out"
        shutil.copytree(out, new_out)
        groups = load_groups(out / "groups.jsonl")
        items = {it.item_id: it for it in load_items(out / "items.csv")}
        scored = list(dict.fromkeys(
            i for g in groups for i in (g.anchor, *(m for m, _ in g.members.neighbors))
        ))
        records = load_manifest(out / "manifest_used.csv")
        bare = items[groups[0].anchor].proposal.image_id
        save_manifest([replace(r, gt_box=None) if r.item_id == bare else r for r in records],
                      new_out / "manifest_used.csv")
        run_stage("evaluate", merge_config({"data.out_dir": str(new_out)}))
        report = json.loads((new_out / "report.json").read_text(encoding="utf-8"))

        skipped = [i for i in scored if items[i].proposal.image_id == bare]
        assert report["skipped"] == [{"id": i, "reason": "no ground-truth mask"} for i in skipped]
        # the class scores average the other items, each box drawn against its image's box
        truth = {r.item_id: r.gt_box for r in records}
        by_class: dict[str, list[tuple[float, float]]] = {}
        for i in scored:
            it = items[i]
            if i in skipped:
                continue
            rows, cols = np.indices((it.img_h, it.img_w))
            seg, gt = (
                (rows >= b.y) & (rows < b.y + b.h) & (cols >= b.x) & (cols < b.x + b.w)
                for b in (it.proposal.box, truth[it.proposal.image_id])
            )
            by_class.setdefault(it.class_name, []).append((precision(seg, gt), jaccard(seg, gt)))
        assert sorted(report["per_class"]) == sorted(by_class)
        for cls, scores in by_class.items():
            assert report["per_class"][cls] == {
                "precision": pytest.approx(np.mean([p for p, _ in scores]), rel=1e-12),
                "jaccard": pytest.approx(np.mean([j for _, j in scores]), rel=1e-12),
                "count": len(scores),
            }


class TestOneGroundTruth:
    """retrieve's IoU filter and evaluate read one ground truth per image, its
    mask, else its box in the frame, and score a box against it one way."""

    def redraw(self, pipeline_run, tmp_path, gt_box):
        """A fresh copy whose manifest gives each image its box drawn as a PBM
        mask and gt_box(record) as its box, ingested; returns its config."""
        new_root, cfg = fresh_copy(pipeline_run, tmp_path)
        records = []
        for r in load_manifest(new_root / "manifest.csv"):
            shape = read_image(new_root / r.image_path).shape[:2]
            write_pbm(new_root / f"{r.item_id}.pbm", drawn(shape, r.gt_box))
            records.append(replace(r, gt_box=gt_box(r), gt_mask_path=f"{r.item_id}.pbm"))
        save_manifest(records, new_root / "manifest.csv")
        run_stage("ingest", cfg)
        return cfg

    @pytest.mark.parametrize("gt_box", [lambda r: None, lambda r: BoundingBox(63, 63, 1, 1)],
                             ids=["mask-only", "mask-over-other-box"])
    def test_filter_follows_the_mask(self, pipeline_run, tmp_path, gt_box):
        # each mask draws the box the original run filtered by, so its groups
        # and report are the oracle; retrieve used to read only the box, so it
        # kept every member of a mask-only image and filtered a row holding
        # both by its box
        out = pipeline_run[1]
        cfg = self.redraw(pipeline_run, tmp_path, gt_box)
        new_out = Path(cfg["data.out_dir"])
        for stage in ("retrieve", "evaluate"):
            run_stage(stage, cfg)
        for name in ("groups.jsonl", "report.json"):
            assert (new_out / name).read_bytes() == (out / name).read_bytes()

    def test_overhanging_proposal_filtered_on_its_in_frame_part(self, pipeline_run, tmp_path):
        # in a 64x64 frame, (40,40,48,48) against a ground-truth box (40,40,24,24)
        # has IoU 0.25, and Jaccard 1.0 on the part evaluate scores
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        out = Path(cfg["data.out_dir"])
        run_stage("retrieve", {**cfg, "retrieve.iou_filter": "0"})
        unfiltered = load_groups(out / "groups.jsonl")
        member = next(g for g in unfiltered if g.members).members.neighbors[0][0]
        items = load_items(out / "items.csv")
        moved = next(it for it in items if it.item_id == member)
        assert (moved.img_w, moved.img_h) == (64, 64)
        box, truth = BoundingBox(40, 40, 48, 48), BoundingBox(40, 40, 24, 24)
        assert iou(box, truth) == 0.25
        items = [replace(it, proposal=replace(it.proposal, box=box)) if it is moved else it for it in items]
        save_items(items, out / "items.csv")
        image = moved.proposal.image_id
        save_manifest([replace(r, gt_box=truth) if r.item_id == image else r
                       for r in load_manifest(out / "manifest_used.csv")], out / "manifest_used.csv")
        run_stage("retrieve", {**cfg, "retrieve.iou_filter": "0.5"})
        holding = [g.anchor for g in unfiltered if member in dict(g.members.neighbors)]
        kept = [g.anchor for g in load_groups(out / "groups.jsonl") if member in dict(g.members.neighbors)]
        assert holding and kept == holding

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_wrong_size_mask_fails_only_where_scored(self, pipeline_run, tmp_path, split):
        # evaluate used to build every image's ground truth, so a train image's
        # bad mask failed it though no train item is scored; retrieve never read masks
        _, out, _, _ = pipeline_run
        new_root, cfg = fresh_copy(pipeline_run, tmp_path)
        records = load_manifest(new_root / "manifest.csv")
        target = next(r for r in records if r.split == split)
        write_pbm(new_root / "bad.pbm", np.ones((3, 3), dtype=bool))
        save_manifest([replace(r, gt_mask_path="bad.pbm") if r is target else r for r in records],
                      new_root / "manifest.csv")
        run_stage("ingest", cfg)
        new_out = Path(cfg["data.out_dir"])
        if split == "test":
            message = r"ground-truth mask \S*bad\.pbm is 3x3, its image 64x64"
            with pytest.raises(StageError, match=message) as exc:
                run_stage("retrieve", cfg)
            assert exc.value.stage == "retrieve"
            return
        for stage in ("retrieve", "evaluate"):
            run_stage(stage, cfg)
        for name in ("groups.jsonl", "report.json"):
            assert (new_out / name).read_bytes() == (out / name).read_bytes()


class TestDecodeErrorsNameTheirFile:
    def test_truncated_model(self, pipeline_run, tmp_path):
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        model = Path(cfg["data.out_dir"]) / "model.csgm"
        model.write_bytes(model.read_bytes()[:-3])
        message = re.escape(f"stage 'embed' failed: {model}: needed ") + r"\d+ bytes at offset \d+, only \d+ left"
        with pytest.raises(StageError, match=message):
            run_stage("embed", cfg)

    def test_frame_with_maxval_254(self, pipeline_run, tmp_path):
        new_root, cfg = fresh_copy(pipeline_run, tmp_path)
        frame = (new_root / load_manifest(new_root / "manifest.csv")[0].image_path).resolve()
        frame.write_bytes(frame.read_bytes().replace(b"\n255\n", b"\n254\n", 1))
        message = re.escape(f"stage 'ingest' failed: {frame}: unsupported maxval 254 (only 255)")
        with pytest.raises(StageError, match=message):
            run_stage("ingest", cfg)


class TestRunStage:
    def test_unknown_stage(self):
        with pytest.raises(ConfigError, match="unknown stage"):
            run_stage("wash", dict(DEFAULTS))

    def test_failure_wrapped_with_stage_name(self, tmp_path):
        cfg = merge_config({"data.out_dir": str(tmp_path / "empty")})
        with pytest.raises(StageError) as exc_info:
            run_stage("train", cfg)
        assert exc_info.value.stage == "train"
        assert isinstance(exc_info.value.cause, FileNotFoundError)

    def test_config_error_not_wrapped(self, pipeline_run, tmp_path):
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        cfg["collage.background"] = "1,2"
        with pytest.raises(ConfigError):
            run_stage("collage", cfg)

    def test_bad_numeric_value_is_config_error(self, tmp_path):
        cfg = merge_config({"data.out_dir": str(tmp_path), "ingest.top_k": "many"})
        with pytest.raises(ConfigError):
            run_stage("ingest", cfg)

    def test_unknown_key_outside_scope_is_config_error(self, tmp_path):
        # a stage checks its whole config, not only the keys it is granted
        cfg = {**merge_config({"data.out_dir": str(tmp_path / "out")}), "train.optimizer": "adam"}
        with pytest.raises(ConfigError, match="unknown config key 'train.optimizer'"):
            run_stage("index", cfg)
        assert not (tmp_path / "out").exists()

    def test_missing_key_is_config_error_before_any_write(self, tmp_path):
        # a stage needs data.out_dir and every key its STAGES row grants
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="missing config keys: seed, data.out_dir, train.lr, "):
            run_stage("train", {})
        cfg = {key: value for key, value in merge_config({"data.out_dir": str(out)}).items()
               if key not in ("seed", "train.mining")}
        with pytest.raises(ConfigError, match=r"missing config keys: seed, train\.mining$"):
            run_stage("train", cfg)
        assert not out.exists()

    def test_pipeline_missing_key_is_config_error_before_any_write(self, tmp_path):
        out = tmp_path / "out"
        cfg = {"data.manifest": "m", "data.proposals": "p", "data.out_dir": str(out)}
        with pytest.raises(ConfigError, match="missing config keys: seed, split.resplit, "):
            run_pipeline(cfg)
        with pytest.raises(ConfigError, match=r"missing config keys: collage\.limit$"):
            run_pipeline({key: value for key, value in merge_config(cfg).items() if key != "collage.limit"})
        assert not out.exists()

    def test_failed_save_leaves_previous_artifact(self, pipeline_run, tmp_path, monkeypatch):
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        out = Path(cfg["data.out_dir"])
        before = (out / "groups.jsonl").read_bytes()
        names = sorted(os.listdir(out))
        staged = []

        def half_save(groups, path):
            staged.append(Path(path))
            Path(path).write_text('{"anchor": ', encoding="utf-8")
            raise OSError("disk full")

        monkeypatch.setattr(coseg.pipeline, "save_groups", half_save)
        with pytest.raises(StageError, match="disk full"):
            run_stage("retrieve", cfg)
        assert (out / "groups.jsonl").read_bytes() == before
        assert sorted(os.listdir(out)) == names  # no staging directory left
        monkeypatch.undo()
        # a killed run leaves its staging directory; the next run clears it
        staged[0].parent.mkdir()
        staged[0].write_text('{"anchor": ', encoding="utf-8")
        run_stage("retrieve", cfg)
        assert (out / "groups.jsonl").read_bytes() == before
        assert sorted(os.listdir(out)) == names


class TestStageTable:
    def test_reads_are_written_by_an_earlier_stage_and_writes_by_one(self):
        written: list[str] = []
        for name, stage in STAGES.items():
            assert set(stage.reads) <= set(written), name
            written += stage.writes
        assert len(written) == len(set(written))

    def test_every_key_but_out_dir_reaches_a_stage(self, tmp_path, monkeypatch):
        seen: set[str] = set()

        def record(cfg, inputs, outputs):
            seen.update(cfg)
            for path in outputs.values():
                path.touch()

        # every value must pass its KEYS rule, so the data paths are set
        cfg = merge_config({"data.out_dir": str(tmp_path), "data.manifest": "m", "data.proposals": "p"})
        for name, stage in STAGES.items():
            monkeypatch.setitem(STAGES, name, replace(stage, run=record, reads=()))
            run_stage(name, cfg)
        assert seen == set(KEYS) - {"data.out_dir"}

    def test_out_dir_holds_exactly_the_declared_outputs(self, pipeline_run):
        _, out, _, _ = pipeline_run
        declared = {a for stage in STAGES.values() for a in stage.writes}
        assert set(os.listdir(out)) == declared

    def test_declared_stage_commits(self, tmp_path, monkeypatch):
        (tmp_path / "a.txt").write_text("a", encoding="utf-8")

        def copy(cfg, inputs, outputs):
            text = inputs["a.txt"].read_text(encoding="utf-8") + str(cfg["seed"]) + cfg["stub.x"]
            outputs["b.txt"].write_text(text, encoding="utf-8")

        monkeypatch.setitem(STAGES, "stub", Stage(copy, ("a.txt",), ("b.txt",), ("seed",)))
        monkeypatch.setitem(KEYS, "stub.x", Key("", str, "any string"))
        run_stage("stub", {"data.out_dir": str(tmp_path), "seed": "1", "stub.x": "2"})
        assert (tmp_path / "b.txt").read_text(encoding="utf-8") == "a12"
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]

    @pytest.mark.parametrize("body", [
        lambda cfg, inputs, outputs: cfg["train.lr"],
        lambda cfg, inputs, outputs: cfg["data.out_dir"],
        lambda cfg, inputs, outputs: inputs["groups.jsonl"],
        lambda cfg, inputs, outputs: [outputs["b.txt"].with_name(n).touch() for n in ("b.txt", "c.txt")],
        lambda cfg, inputs, outputs: None,  # the declared output is missing
    ], ids=["undeclared_key", "out_dir", "undeclared_input", "undeclared_file", "missing_output"])
    def test_undeclared_access_fails(self, tmp_path, monkeypatch, body):
        (tmp_path / "b.txt").write_text("old", encoding="utf-8")
        cfg = merge_config({"data.out_dir": str(tmp_path)})
        monkeypatch.setitem(STAGES, "stub", Stage(body, (), ("b.txt",)))
        with pytest.raises(StageError) as exc_info:
            run_stage("stub", cfg)
        assert exc_info.value.stage == "stub"
        assert sorted(os.listdir(tmp_path)) == ["b.txt"]
        assert (tmp_path / "b.txt").read_text(encoding="utf-8") == "old"


# One rejected value for every KEYS rule and every parser, each with the
# stage that reads the key. No stage input exists, so a stage that read
# anything before checking its config would exit 1, not 2.
REJECTED = [
    ("ingest", "seed", "-1"),
    ("index", "seed", str(2**64)),
    ("ingest", "data.manifest", ""),
    ("ingest", "data.proposals", ""),
    ("train", "data.out_dir", ""),
    ("ingest", "split.resplit", "maybe"),
    ("ingest", "split.train_fraction", "0"),
    ("ingest", "ingest.dedup_threshold", "1.5"),
    ("ingest", "ingest.nms_threshold", "0"),
    ("ingest", "ingest.top_k", "many"),
    ("ingest", "ingest.top_k", "0"),
    ("train", "train.lr", "0"),
    ("train", "train.lr", "inf"),
    ("train", "train.lr", "abc"),
    ("train", "train.momentum", "1"),
    ("train", "train.batch_size", "0"),
    ("train", "train.margin", "nan"),
    ("train", "train.iterations", "-1"),
    ("train", "train.mining", "hardest"),
    ("train", "train.layers", "64,0"),
    ("train", "train.layers", "64,x"),
    ("train", "train.pool_factor", "0"),
    ("train", "train.classical_hinge", "2"),
    ("index", "index.n_trees", str(2**32)),
    ("index", "index.search_k", "0"),
    ("index", "index.search_k", str(2**32)),
    ("index", "index.leaf_capacity", "1"),
    ("index", "index.leaf_capacity", str(2**32)),
    ("index", "index.metric", "Euclidean"),
    ("retrieve", "retrieve.k", "1.5"),
    ("retrieve", "retrieve.k", "0"),
    ("retrieve", "retrieve.search_k", "0"),
    ("retrieve", "retrieve.iou_filter", "nan"),
    ("collage", "collage.background", "1,2"),
    ("collage", "collage.limit", "-1"),
]


def typed_rejections():
    """Each REJECTED value that parses, for each typed config field its key
    feeds in the stages: (type, field, key, parsed value)."""
    for _, key, value in REJECTED:
        try:
            parsed = KEYS[key].parse(value)
        except (KeyError, ValueError):
            continue
        for cls, stage in ((TrainConfig, "train"), (IndexConfig, "index"), (CollageSpec, "collage")):
            for f in fields(cls):
                if coseg.pipeline._FIELD_KEYS.get(f.name, f"{stage}.{f.name}") == key:
                    yield pytest.param(cls, f.name, key, parsed, id=f"{cls.__name__}.{f.name}={value}")


_PROPS = [Proposal("img", BoundingBox(0, 0, 2, 2), 0.5)]
_EMB = np.eye(3)
_INDEX = build(_EMB, IndexConfig(n_trees=1))
# Each library argument a config key feeds: key -> (parameter, call with a value).
LIBRARY_ARGUMENTS = {
    "train.margin": [
        ("margin", lambda v: contrastive_loss(np.zeros(2), np.ones(2), 0, v)),
        ("margin", lambda v: loss_gradient(init_params(2, (2,), 0), PairSample(np.ones(2), np.zeros(2), 0), v)),
    ],
    "train.layers": [("layer_sizes", lambda v: init_params(3, v, 0))],
    "ingest.dedup_threshold": [("iou_threshold", lambda v: dedup_near(_PROPS, v))],
    "ingest.nms_threshold": [("iou_threshold", lambda v: nms(_PROPS, v))],
    "ingest.top_k": [("k", lambda v: top_k(_PROPS, v))],
    "retrieve.k": [("k", lambda v: retrieve_similar(_INDEX, _EMB, v)), ("k", lambda v: query(_INDEX, _EMB[0], v))],
    "retrieve.search_k": [
        ("search_k", lambda v: retrieve_similar(_INDEX, _EMB, 1, v)),
        ("search_k", lambda v: query(_INDEX, _EMB[0], 1, v)),
    ],
    "retrieve.iou_filter": [("threshold", lambda v: iou_verdicts({}, v))],
}


def library_rejections():
    """Each REJECTED value that parses, for each library argument its key
    feeds: (key, parameter, call, parsed value)."""
    for _, key, value in REJECTED:
        try:
            parsed = KEYS[key].parse(value)
        except (KeyError, ValueError):
            continue
        for i, (param, call) in enumerate(LIBRARY_ARGUMENTS.get(key, [])):
            yield pytest.param(key, param, call, parsed, id=f"{key}={value}-{i}")


class TestKeys:
    def test_every_key_has_a_rejected_value(self):
        assert {key for _, key, _ in REJECTED} == set(KEYS)

    @pytest.mark.parametrize("cls,field,key,value", typed_rejections())
    def test_typed_configs_refuse_in_the_keys_words(self, cls, field, key, value):
        # TrainConfig(learning_rate=0) is refused as --train.lr 0 is, in the same words
        with pytest.raises(ConfigError) as info:
            cls(**{field: value})
        assert f"{field} must be {KEYS[key].rule}, got " in str(info.value)

    def test_library_arguments_have_a_rejected_value(self):
        assert {case.values[0] for case in library_rejections()} == set(LIBRARY_ARGUMENTS)

    @pytest.mark.parametrize("key,param,call,value", library_rejections())
    def test_library_arguments_refuse_in_the_keys_words(self, key, param, call, value):
        # top_k(props, 0) is refused as --ingest.top_k 0 is, in the same words
        with pytest.raises(ConfigError) as info:
            call(value)
        assert f"{param} must be {KEYS[key].rule}, got " in str(info.value)

    def test_defaults_pass_their_rules(self):
        parsed = parse_config({**DEFAULTS, "data.manifest": "m", "data.proposals": "p", "data.out_dir": "o"})
        assert parsed["train.layers"] == (128, 256)
        assert parsed["split.resplit"] is False

    @pytest.mark.parametrize("raw,value", [("true", True), ("YES", True), ("1", True), ("no", False), ("False", False)])
    def test_bool_spellings(self, raw, value):
        assert parse_config({"split.resplit": raw}) == {"split.resplit": value}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'train.optimizer'"):
            parse_config({"train.optimizer": "adam"})

    def test_readme_table_lists_keys_in_order(self):
        lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | default | rule | meaning |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            rows.append(tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")[:3]))
        assert rows == [(key, spec.default, spec.rule) for key, spec in KEYS.items()]


class TestCli:
    def test_missing_required_key_exits_2(self, capsys, tmp_path):
        code = main(["ingest", "--data.out_dir", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_missing_config_file_exits_2(self, capsys, tmp_path, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"seed=\xff\n")
        code = main(["train", "--config", str(path)])
        assert code == 2
        assert f"config error: cannot read config file {path}" in capsys.readouterr().err

    def test_bad_value_outside_stage_scope_exits_2(self, capsys, tmp_path):
        out = tmp_path / "out"
        cfg = {"data.manifest": "m", "data.proposals": "p", "data.out_dir": str(out), "train.lr": "banana"}
        assert main(["ingest", *flags(cfg)]) == 2
        assert "config error: train.lr must be finite and > 0, got 'banana'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_line_without_equals_exits_2(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 3\n", encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}:1: expected key=value" in err
        assert "cannot read config file" not in err

    def test_stage_failure_exits_1(self, capsys, tmp_path):
        missing = tmp_path / "nope.csv"
        code = main([
            "ingest",
            "--data.manifest", str(missing),
            "--data.proposals", str(missing),
            "--data.out_dir", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "stage 'ingest' failed" in capsys.readouterr().err

    def test_single_stage_success_prints_timing(self, pipeline_run, tmp_path, capsys):
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        code = main([
            "index",
            "--data.out_dir", cfg["data.out_dir"],
            "--index.n_trees", "3",
            "--index.search_k", "500",
            "--seed", "7",
        ])
        assert code == 0
        assert "index:" in capsys.readouterr().out
        index = load_index(tmp_path / "copy" / "out")
        assert index.config.n_trees == 3  # dotted flag reached the stage

    def test_config_file_plus_flag_precedence(self, pipeline_run, tmp_path, capsys):
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"data.out_dir={cfg['data.out_dir']}\nindex.n_trees=4\nindex.search_k=500\nseed=7\n",
            encoding="utf-8",
        )
        code = main(["index", "--config", str(cfg_file), "--index.n_trees", "6"])
        assert code == 0
        index = load_index(tmp_path / "copy" / "out")
        assert index.config.n_trees == 6  # flag beats file

    def test_env_seed_overrides_flag(self, pipeline_run, tmp_path, capsys, monkeypatch):
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        monkeypatch.setenv("COSEG_SEED", "123")
        code = main([
            "index",
            "--data.out_dir", cfg["data.out_dir"],
            "--index.search_k", "500",
            "--seed", "7",
        ])
        assert code == 0
        index = load_index(tmp_path / "copy" / "out")
        assert index.config.seed == 123

    @pytest.mark.parametrize("stage,flag,value", [
        ("index", "--index.metric", "manhattan"),
        ("index", "--index.n_trees", "0"),
        ("retrieve", "--retrieve.iou_filter", "2"),
        ("retrieve", "--retrieve.iou_filter", "-1"),
        ("collage", "--collage.background", "300,0,0"),
        ("retrieve", "--retrieve.k", "0"),
        ("retrieve", "--retrieve.k", "-1"),
        ("retrieve", "--retrieve.search_k", "-5"),
        ("collage", "--collage.limit", "-3"),
        ("ingest", "--ingest.nms_threshold", "2"),
        ("ingest", "--ingest.dedup_threshold", "0"),
        ("ingest", "--ingest.top_k", "0"),
        ("ingest", "--split.train_fraction", "1.5"),
    ])
    def test_out_of_range_value_exits_2(self, pipeline_run, tmp_path, capsys, stage, flag, value):
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        args = [stage, "--data.out_dir", cfg["data.out_dir"], flag, value]
        if stage == "ingest":
            # with both data keys set, the value under test is the only config error
            args += ["--data.manifest", cfg["data.manifest"], "--data.proposals", cfg["data.proposals"]]
            args += ["--split.resplit", "true"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "config error" in err and flag.split(".")[1] in err

    def test_negative_seed_exits_2_before_ingest_reads(self, pipeline_run, tmp_path, capsys):
        _, cfg = fresh_copy(pipeline_run, tmp_path)
        code = main([
            "ingest",
            "--data.out_dir", cfg["data.out_dir"],
            "--data.manifest", cfg["data.manifest"],
            "--data.proposals", cfg["data.proposals"],
            "--split.resplit", "true",
            "--seed", "-1",
        ])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("stage,key,value", REJECTED)
    def test_rejected_value_exits_2_before_any_read(self, tmp_path, capsys, stage, key, value):
        out = tmp_path / "out"
        cfg = {"data.out_dir": str(out), "data.manifest": "m", "data.proposals": "p", key: value}
        assert main([stage, *flags(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key} must be {KEYS[key].rule}, got {value!r}" in err
        assert not out.exists()

    def test_pipeline_checks_whole_config_before_first_stage(self, pipeline_run, tmp_path, capsys):
        _, _, cfg, _ = pipeline_run
        out = tmp_path / "out"
        cfg = {**FAST_OVERRIDES, "data.manifest": cfg["data.manifest"],
               "data.proposals": cfg["data.proposals"], "data.out_dir": str(out), "collage.limit": "-3"}
        assert main(["pipeline", *flags(cfg)]) == 2
        assert "collage.limit must be >= 0, got '-3'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("COSEG_SEED", "elephant")
        assert main(["train"]) == 2

    def test_negative_env_seed_exits_2(self, tmp_path, capsys, monkeypatch):
        # COSEG_SEED is checked by the seed key's own rule
        monkeypatch.setenv("COSEG_SEED", "-1")
        out = tmp_path / "out"
        cfg = {"data.out_dir": str(out), "data.manifest": "m", "data.proposals": "p"}
        assert main(["train", *flags(cfg)]) == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_prints_each_stage_time_once(self, tmp_path, capsys, caplog):
        # the timings go to stdout once; the pipeline logger does not repeat them
        manifest, proposals = synthdata.make_image_dataset(
            tmp_path, n_classes=2, per_class=4, train_per_class=3, seed=2
        )
        with caplog.at_level(logging.INFO, logger="coseg.pipeline"):
            code = main([
                "pipeline",
                "--data.manifest", str(manifest),
                "--data.proposals", str(proposals),
                "--data.out_dir", str(tmp_path / "out"),
                "--train.iterations", "5",
                "--train.layers", "8",
                "--index.n_trees", "2",
                "--collage.limit", "1",
            ])
        assert code == 0
        captured = capsys.readouterr()
        assert [line.split(":")[0] for line in captured.out.splitlines()] == [*STAGE_NAMES, "total"]
        assert "finished in" not in captured.err + caplog.text

    def test_pipeline_subcommand_runs_everything(self, tmp_path, capsys):
        manifest, proposals = synthdata.make_image_dataset(
            tmp_path, n_classes=2, per_class=4, train_per_class=3, seed=2
        )
        out = tmp_path / "out"
        code = main([
            "pipeline",
            "--data.manifest", str(manifest),
            "--data.proposals", str(proposals),
            "--data.out_dir", str(out),
            "--train.iterations", "50",
            "--train.batch_size", "16",
            "--train.layers", "32,16",
            "--index.n_trees", "5",
            "--index.search_k", "200",
            "--retrieve.k", "3",
            "--retrieve.search_k", "200",
            "--collage.limit", "2",
            "--seed", "1",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "total:" in captured
        for stage in STAGE_NAMES:
            assert f"{stage}:" in captured
        assert (out / "report.json").exists()
        assert list((out / "collages").glob("*.ppm"))
