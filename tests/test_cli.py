import dataclasses
import hashlib
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from vlsc import cli
from vlsc import synthdata as sd
from vlsc import trainer as tr
from vlsc.errors import InputError, ShapeError
from vlsc.evalviz import RetrievalResult
from vlsc.model import PretrainModel


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    assert run("gen-data", "--out", str(path), "--n", "4",
               "--seed", "1") == 0
    return path


# every pixel value of one frame but the last
PX = " ".join(["0.5"] * (sd.CHANNELS * sd.CANVAS * sd.CANVAS - 1))
GOOD_LINE = f"1\t1\tred square\t{PX} 0.5\n"

# corpus text -> the line load_corpus must name
BAD_CORPORA = {
    "scene-id": (f"x\t1\tred square\t{PX} 0.5\n", 1),
    "frame-count": (f"1\tone\tred square\t{PX} 0.5\n", 1),
    "pixel": (f"1\t1\tred square\t{PX} x\n", 1),
    "zero-frames": ("1\t0\tred square\t\n", 1),
    "frame-counts-differ": (
        GOOD_LINE + f"2\t2\tred cross\t{PX} 0.5 {PX} 0.5\n", 2),
    "not-utf8": (GOOD_LINE + "2\t1\tred cr\udcffoss\t0.5\n", 2),
    "nan-pixel": (f"1\t1\tred square\t{PX} nan\n", 1),
    "unknown-word": (GOOD_LINE + f"2\t1\tpurple square\t{PX} 0.5\n", 2),
    "empty-caption": (GOOD_LINE + f"2\t1\t\t{PX} 0.5\n", 2),
    "blank-caption": (GOOD_LINE + f"2\t1\t  \t{PX} 0.5\n", 2),
    "pad-in-caption": (
        GOOD_LINE + f"2\t1\t[PAD] red square top left\t{PX} 0.5\n", 2),
    "cls-caption": (GOOD_LINE + f"2\t1\t[CLS] [CLS]\t{PX} 0.5\n", 2),
    "mask-caption": (f"1\t1\t[MASK]\t{PX} 0.5\n" + GOOD_LINE, 1),
    "overlong-caption": (
        GOOD_LINE + f"2\t1\t{'red ' * 21}\t{PX} 0.5\n", 2),
}


def set_caption(corpus_file, index, caption):
    """Replace the caption field of the corpus line at index."""
    lines = corpus_file.read_text().splitlines(keepends=True)
    fields = lines[index].split("\t")
    fields[2] = caption
    lines[index] = "\t".join(fields)
    corpus_file.write_text("".join(lines))


def quick_pretrain(tmp_path, corpus_file, *extra):
    out = tmp_path / "run"
    code = run("pretrain", "--corpus", str(corpus_file), "--out",
               str(out), "--steps", "2", "--batch", "2", *extra)
    return code, out


class TestGenData:
    def test_writes_loadable_corpus(self, tmp_path):
        path = tmp_path / "c.tsv"
        assert run("gen-data", "--out", str(path), "--n", "5") == 0
        corpus = sd.load_corpus(path)
        assert len(corpus) == 5

    def test_bad_size_is_usage_error(self, tmp_path):
        assert run("gen-data", "--out", str(tmp_path / "c.tsv"),
                   "--n", "0") == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert run("gen-data", "--out", str(tmp_path / "c.tsv"),
                   "--seed", "-1") == 2
        assert "seed -1" in capsys.readouterr().err

    def test_failed_write_keeps_old_corpus(self, tmp_path, file_size_limit):
        path = tmp_path / "c.tsv"
        assert run("gen-data", "--out", str(path), "--n", "2") == 0
        old = path.read_bytes()
        with file_size_limit(len(old) + 8):
            assert run("gen-data", "--out", str(path), "--n", "4") == 2
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["c.tsv"]

    def test_missing_directory_names_target(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.txt"
        assert run("gen-data", "--out", str(path), "--n", "2") == 2
        err = capsys.readouterr().err
        assert f"No such file or directory: '{path}'" in err
        assert ".tmp" not in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_multiframe(self, tmp_path):
        path = tmp_path / "c.tsv"
        assert run("gen-data", "--out", str(path), "--n", "2",
                   "--frames", "2") == 0
        assert sd.load_corpus(path)[0].frames.shape[0] == 2


class TestPretrain:
    def test_writes_artifacts(self, tmp_path, corpus_file):
        code, out = quick_pretrain(tmp_path, corpus_file)
        assert code == 0
        ckpt = tr.load_checkpoint(out / "ckpt_final.vlsc")
        assert ckpt.step == 2
        lines = (out / "metrics.txt").read_text().splitlines()
        assert len(lines) == 3  # header + 2 steps

    def test_flag_overrides_config_file(self, tmp_path, corpus_file):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("total_steps = 9\nbatch = 2\n")
        out = tmp_path / "run"
        assert run("pretrain", "--corpus", str(corpus_file), "--out",
                   str(out), "--config", str(cfg), "--steps", "2") == 0
        assert tr.load_checkpoint(out / "ckpt_final.vlsc").step == 2

    def test_objective_toggle(self, tmp_path, corpus_file):
        code, out = quick_pretrain(tmp_path, corpus_file, "--no-scl")
        assert code == 0
        last = (out / "metrics.txt").read_text().splitlines()[-1]
        assert last.split()[4] == "nan"

    def test_missing_corpus(self, tmp_path):
        assert run("pretrain", "--corpus", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "run")) == 2

    def test_unknown_flag_exits_2(self, corpus_file, tmp_path):
        with pytest.raises(SystemExit) as e:
            run("pretrain", "--corpus", str(corpus_file), "--out",
                str(tmp_path / "r"), "--warp-speed", "9")
        assert e.value.code == 2

    @pytest.mark.parametrize("flags, config", [
        ((), "heads = 0\n"),
        ((), "patch_size = 0\n"),
        ((), "embed_dim = 0\n"),
        ((), "layers_v = -1\n"),
        ((), "variant = Frame\udcffCLS\n"),
        ((), "batch = 4\nbatch = 5\n"),
        (("--image-mask-ratio", "1.5", "--steps", "0"), ""),
        (("--no-cl", "--no-vtm", "--no-mlm", "--no-scl"), ""),
    ], ids=["heads", "patch-size", "embed-dim", "layers-v", "not-utf8",
            "key-twice", "mask-ratio", "no-objective"])
    def test_bad_config_writes_nothing(self, tmp_path, corpus_file, flags,
                                       config):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(config.encode("utf-8", "surrogateescape"))
        out = tmp_path / "run"
        assert run("pretrain", "--corpus", str(corpus_file), "--out",
                   str(out), "--config", str(cfg), *flags) == 2
        assert not out.exists()

    @pytest.mark.parametrize("vocab_size, flags", [
        (3, ("--no-cl", "--no-vtm", "--no-scl")),
        (10, ()),
    ], ids=["mlm-vocab-3", "vocab-10"])
    def test_token_id_outside_vocab_writes_nothing(self, tmp_path,
                                                  corpus_file, capsys,
                                                  vocab_size, flags):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"vocab_size = {vocab_size}\n")
        top = max(int(s.caption.max()) for s in sd.load_corpus(corpus_file))
        out = tmp_path / "run"
        assert run("pretrain", "--corpus", str(corpus_file), "--out",
                   str(out), "--config", str(cfg), "--steps", "1",
                   "--batch", "2", *flags) == 2
        err = capsys.readouterr().err
        assert f"token id {top} " in err
        assert f"vocab_size {vocab_size}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_empty_caption_writes_nothing(self, tmp_path, corpus_file,
                                          capsys):
        set_caption(corpus_file, 2, "")
        out = tmp_path / "run"
        assert run("pretrain", "--corpus", str(corpus_file), "--out",
                   str(out), "--steps", "1", "--batch", "2") == 2
        err = capsys.readouterr().err
        assert f"{corpus_file}:3: empty caption" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mlm, scl", [(True, False), (False, True),
                                          (False, False)],
                             ids=["mlm", "scl", "neither"])
    def test_contentless_caption_refused_when_masked(self, tmp_path,
                                                     corpus_file, mlm, scl):
        # load_corpus refuses reserved words, so the caption [CLS] [MASK]
        # is built by hand: it holds no content token for MLM or SCL
        corpus = sd.load_corpus(corpus_file)
        corpus[1].caption = np.full(sd.K_MAX, sd.PAD_ID)
        corpus[1].caption[:2] = sd.CLS_ID, sd.MASK_ID
        config = tr.TrainConfig(total_steps=1, batch=2, mlm=mlm, scl=scl)
        out = tmp_path / "run"
        if not (mlm or scl):
            tr.train(config, corpus, out)
            assert (out / "ckpt_final.vlsc").exists()
            return
        with pytest.raises(InputError,
                           match="corpus sample 1 .*no content token"):
            tr.train(config, corpus, out)
        assert not out.exists()

    def test_bad_config_value(self, tmp_path, corpus_file):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("batch = many\n")
        assert run("pretrain", "--corpus", str(corpus_file), "--out",
                   str(tmp_path / "run"), "--config", str(cfg)) == 2

    def test_curriculum_handoff(self, tmp_path, corpus_file):
        code, image_out = quick_pretrain(tmp_path, corpus_file)
        assert code == 0
        video_corpus = tmp_path / "video.tsv"
        assert run("gen-data", "--out", str(video_corpus), "--n", "4",
                   "--frames", "2", "--seed", "3") == 0
        out = tmp_path / "video_run"
        assert run("pretrain", "--corpus", str(video_corpus), "--out",
                   str(out), "--steps", "1", "--batch", "2",
                   "--phase", "video", "--frames", "2",
                   "--init-from", str(image_out / "ckpt_final.vlsc")) == 0
        ckpt = tr.load_checkpoint(out / "ckpt_final.vlsc")
        assert ckpt.params["vision.pos_temporal"].shape[0] == 2

    def curriculum_run(self, tmp_path, corpus_file):
        """A 2-step M=2 FrameCLS run transferred from a 2-step image
        run; returns (video corpus, run directory, source checkpoint)."""
        code, image_out = quick_pretrain(tmp_path, corpus_file)
        assert code == 0
        video_corpus = tmp_path / "video.tsv"
        assert run("gen-data", "--out", str(video_corpus), "--n", "4",
                   "--frames", "2", "--seed", "3") == 0
        out, source = tmp_path / "video_run", image_out / "ckpt_final.vlsc"
        assert run("pretrain", "--corpus", str(video_corpus), "--out",
                   str(out), "--steps", "2", "--batch", "2",
                   "--phase", "video", "--frames", "2", "--variant",
                   "FrameCLS", "--init-from", str(source)) == 0
        return video_corpus, out, source

    def test_config_txt_records_init_from(self, tmp_path, corpus_file):
        _, out, source = self.curriculum_run(tmp_path, corpus_file)
        digest = hashlib.sha256(source.read_bytes()).hexdigest()
        first = (out / "config.txt").read_text().splitlines()[0]
        assert first == f"# init-from {source} sha256 {digest}"
        assert tr.TrainConfig(**tr.parse_config_file(
            out / "config.txt")) == tr.load_checkpoint(
                out / "ckpt_final.vlsc").config

    def test_config_txt_names_bytes_loaded(self, tmp_path, corpus_file,
                                          monkeypatch):
        # the source is replaced after --init-from loads it and before the
        # run writes config.txt, which must name the bytes the run used
        code, image_out = quick_pretrain(tmp_path, corpus_file)
        assert code == 0
        source = image_out / "ckpt_final.vlsc"
        loaded = source.read_bytes()
        real_train = tr.train

        def replace_then_train(*args, **kwargs):
            ckpt = tr.load_checkpoint(source)
            tr.save_checkpoint(dataclasses.replace(ckpt, step=ckpt.step + 1),
                               source)
            return real_train(*args, **kwargs)
        monkeypatch.setattr(tr, "train", replace_then_train)
        video_corpus = tmp_path / "video.tsv"
        assert run("gen-data", "--out", str(video_corpus), "--n", "4",
                   "--frames", "2", "--seed", "3") == 0
        out = tmp_path / "video_run"
        assert run("pretrain", "--corpus", str(video_corpus), "--out",
                   str(out), "--steps", "1", "--batch", "2", "--phase",
                   "video", "--frames", "2", "--init-from", str(source)) == 0
        assert source.read_bytes() != loaded
        first = (out / "config.txt").read_text().splitlines()[0]
        assert first == (f"# init-from {source} sha256 "
                         f"{hashlib.sha256(loaded).hexdigest()}")

    def test_curriculum_config_txt_reproduces_run(self, tmp_path,
                                                  corpus_file):
        video_corpus, first, _ = self.curriculum_run(tmp_path, corpus_file)
        source = tr.recorded_init_from(first / "config.txt")
        again = tmp_path / "again"
        assert run("pretrain", "--corpus", str(video_corpus), "--out",
                   str(again), "--config", str(first / "config.txt"),
                   "--init-from", source) == 0
        for name in ("config.txt", "metrics.txt", "ckpt_final.vlsc"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_replay_without_init_from_refused(self, tmp_path, corpus_file,
                                              capsys):
        video_corpus, first, source = self.curriculum_run(tmp_path,
                                                          corpus_file)
        capsys.readouterr()
        again = tmp_path / "again"
        assert run("pretrain", "--corpus", str(video_corpus), "--out",
                   str(again), "--config", str(first / "config.txt")) == 2
        assert not again.exists()
        assert str(source) in capsys.readouterr().err

    @pytest.mark.parametrize("earlier", ["run", "config.txt",
                                         "metrics.txt", "ckpt_step3.vlsc"])
    def test_used_run_directory_refused(self, tmp_path, corpus_file,
                                        capsys, earlier):
        out = tmp_path / "run"
        if earlier == "run":
            code, _ = quick_pretrain(tmp_path, corpus_file,
                                     "--checkpoint-interval", "1")
            assert code == 0
        else:
            out.mkdir()
            (out / earlier).write_text("left from an earlier run\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        code, _ = quick_pretrain(tmp_path, corpus_file, "--steps", "1")
        assert code == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        err = capsys.readouterr().err
        assert str(out) in err and any(name in err for name in before)

    def test_config_txt_reproduces_run(self, tmp_path, corpus_file):
        first = tmp_path / "run"
        assert run("pretrain", "--corpus", str(corpus_file), "--out",
                   str(first), "--steps", "2", "--batch", "2", "--seed",
                   "4", "--no-mlm", "--variant", "GlobalCLS") == 0
        again = tmp_path / "again"
        assert run("pretrain", "--corpus", str(corpus_file), "--out",
                   str(again), "--config", str(first / "config.txt")) == 0
        for name in ("config.txt", "metrics.txt", "ckpt_final.vlsc"):
            assert (again / name).read_bytes() == (first / name).read_bytes()
        assert tr.TrainConfig(**tr.parse_config_file(
            first / "config.txt")) == tr.load_checkpoint(
                first / "ckpt_final.vlsc").config


class TestEvalRetrieval:
    def test_prints_and_appends_csv(self, tmp_path, corpus_file, capsys):
        _, out = quick_pretrain(tmp_path, corpus_file)
        ckpt = str(out / "ckpt_final.vlsc")
        csv = tmp_path / "r.csv"
        for _ in range(2):
            assert run("eval-retrieval", "--ckpt", ckpt, "--corpus",
                       str(corpus_file), "--k", "2", "--out",
                       str(csv)) == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 3  # one header, two rows
        assert lines[0].startswith("n,k,")
        assert lines[1] == lines[2]  # deterministic evaluation
        assert "IR " in capsys.readouterr().out

    def test_failed_append_keeps_old_file(self, tmp_path, corpus_file,
                                          file_size_limit):
        # the appended row fails part-way past the old file's end
        _, out = quick_pretrain(tmp_path, corpus_file)
        csv = tmp_path / "r" / "r.csv"
        csv.parent.mkdir()
        csv.write_text(RetrievalResult.CSV_HEADER + "\n" + "4,0\n" * 2000)
        old = csv.read_bytes()
        with file_size_limit(len(old) + 8):
            assert run("eval-retrieval", "--ckpt",
                       str(out / "ckpt_final.vlsc"), "--corpus",
                       str(corpus_file), "--k", "2", "--out",
                       str(csv)) == 2
        assert csv.read_bytes() == old
        assert [p.name for p in csv.parent.iterdir()] == ["r.csv"]

    def test_empty_out_file_gets_header(self, tmp_path, corpus_file):
        _, out = quick_pretrain(tmp_path, corpus_file)
        csv = tmp_path / "r.csv"
        csv.write_bytes(b"")
        assert run("eval-retrieval", "--ckpt", str(out / "ckpt_final.vlsc"),
                   "--corpus", str(corpus_file), "--out", str(csv)) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == RetrievalResult.CSV_HEADER and len(lines) == 2

    @pytest.mark.parametrize("old", [
        cli.ABLATE_HEADER + "\nobjectives,cl+vtm+mlm+scl,0\n",
        RetrievalResult.CSV_HEADER + "\n4,0,0.25,0.5,1,0.25,0.5,1",
        RetrievalResult.CSV_HEADER,
        "4,0,0.25,0.5,1,0.25,0.5,1\n",
    ], ids=["ablate-table", "unterminated-row", "unterminated-header",
            "no-header"])
    def test_foreign_out_file_refused(self, tmp_path, corpus_file, capsys,
                                      old):
        # a row appended there would sit under another header, or be
        # joined onto the file's last line
        _, out = quick_pretrain(tmp_path, corpus_file)
        csv = tmp_path / "r.csv"
        csv.write_text(old)
        capsys.readouterr()
        assert run("eval-retrieval", "--ckpt", str(out / "ckpt_final.vlsc"),
                   "--corpus", str(corpus_file), "--out", str(csv)) == 2
        assert csv.read_text() == old
        err = capsys.readouterr().err
        assert str(csv) in err and "Traceback" not in err

    def test_k_too_deep(self, tmp_path, corpus_file):
        _, out = quick_pretrain(tmp_path, corpus_file)
        assert run("eval-retrieval", "--ckpt",
                   str(out / "ckpt_final.vlsc"), "--corpus",
                   str(corpus_file), "--k", "99") == 2


    def test_header_without_arrays(self, tmp_path, corpus_file):
        ckpt = tmp_path / "bad.vlsc"
        raw = b'{"config":{},"step":0,"t":0}'
        ckpt.write_bytes(tr.CKPT_MAGIC + struct.pack("<Q", len(raw)) + raw)
        assert run("eval-retrieval", "--ckpt", str(ckpt), "--corpus",
                   str(corpus_file)) == 2

    def test_ckpt_is_a_directory(self, tmp_path, corpus_file):
        assert run("eval-retrieval", "--ckpt", str(tmp_path), "--corpus",
                   str(corpus_file)) == 2

    @pytest.mark.parametrize("case", list(BAD_CORPORA))
    def test_bad_corpus_line(self, tmp_path, capsys, case):
        text, line = BAD_CORPORA[case]
        corpus = tmp_path / "bad.tsv"
        corpus.write_bytes(text.encode("utf-8", "surrogateescape"))
        ckpt = tmp_path / "init.vlsc"
        tr.save_checkpoint(tr.init_checkpoint(tr.TrainConfig()), ckpt)
        assert run("eval-retrieval", "--ckpt", str(ckpt), "--corpus",
                   str(corpus)) == 2
        assert f"{corpus}:{line}:" in capsys.readouterr().err


class TestExportAttention:
    def test_writes_per_frame_files(self, tmp_path, corpus_file):
        _, out = quick_pretrain(tmp_path, corpus_file)
        maps = tmp_path / "maps"
        assert run("export-attention", "--ckpt",
                   str(out / "ckpt_final.vlsc"), "--corpus",
                   str(corpus_file), "--index", "1", "--out-dir",
                   str(maps)) == 0
        assert (maps / "attn_frame0.pgm").exists()
        assert (maps / "attn_frame0.csv").exists()

    def test_index_out_of_range(self, tmp_path, corpus_file):
        _, out = quick_pretrain(tmp_path, corpus_file)
        assert run("export-attention", "--ckpt",
                   str(out / "ckpt_final.vlsc"), "--corpus",
                   str(corpus_file), "--index", "9", "--out-dir",
                   str(tmp_path / "m")) == 2

    def test_no_fusion_layer(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("layers_f = 0\n")
        code, out = quick_pretrain(tmp_path, corpus_file, "--config",
                                   str(cfg))
        assert code == 0
        capsys.readouterr()
        maps = tmp_path / "maps"
        assert run("export-attention", "--ckpt",
                   str(out / "ckpt_final.vlsc"), "--corpus",
                   str(corpus_file), "--out-dir", str(maps)) == 2
        err = capsys.readouterr().err
        assert "no fusion layer" in err and "Traceback" not in err
        assert not maps.exists()

    @pytest.mark.parametrize("prefix", ["a/b", ""])
    def test_prefix_that_is_no_file_name(self, tmp_path, corpus_file,
                                         capsys, prefix):
        # refused before --out-dir is made, so no empty directory stays
        _, out = quick_pretrain(tmp_path, corpus_file)
        capsys.readouterr()
        maps = tmp_path / "newdir"
        assert run("export-attention", "--ckpt",
                   str(out / "ckpt_final.vlsc"), "--corpus",
                   str(corpus_file), "--out-dir", str(maps), "--prefix",
                   prefix) == 2
        err = capsys.readouterr().err
        assert "--prefix" in err and "Traceback" not in err
        assert not maps.exists()


class TestCorpusDoesNotFitCheckpoint:
    # checkpoint config, corpus frames per sample, the one error line
    CASES = {
        "frames": (dict(), 2, "error: M=2 exceeds frames_m=1"),
        "caption": (dict(k_max=8), 1,
                    "error: caption length 16 exceeds k_max=8"),
        "canvas": (dict(canvas=8), 1, "error: frames (C,H,W)=(3,16,16) do "
                                      "not match the config (3,8,8)"),
    }

    @pytest.mark.parametrize("command", ["eval-retrieval",
                                         "export-attention"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command,
                                        case):
        kw, frames, line = self.CASES[case]
        ckpt, corpus = tmp_path / "c.vlsc", tmp_path / "c.tsv"
        tr.save_checkpoint(tr.init_checkpoint(tr.TrainConfig(**kw)), ckpt)
        assert run("gen-data", "--out", str(corpus), "--n", "4",
                   "--frames", str(frames)) == 0
        table = tmp_path / "r.csv"
        table.write_text(RetrievalResult.CSV_HEADER + "\n")
        maps = tmp_path / "maps"
        capsys.readouterr()
        out = ("--out", str(table)) if command == "eval-retrieval" \
            else ("--out-dir", str(maps))
        assert run(command, "--ckpt", str(ckpt), "--corpus", str(corpus),
                   *out) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert table.read_text() == RetrievalResult.CSV_HEADER + "\n"
        assert not maps.exists()


class TestEvalDrawsNoDropout:
    def test_dropout_moves_no_eval_output(self, tmp_path):
        # two checkpoints with the same parameters, whose configs differ
        # in dropout alone, evaluate to the same bytes: no evaluation
        # pass draws a dropout mask
        corpus = tmp_path / "c.tsv"
        assert run("gen-data", "--out", str(corpus), "--n", "8",
                   "--seed", "2") == 0
        _, out = quick_pretrain(tmp_path, corpus)
        trained = tr.load_checkpoint(out / "ckpt_final.vlsc")
        results = {}
        for p in (0.0, 0.1):
            ckpt = tmp_path / f"p{p}.vlsc"
            tr.save_checkpoint(dataclasses.replace(
                trained, config=dataclasses.replace(trained.config,
                                                    dropout=p)), ckpt)
            csv, maps = tmp_path / f"p{p}.csv", tmp_path / f"maps{p}"
            for k in ("0", "8"):
                assert run("eval-retrieval", "--ckpt", str(ckpt),
                           "--corpus", str(corpus), "--k", k, "--out",
                           str(csv)) == 0
            assert run("export-attention", "--ckpt", str(ckpt), "--corpus",
                       str(corpus), "--out-dir", str(maps)) == 0
            results[p] = [csv.read_bytes()] + [
                (f.name, f.read_bytes()) for f in sorted(maps.iterdir())]
        assert len(results[0.1]) == 3
        assert results[0.1] == results[0.0]


class TestOldLayoutRefused:
    # a checkpoint of the layout before the attention key projections
    # lost their bias, which cannot change any attention's output: each
    # table holds one zero bias per key projection too
    EXTRA = sorted(name[:-1] + "b" for name in PretrainModel(
        tr.TrainConfig()).params.names() if name.endswith(".k.w"))

    @pytest.fixture()
    def old_ckpt(self, tmp_path):
        ckpt = tr.init_checkpoint(tr.TrainConfig())
        for table in (ckpt.params, ckpt.m, ckpt.v):
            table.update((name, np.zeros(ckpt.config.embed_dim))
                         for name in self.EXTRA)
        path = tmp_path / "old.vlsc"
        tr.save_checkpoint(ckpt, path)
        return path

    def video_corpus(self, tmp_path):
        path = tmp_path / "video.tsv"
        assert run("gen-data", "--out", str(path), "--n", "4",
                   "--frames", "2") == 0
        return path

    @pytest.mark.parametrize("command", ["eval-retrieval",
                                         "export-attention", "pretrain"])
    def test_cli_exits_2_and_writes_nothing(self, tmp_path, corpus_file,
                                            old_ckpt, capsys, command):
        out = tmp_path / "out"
        argv = {
            "eval-retrieval": ("--ckpt", str(old_ckpt), "--corpus",
                               str(corpus_file), "--out", str(out)),
            "export-attention": ("--ckpt", str(old_ckpt), "--corpus",
                                 str(corpus_file), "--out-dir", str(out)),
            "pretrain": ("--init-from", str(old_ckpt), "--corpus",
                         str(self.video_corpus(tmp_path)), "--out",
                         str(out), "--phase", "video", "--frames", "2"),
        }[command]
        before = sorted(tmp_path.iterdir())
        assert run(command, *argv) == 2
        assert sorted(tmp_path.iterdir()) == before
        err = capsys.readouterr().err
        assert (f"14 names the model lacks, first {self.EXTRA[:3]}; "
                f"0 missing, first []") in err
        assert "Traceback" not in err

    def test_resume_raises_shape_error(self, tmp_path, corpus_file,
                                       old_ckpt):
        out = tmp_path / "run"
        with pytest.raises(ShapeError, match="14 names the model lacks"):
            tr.train(tr.TrainConfig(total_steps=1, batch=2),
                     sd.load_corpus(corpus_file), out_dir=out,
                     resume=tr.load_checkpoint(old_ckpt))
        assert not out.exists()


# every command a run needs, in an interpreter where importing scipy fails
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from vlsc import cli
d = sys.argv[1]
ckpt, corpus = d + "/run/ckpt_final.vlsc", d + "/c.tsv"
codes = [cli.main(argv) for argv in (
    ["gen-data", "--out", corpus, "--n", "8", "--seed", "1"],
    ["pretrain", "--corpus", corpus, "--out", d + "/run", "--steps", "2",
     "--batch", "2"],
    ["eval-retrieval", "--ckpt", ckpt, "--corpus", corpus, "--k", "8"],
    ["export-attention", "--ckpt", ckpt, "--corpus", corpus,
     "--out-dir", d + "/maps"])]
print("exit codes", codes)
"""


def python_with_src(*args, **kw):
    """subprocess.run of this interpreter, in dev mode, with the package
    importable."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-X", "dev", *args], env=env,
                          capture_output=True, text=True, timeout=300, **kw)


class TestWithoutScipy:
    def test_every_command_runs(self, tmp_path):
        proc = python_with_src("-c", WITHOUT_SCIPY, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "exit codes [0, 0, 0, 0]"
        assert "Traceback" not in proc.stderr

    def test_import_loads_no_scipy(self):
        proc = python_with_src("-c", "import sys, vlsc.cli; print(sorted("
                               "m for m in sys.modules "
                               "if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestGradcheckCommand:
    def test_passes_on_fresh_build(self, capsys):
        assert run("gradcheck", "--seed", "1") == 0
        out = capsys.readouterr().out
        assert "passed" in out
        assert out.count(" ok") == 5

    def test_absurd_step_fails(self):
        # a probe step of 10 destroys the estimate; the command must
        # report failure through its exit code either way
        assert run("gradcheck", "--seed", "1", "--eps", "10.0") == 1


    @pytest.mark.parametrize("flags", [
        ("--eps", "0"), ("--eps", "-1"), ("--eps", "nan"), ("--eps", "inf"),
        ("--max-elements", "0"),
    ], ids=["eps-0", "eps-neg", "eps-nan", "eps-inf", "max-elements-0"])
    def test_bad_setting_is_usage_error(self, flags, capsys):
        assert run("gradcheck", "--seed", "1", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestAblate:
    def test_variants_grid_csv(self, tmp_path):
        csv = tmp_path / "ablate.csv"
        assert run("ablate", "--grid", "variants", "--out", str(csv),
                   "--steps", "2", "--pairs", "2", "--batch", "2",
                   "--k", "1") == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == cli.ABLATE_HEADER
        assert len(lines) == 4
        width = len(cli.ABLATE_HEADER.split(","))
        names = []
        for row in lines[1:]:
            cells = row.split(",")
            assert len(cells) == width
            names.append(cells[1])
        assert names == list(cli.VARIANTS)

    def test_rejected_grid_keeps_old_results(self, tmp_path, capsys):
        csv = tmp_path / "ablate.csv"
        csv.write_text(cli.ABLATE_HEADER + "\nearlier,results\n")
        old = csv.read_bytes()
        assert run("ablate", "--grid", "objectives", "--out", str(csv),
                   "--steps", "1", "--pairs", "2", "--batch", "1") == 2
        assert "batch" in capsys.readouterr().err
        assert csv.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ablate.csv"]

    def test_negative_depth_rejected_before_training(self, tmp_path,
                                                     capsys, monkeypatch):
        def no_training(*args, **kw):
            raise AssertionError("ablate trained before checking --k")
        monkeypatch.setattr(tr, "train", no_training)
        csv = tmp_path / "ablate.csv"
        assert run("ablate", "--grid", "variants", "--out", str(csv),
                   "--steps", "1", "--pairs", "2", "--batch", "2",
                   "--k", "-1") == 2
        err = capsys.readouterr().err
        assert "--k -1" in err
        assert "Traceback" not in err
        assert not csv.exists()

    def test_mask_ratio_grid_has_five_rows(self, tmp_path):
        csv = tmp_path / "ablate.csv"
        assert run("ablate", "--grid", "mask-ratio", "--out", str(csv),
                   "--steps", "1", "--pairs", "2", "--batch", "2",
                   "--k", "0") == 0
        rows = csv.read_text().splitlines()[1:]
        assert len(rows) == 5
        got = [r.split(",")[1] for r in rows]
        want = [f"im{im}_tx{tx}" for im, tx in cli.MASK_RATIO_GRID]
        assert got == want

    def test_multi_seed_rows(self, tmp_path):
        csv = tmp_path / "ablate.csv"
        assert run("ablate", "--grid", "objectives", "--out", str(csv),
                   "--steps", "1", "--pairs", "2", "--batch", "2",
                   "--k", "0", "--seeds", "0,1") == 0
        rows = csv.read_text().splitlines()[1:]
        assert len(rows) == 2 * len(cli.OBJECTIVE_ROWS)
        seeds = {r.split(",")[2] for r in rows}
        assert seeds == {"0", "1"}


class TestSeedEnv:
    def test_scl_seed_default(self, monkeypatch):
        monkeypatch.setenv("SCL_SEED", "77")
        args = cli.build_parser().parse_args(["gradcheck"])
        assert cli.seed_arg(args) == 77

    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("SCL_SEED", "77")
        args = cli.build_parser().parse_args(["gradcheck", "--seed", "3"])
        assert cli.seed_arg(args) == 3

    @pytest.mark.parametrize("command", ["eval-retrieval",
                                         "export-attention", "pretrain"])
    def test_command_without_seed_reads_no_scl_seed(
            self, tmp_path, corpus_file, monkeypatch, command):
        # eval-retrieval and export-attention take no seed, and this
        # pretrain is given one
        _, out = quick_pretrain(tmp_path, corpus_file)
        ckpt = str(out / "ckpt_final.vlsc")
        argv = {
            "eval-retrieval": ("--ckpt", ckpt, "--corpus",
                               str(corpus_file)),
            "export-attention": ("--ckpt", ckpt, "--corpus",
                                 str(corpus_file), "--out-dir",
                                 str(tmp_path / "maps")),
            "pretrain": ("--corpus", str(corpus_file), "--out",
                         str(tmp_path / "again"), "--steps", "0",
                         "--seed", "1"),
        }[command]
        monkeypatch.setenv("SCL_SEED", "abc")
        assert run(command, *argv) == 0

    def test_pretrain_seed_order(self, tmp_path, corpus_file, monkeypatch):
        # --seed, then the --config file's seed, then SCL_SEED, then 0
        seeded, plain = tmp_path / "seeded.cfg", tmp_path / "plain.cfg"
        seeded.write_text("seed = 5\n")
        plain.write_text("batch = 2\n")
        cases = [((), "7", 7), (("--config", str(plain)), "7", 7),
                 (("--config", str(seeded)), "7", 5),
                 (("--config", str(seeded), "--seed", "3"), "7", 3),
                 (("--seed", "3"), "7", 3), ((), None, 0)]
        for i, (flags, env, want) in enumerate(cases):
            if env is None:
                monkeypatch.delenv("SCL_SEED", raising=False)
            else:
                monkeypatch.setenv("SCL_SEED", env)
            out = tmp_path / f"run{i}"
            assert run("pretrain", "--corpus", str(corpus_file), "--out",
                       str(out), "--steps", "0", *flags) == 0
            assert tr.parse_config_file(out / "config.txt")["seed"] \
                == want, flags

    def test_non_integer_scl_seed_is_usage_error(self, monkeypatch, capsys,
                                                 tmp_path):
        monkeypatch.setenv("SCL_SEED", "abc")
        assert run("gen-data", "--out", str(tmp_path / "c.tsv"),
                   "--n", "2") == 2
        err = capsys.readouterr().err
        assert "SCL_SEED" in err and "'abc'" in err
        assert not (tmp_path / "c.tsv").exists()

    def test_non_integer_ablate_seed_is_usage_error(self, capsys, tmp_path):
        csv = tmp_path / "ablate.csv"
        assert run("ablate", "--grid", "objectives", "--out", str(csv),
                   "--steps", "1", "--pairs", "2", "--seeds", "1,x") == 2
        assert "'x'" in capsys.readouterr().err
        assert not csv.exists()
        # a negative seed is refused before any grid point trains
        assert run("ablate", "--grid", "objectives", "--out", str(csv),
                   "--steps", "1", "--pairs", "2", "--seeds", "0,-1") == 2
        assert "'-1'" in capsys.readouterr().err
        assert not csv.exists()


class TestRetrievePinned:
    # eval-retrieval CSV rows of a 2-step-trained checkpoint, recorded
    # before re-ranking read cached fusion prefixes
    PINNED = {
        ("FrameCLS", 1): ["16,0,0.0625,0.3125,0.625,0.0625,0.3125,0.625",
                          "16,8,0.0625,0.3125,0.625,0.0625,0.3125,0.625"],
        ("FrameCLS", 2): ["16,0,0.0625,0.3125,0.625,0.0625,0.3125,0.625",
                          "16,8,0.125,0.3125,0.625,0.0625,0.3125,0.625"],
        ("GlobalCLS", 2): ["16,0,0.0625,0.3125,0.625,0.0625,0.3125,0.625",
                           "16,8,0.0625,0.3125,0.625,0.0625,0.3125,0.625"],
    }

    @pytest.mark.parametrize("variant, m", list(PINNED),
                             ids=["1", "2", "GlobalCLS-2"])
    def test_rows_pinned(self, tmp_path, variant, m):
        cfg = tr.TrainConfig(total_steps=2, batch=4, seed=3, embed_dim=8,
                             heads=2, layers_v=1, layers_t=1, layers_f=2,
                             frames_m=m, phase="video" if m > 1 else "image",
                             variant=variant)
        tr.save_config(cfg, tmp_path / "run.cfg")
        both = sd.generate_corpus(28, frames_m=m, seed=3)
        sd.save_corpus(tmp_path / "train.tsv", both[:12])
        sd.save_corpus(tmp_path / "heldout.tsv", both[12:])
        assert run("pretrain", "--config", str(tmp_path / "run.cfg"),
                   "--corpus", str(tmp_path / "train.tsv"),
                   "--out", str(tmp_path / "run")) == 0
        csv = tmp_path / "r.csv"
        for k in ("0", "8"):
            assert run("eval-retrieval", "--ckpt",
                       str(tmp_path / "run" / "ckpt_final.vlsc"),
                       "--corpus", str(tmp_path / "heldout.tsv"),
                       "--k", k, "--out", str(csv)) == 0
        assert csv.read_text().splitlines()[1:] == self.PINNED[variant, m]
