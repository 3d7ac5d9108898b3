import struct

import numpy as np
import pytest

from vlsc import cli
from vlsc import synthdata as sd
from vlsc import trainer as tr


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
}


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
        (("--image-mask-ratio", "1.5", "--steps", "0"), ""),
        (("--no-cl", "--no-vtm", "--no-mlm", "--no-scl"), ""),
    ], ids=["heads", "patch-size", "embed-dim", "layers-v", "not-utf8",
            "mask-ratio", "no-objective"])
    def test_bad_config_writes_nothing(self, tmp_path, corpus_file, flags,
                                       config):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(config.encode("utf-8", "surrogateescape"))
        out = tmp_path / "run"
        assert run("pretrain", "--corpus", str(corpus_file), "--out",
                   str(out), "--config", str(cfg), *flags) == 2
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
        assert args.seed == 77

    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("SCL_SEED", "77")
        args = cli.build_parser().parse_args(["gradcheck", "--seed", "3"])
        assert args.seed == 3
