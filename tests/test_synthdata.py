import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vlsc import synthdata as sd
from vlsc.errors import InputError, VlscError, VocabError


class TestVocab:
    def test_reserved_ids_fixed(self):
        assert sd.VOCAB.id("[PAD]") == 0
        assert sd.VOCAB.id("[CLS]") == 1
        assert sd.VOCAB.id("[MASK]") == 2

    def test_size(self):
        assert sd.V_VOCAB == 64
        sd.VOCAB.word(sd.V_VOCAB - 1)
        with pytest.raises(VocabError):
            sd.VOCAB.word(sd.V_VOCAB)

    def test_bijective(self):
        words = [sd.VOCAB.word(i) for i in range(sd.V_VOCAB)]
        assert len(set(words)) == len(words)
        assert all(sd.VOCAB.id(w) == i for i, w in enumerate(words))

    def test_unknown_word(self):
        with pytest.raises(VocabError):
            sd.VOCAB.id("zebra")


class TestTokenize:
    def test_empty_string(self):
        ids = sd.tokenize("")
        assert ids[0] == sd.CLS_ID
        assert np.all(ids[1:] == sd.PAD_ID)
        assert len(ids) == sd.K_MAX

    def test_red_square(self):
        ids = sd.tokenize("red square")
        assert ids[0] == sd.CLS_ID
        assert ids[1] == sd.VOCAB.id("red")
        assert ids[2] == sd.VOCAB.id("square")
        assert np.all(ids[3:] == sd.PAD_ID)

    def test_truncation(self):
        ids = sd.tokenize("red " * (sd.K_MAX - 1))
        assert len(ids) == sd.K_MAX and np.all(ids != sd.PAD_ID)
        with pytest.raises(InputError, match=f"{sd.K_MAX} words"):
            sd.tokenize("red " * sd.K_MAX)

    @pytest.mark.parametrize("word", sd.RESERVED)
    def test_reserved_word_refused(self, word):
        with pytest.raises(VocabError, match="reserved"):
            sd.tokenize(f"red {word} square")

    def test_roundtrip_exhaustive_over_grammar(self):
        # every caption the template grammar can emit survives the trip
        per_quad = list(itertools.product(sd.COLORS, sd.SHAPES))
        count = 0
        for k in (1, 2, 3):
            for quads in itertools.combinations(range(4), k):
                for combo in itertools.product(per_quad, repeat=k):
                    metas = [sd.ShapeMeta(shape=s, color=c, quadrant=q)
                             for (c, s), q in zip(combo, quads)]
                    for direction in (None,) + sd.DIRECTIONS:
                        text = sd.scene_caption(metas, direction)
                        assert sd.detokenize(sd.tokenize(text)) == text
                        count += 1
        assert count == (4 * 9 + 6 * 81 + 4 * 729) * 5


class TestGeneration:
    def test_determinism(self):
        a = sd.generate_corpus(4, frames_m=2, seed=7)
        b = sd.generate_corpus(4, frames_m=2, seed=7)
        for x, y in zip(a, b):
            assert x.scene_id == y.scene_id
            np.testing.assert_array_equal(x.frames, y.frames)
            np.testing.assert_array_equal(x.caption, y.caption)

    def test_single_frame_default(self):
        corpus = sd.generate_corpus(5, frames_m=1, seed=0)
        assert all(s.frames.shape == (1, 3, 16, 16) for s in corpus)

    def test_pixel_range_and_caption_invariants(self):
        for s in sd.generate_corpus(20, frames_m=4, seed=3):
            assert s.frames.min() >= 0.0 and s.frames.max() <= 1.0
            assert s.caption[0] == sd.CLS_ID
            body = s.caption[1:]
            real = body[body != sd.PAD_ID]
            assert sd.MASK_ID not in real and sd.CLS_ID not in real
            # pads only as a suffix
            pad_positions = np.flatnonzero(body == sd.PAD_ID)
            if pad_positions.size:
                assert pad_positions[0] + pad_positions.size == body.size

    def test_captions_unique(self):
        corpus = sd.generate_corpus(64, frames_m=1, seed=1)
        keys = {s.caption.tobytes() for s in corpus}
        assert len(keys) == 64

    def test_caption_fits_k_max(self):
        # worst case: 3 shapes, video -> 15 words + [CLS] == K_MAX
        for s in sd.generate_corpus(200, frames_m=4, seed=9):
            assert len(s.caption) == sd.K_MAX

    @given(st.integers(0, 2 ** 40), st.sampled_from([1, 4]))
    @settings(max_examples=40, deadline=None)
    def test_scene_quadrant_mass_predicate(self, scene_id, frames_m):
        # each shape's own pixel mass lies >=60% inside its stated quadrant
        # (here: 100%, by direct accounting of a solo re-render)
        metas, direction, offsets = sd.scene_meta(scene_id, frames_m)
        for meta, offset in zip(metas, offsets):
            solo = np.zeros((frames_m, 3, 16, 16))
            sd.render_shape(solo, meta, offset, direction)
            channel = sd.COLORS.index(meta.color)
            total = solo[:, channel].sum()
            assert total > 0
            r0 = (meta.quadrant // 2) * 8
            c0 = (meta.quadrant % 2) * 8
            inside = solo[:, channel, r0:r0 + 8, c0:c0 + 8].sum()
            assert inside / total >= 0.6

    def test_red_square_top_left_in_full_sample(self):
        # find a single-shape sample and check the full rendered canvas
        found = 0
        for scene_id in range(400):
            metas, direction, offsets = sd.scene_meta(scene_id, 1)
            if len(metas) != 1:
                continue
            found += 1
            sample = sd.generate_sample(scene_id, 1)
            meta = metas[0]
            channel = sd.COLORS.index(meta.color)
            r0 = (meta.quadrant // 2) * 8
            c0 = (meta.quadrant % 2) * 8
            total = sample.frames[:, channel].sum()
            inside = sample.frames[:, channel, r0:r0 + 8, c0:c0 + 8].sum()
            assert inside / total >= 0.6
        assert found > 20

    def test_video_motion_moves_mass(self):
        # frames differ and the centroid drifts in the stated direction
        moved = 0
        for scene_id in range(200):
            metas, direction, offsets = sd.scene_meta(scene_id, 4)
            sample = sd.generate_sample(scene_id, 4)
            first, last = sample.frames[0], sample.frames[-1]
            if np.array_equal(first, last):
                continue
            moved += 1
            dr, dc = sd._VELOCITY[direction]
            grid_r, grid_c = np.mgrid[0:16, 0:16]
            m0, m1 = first.sum(axis=0), last.sum(axis=0)
            cr0 = (grid_r * m0).sum() / m0.sum()
            cr1 = (grid_r * m1).sum() / m1.sum()
            cc0 = (grid_c * m0).sum() / m0.sum()
            cc1 = (grid_c * m1).sum() / m1.sum()
            if dr:
                assert np.sign(cr1 - cr0) == dr
            if dc:
                assert np.sign(cc1 - cc0) == dc
        assert moved > 100

    def test_bad_args(self):
        with pytest.raises(InputError):
            sd.generate_corpus(0)
        with pytest.raises(InputError):
            sd.generate_sample(1, 0)


class TestCorpusIO:
    def test_roundtrip(self, tmp_path):
        corpus = sd.generate_corpus(6, frames_m=2, seed=5)
        path = tmp_path / "corpus.tsv"
        sd.save_corpus(path, corpus)
        loaded = sd.load_corpus(path)
        assert len(loaded) == len(corpus)
        for a, b in zip(corpus, loaded):
            assert a.scene_id == b.scene_id
            np.testing.assert_array_equal(a.frames, b.frames)
            np.testing.assert_array_equal(a.caption, b.caption)

    @pytest.mark.parametrize("edit", [
        lambda c: c.__setitem__(2, sd.MASK_ID),   # a reserved word
        lambda c: c.__setitem__(3, sd.CLS_ID),
        lambda c: c.__setitem__(0, sd.VOCAB.id("red")),  # no [CLS]
        lambda c: c.__setitem__(2, sd.PAD_ID),    # a word after [PAD]
    ], ids=["mask", "cls", "no-cls", "interior-pad"])
    def test_caption_tokenize_cannot_make_is_not_saved(self, tmp_path,
                                                       edit):
        # a caption save_corpus wrote would not load, or load changed
        path = tmp_path / "corpus.tsv"
        corpus = sd.generate_corpus(3, seed=5)
        sd.save_corpus(path, corpus)
        old = path.read_bytes()
        assert np.count_nonzero(corpus[1].caption) >= 4
        edit(corpus[1].caption)
        with pytest.raises(VocabError):
            sd.save_corpus(path, corpus)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.tsv"]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t1\tred square\n")
        with pytest.raises(InputError):
            sd.load_corpus(path)

    def test_wrong_pixel_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t1\tred square\t0.0 1.0\n")
        with pytest.raises(InputError):
            sd.load_corpus(path)

    def test_out_of_range_pixmarked(self, tmp_path):
        path = tmp_path / "bad.tsv"
        vals = " ".join(["2.0"] * (3 * 16 * 16))
        path.write_text(f"1\t1\tred square\t{vals}\n")
        with pytest.raises(InputError):
            sd.load_corpus(path)


# any bytes given to load_corpus must give a list of samples or a VlscError

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzzCorpus:
    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("corpus") / "c.tsv"
        sd.save_corpus(path, sd.generate_corpus(2, seed=1))
        return path.read_bytes()

    def check(self, path):
        try:
            corpus = sd.load_corpus(path)
        except VlscError:
            return
        for s in corpus:
            assert s.frames.shape == corpus[0].frames.shape
            assert np.all((s.frames >= 0.0) & (s.frames <= 1.0))

    @FUZZ
    @given(data=st.binary(max_size=300))
    def test_any_bytes(self, tmp_path, data):
        path = tmp_path / "c.tsv"
        path.write_bytes(data)
        self.check(path)

    @FUZZ
    @given(edits=st.lists(st.tuples(st.integers(0, 2 ** 20),
                                    st.integers(0, 255)), max_size=4),
           cut=st.integers(0, 2 ** 20))
    def test_mutated_file(self, tmp_path, valid, edits, cut):
        data = bytearray(valid)
        for pos, val in edits:
            data[pos % len(data)] = val
        path = tmp_path / "c.tsv"
        path.write_bytes(bytes(data[:cut]))
        self.check(path)

    @FUZZ
    @given(field=st.integers(0, 3), line=st.integers(0, 1),
           raw=st.text(max_size=12).filter(lambda t: "\n" not in t))
    def test_any_field(self, tmp_path, valid, field, line, raw):
        lines = valid.decode().splitlines()
        cells = lines[line].split("\t")
        cells[field] = raw
        lines[line] = "\t".join(cells)
        path = tmp_path / "c.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.check(path)
