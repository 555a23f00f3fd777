import pytest

from ilkit.corpus import corpus_models, load
from ilkit.frameio import FrameFormatError, load_model, parse_frame_text, to_dot
from ilkit.frames import Model, WorldSet, chain, validate
from ilkit.limits import WORLDS_LIMIT

from helpers import model_to_text, random_frame


SAMPLE = """\
# a three-world chain with one valuation
worlds 3
R 0 1
R 1 2          # closure adds R 0 2 and the S structure
val p 1
val q 2
"""


def test_parse_sample():
    m = parse_frame_text(SAMPLE)
    assert m.frame == chain(3)
    assert m.ev == {"p": WorldSet(3, 0b010), "q": WorldSet(3, 0b100)}


def test_parse_closure_off_requires_legal_file():
    good = "worlds 2\noption closure off\nR 0 1\nS 0 1 1\n"
    m = parse_frame_text(good)
    assert m.frame == chain(2)
    bad = "worlds 2\noption closure off\nR 0 1\n"
    with pytest.raises(FrameFormatError) as err:
        parse_frame_text(bad)
    assert "S-reflexive" in str(err.value)


def test_parse_error_reports_line():
    text = "worlds 2\nR 0 1\nR 0 one\n"
    with pytest.raises(FrameFormatError) as err:
        parse_frame_text(text)
    assert "line 3" in str(err.value)
    for broken in ["", "R 0 1\n", "worlds 0\n", "worlds 2\noption closure maybe\n",
                   "worlds 2\nQ 0 1\n", "worlds 2\nR 0 1 2\n"]:
        with pytest.raises(FrameFormatError):
            parse_frame_text(broken)


@pytest.mark.parametrize("bad", [
    "R", "R 0", "R 0 1 2", "R 0 x", "R 1.0 0",
    "S", "S 0 1", "S 0 1 2 3", "S 0 1 y", "S z 1 1",
    "worlds", "worlds 2 3", "worlds 0", "worlds -1", "worlds two",
    "option", "option closure", "option closure maybe", "option loops on",
    "option closure on off", "Q 0 1", "r 0 1", "val",
])
def test_frame_file_errors_name_their_line(bad):
    for line in (bad, f"  {bad}\t# with a comment"):
        text = f"# a header comment\n\nworlds 2\n   \nR 0 1\n{line}\nS 0 1 1\n"
        with pytest.raises(FrameFormatError) as err:
            parse_frame_text(text)
        assert str(err.value) == f"line 6: cannot read {line!r}"


def test_frame_file_whole_file_errors():
    for text, message in [
            ("", "missing 'worlds' directive"),
            ("# only a comment\n\nR 0 1\n", "missing 'worlds' directive"),
            (f"worlds {WORLDS_LIMIT + 1}\n",
             f"{WORLDS_LIMIT + 1} worlds exceeds the limit of {WORLDS_LIMIT}"),
            ("worlds 2\nR 0 2\n", "R pair (0,2) out of range"),
            ("worlds 2\nR 2 0\n", "R pair (2,0) out of range"),
            ("worlds 2\nS 0 0 2\n", "S triple (0,0,2) out of range"),
            ("worlds 2\nS 0 2 0\n", "S triple (0,2,0) out of range"),
            ("worlds 2\nS 2 0 0\n", "S triple (2,0,0) out of range")]:
        with pytest.raises(FrameFormatError) as err:
            parse_frame_text(text)
        assert str(err.value) == message


def test_comments_and_blank_lines_are_skipped():
    text = ("# header\n\n   \n\t# indented comment\nworlds 3# no space\n"
            "R 0 1 # trailing\n#R 0 2\nR 1 2\n\nval p 1 # p\nval q 2\n")
    m = parse_frame_text(text)
    assert m.frame == chain(3)
    assert m.ev == {"p": WorldSet(3, 0b010), "q": WorldSet(3, 0b100)}


def test_parse_rejects_cycle_and_stray_seed():
    with pytest.raises(FrameFormatError) as err:
        parse_frame_text("worlds 2\nR 0 1\nR 1 0\n")
    assert "cycle" in str(err.value)
    with pytest.raises(FrameFormatError):
        parse_frame_text("worlds 3\nR 0 1\nS 0 1 2\n")


def test_val_lines_accumulate():
    m = parse_frame_text("worlds 3\nR 0 1\nval p 0\nval p 2\nval q\n")
    assert m.ev_set("p") == WorldSet(3, 0b101)
    assert m.ev_set("q") == WorldSet.empty(3)


def test_text_roundtrip_random_models():
    for seed in range(12):
        fr = random_frame(4, seed)
        m = Model(fr, {"p": WorldSet(4, seed % 16), "q": WorldSet(4, 0b1001)})
        again = parse_frame_text(model_to_text(m))
        assert again.frame == fr
        assert again.ev == m.ev


def test_load_model_and_frame(tmp_path):
    path = tmp_path / "sample.vf"
    path.write_text(SAMPLE)
    assert load_model(path).frame == chain(3)


def test_to_dot_mentions_everything():
    m = parse_frame_text(SAMPLE)
    dot = to_dot(m, name="sample")
    assert dot.startswith("digraph sample {")
    assert '1 [label="1: p"];' in dot
    assert "0 -> 1;" in dot
    assert 'label="S(0)"' in dot
    bare = to_dot(chain(2))
    assert '0 [label="0"];' in bare


def test_corpus_loads_and_validates():
    names = [name for name, _ in corpus_models()]
    assert names == sorted(names)
    assert "chain2" in names and "pencil-good1" in names
    assert len(names) == 9
    for name, m in corpus_models():
        assert validate(m.frame).ok, name
    assert load("chain2").frame == chain(2)
    with pytest.raises(KeyError):
        load("no-such-frame")
