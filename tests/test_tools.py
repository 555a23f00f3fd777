import importlib.util
from pathlib import Path

MUTATE = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"


TOY = "def add(a, b):\n    return a + b\n\n\ndef small(x):\n    return x < 10\n"
# nothing tests small(10), so ``x <= 10`` is the one survivor
TOY_TESTS = ("from toy import add, small\n\n\n"
             "def test_toy():\n"
             "    assert add(2, 3) == 5\n"
             "    assert small(3) and not small(20)\n")


def test_mutate_finds_the_planted_survivor(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "toy.py").write_text(TOY)
    (tmp_path / "tests" / "test_toy.py").write_text(TOY_TESTS)
    spec = importlib.util.spec_from_file_location("mutate", MUTATE)
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    survivors = mutate.run(tmp_path, "src/toy.py", ["tests/test_toy.py"])
    assert survivors == [(6, "return x < 10", "Lt -> LtE")]
    out = capsys.readouterr().out
    assert "  killed     src/toy.py:2 Add -> Sub: return a + b\n" in out
    assert "toy: 2 of 2 sites" in out and "toy: 1 unexplained survivors" in out
    assert (tmp_path / "src" / "toy.py").read_text() == TOY
