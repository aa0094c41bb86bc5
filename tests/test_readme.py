"""The README's code runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_prints_its_closed_forms(capsys):
    # normalization 3, yield 3/256, fidelity 1, doubled yield 3/16 and a
    # 4-fold fringe; each printed value and each comment's first number
    # must match them to 1e-12 relative
    section = README.read_text(encoding="utf-8").split(
        "## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    printed = [float(x) for x in capsys.readouterr().out.split()]
    noted = [float(line.split("#", 1)[1].split()[0])
             for line in code.splitlines() if line.startswith("print(")]
    exact = [3.0, 3 / 256, 1.0, 3 / 16, 4.0]
    assert len(printed) == len(noted) == len(exact)
    for got, note, value in zip(printed, noted, exact):
        assert abs(got - value) <= 1e-12 * value
        assert abs(note - value) <= 1e-12 * value
