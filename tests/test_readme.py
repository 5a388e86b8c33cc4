"""README's library tour runs as written."""

from pathlib import Path


def test_library_tour_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "begin_session(" in tour
    exec(compile(tour, "README.md", "exec"), {})
