import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _load(path):
    """Import a script as a module; its __main__ guard keeps main() from running."""
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path):
    assert callable(_load(path).main)


def test_make_demos_reproduces_committed_demos(tmp_path, monkeypatch, capsys):
    module = _load(ROOT / "scripts" / "make_demos.py")
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    committed = sorted((ROOT / "demos").glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in committed]
    for path in committed:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_train_benchmark_runs(monkeypatch, capsys):
    module = _load(ROOT / "scripts" / "train_benchmark.py")
    monkeypatch.setattr("sys.argv", ["train_benchmark.py", "--iterations", "3"])
    module.main()
    assert "shot  terminal" in capsys.readouterr().out
