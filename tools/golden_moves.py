"""How far the committed golden reports move under the code in this tree.

Regenerates demo 05's reports (``demos/out/*.json`` and ``*.csv``) and the
nine CLI reports of ``demos/out/cli`` into a temporary directory and compares
each with its committed file.  Prints one line per file: "identical" when
the bytes match, else the largest relative move of a number,
|new - old| / max(1, |old|) (the measure ``tests/test_golden.py`` bounds by
1e-12), or what differs besides numbers, such as a key or a verdict.
Nothing under ``demos/out`` is written.

Run from anywhere: ``python tools/golden_moves.py``.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from minkgeom import cli  # noqa: E402


def _demo05(out: Path):
    """Run demo 05 with its reports written under ``out``."""
    spec = importlib.util.spec_from_file_location(
        "demo05", ROOT / "demos" / "05_isoparametric_verification.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = str(out)
    with contextlib.redirect_stdout(io.StringIO()):
        module.main()


def _cli(out: Path):
    """Each committed CLI report's command on its config, written under ``out``."""
    for golden in sorted((ROOT / "demos" / "out" / "cli").glob("*.json")):
        command, config = golden.stem.split("-", 1)
        run_dir = out / golden.stem
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([command, str(ROOT / "demos" / "configs" / f"{config}.json"),
                      "--out", str(run_dir)])
        (report,) = run_dir.glob("*.json")
        report.replace(out / golden.name)


def _move(new, old, path="$") -> float:
    """The largest relative move of a number between two parsed reports;
    raises ValueError naming the first place where they differ otherwise."""
    if isinstance(old, dict):
        if not isinstance(new, dict) or sorted(new) != sorted(old):
            raise ValueError(f"keys differ at {path}")
        return max((_move(new[k], old[k], f"{path}.{k}") for k in old), default=0.0)
    if isinstance(old, list):
        if not isinstance(new, list) or len(new) != len(old):
            raise ValueError(f"lengths differ at {path}")
        return max((_move(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(new, old))),
                   default=0.0)
    if isinstance(old, (bool, str)) or old is None:
        if new != old or type(new) is not type(old):
            raise ValueError(f"{new!r} for {old!r} at {path}")
        return 0.0
    return abs(new - old) / max(1.0, abs(old))


def _csv_cells(text: str) -> list:
    """The rows of a report CSV with each numeric cell as a float."""
    def cell(v):
        try:
            return float(v)
        except ValueError:
            return v
    return [[cell(v) for v in row] for row in csv.reader(io.StringIO(text))]


def compare(new: Path, old: Path) -> str:
    new_text, old_text = new.read_text(), old.read_text()
    if new_text == old_text:
        return "identical"
    parse = json.loads if old.suffix == ".json" else _csv_cells
    try:
        move = _move(parse(new_text), parse(old_text))
    except ValueError as exc:
        return f"differs: {exc}"
    if move == 0.0:
        return "numbers equal, text differs (the sign of a zero or a number's spelling)"
    return f"largest relative move {move:.3g}"


def main() -> int:
    golden = ROOT / "demos" / "out"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "cli").mkdir()
        _demo05(out)
        _cli(out / "cli")
        files = sorted(golden.glob("*.json")) + sorted(golden.glob("*.csv"))
        files += sorted((golden / "cli").glob("*.json"))
        for old in files:
            new = out / old.relative_to(golden)
            verdict = compare(new, old) if new.exists() else "not regenerated"
            print(f"{old.relative_to(ROOT)}: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
