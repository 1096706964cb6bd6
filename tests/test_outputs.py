"""Every analytic output of the command line, pinned.

`reproduce fig3`..`fig8`, the default `budget` and `spectrum`, and a small
detuned `sweep` with its `run_manifest.json` are regenerated under a
temporary directory and compared with `tests/data/outputs.json`: the set of
files, each file's line count and every ``EVERY``-th data row of each CSV,
to 1e-12 relative, always; each file's sha256 only under the numpy version
the pins were written with, since another numpy may round a last printed
digit differently (its `log10` and `exp`, for one).

After an intended change of the output, rewrite the pins with

    PYTHONPATH=src python tests/test_outputs.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import magnon_sense.cli as cli

PINS = Path(__file__).with_name("data") / "outputs.json"

#: data rows between the sampled rows of a CSV
EVERY = 50

#: largest relative move of a sampled value
REL_TOL = 1e-12

#: each command's arguments, its output path relative to the output root
COMMANDS = [
    *[["reproduce", f"fig{n}", "--outdir", "figures"] for n in range(3, 9)],
    ["budget", "--out", "budget.csv"],
    ["spectrum", "--out", "spectrum.csv"],
    # the two cavity columns of the response's elimination, k3 != 0
    ["sweep", "--quantity", "spectrum", "--rm", "1.5", "--reservoir", "1.5,3.141592653589793",
     "--axis", "delta_a_hz=-4.5e7,3e6", "--axis", "kappa_a_hz=1e7,3e7", "--grid-points", "101",
     "--outdir", "sweep"],
]


def generate(root: Path) -> dict:
    """Run every command with its outputs under ``root``, and return each
    file's pin by its path relative to ``root``: sha256, line count and,
    for a CSV, every ``EVERY``-th data row as written."""
    for argv in COMMANDS:
        argv = [str(root / arg) if i > 0 and argv[i - 1] in ("--out", "--outdir") else arg
                for i, arg in enumerate(argv)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    pins = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        lines = data.decode().splitlines()
        pin = {"sha256": hashlib.sha256(data).hexdigest(), "lines": len(lines)}
        if path.suffix == ".csv":
            # a params hash line and a column header precede the rows
            pin["sample"] = lines[2::EVERY]
        pins[path.relative_to(root).as_posix()] = pin
    return pins


def moved(name: str, got: dict, pinned: dict, hashes: bool) -> str | None:
    """What moved in file ``name``, or None."""
    if got["lines"] != pinned["lines"]:
        return f"{name}: {got['lines']} lines, pinned {pinned['lines']}"
    if "sample" in pinned:
        old = np.array([[float(v) for v in row.split(",")] for row in pinned["sample"]])
        new = np.array([[float(v) for v in row.split(",")] for row in got["sample"]])
        if new.shape != old.shape:
            return f"{name}: sampled rows of shape {new.shape}, pinned {old.shape}"
        rel = np.abs(new - old) / np.maximum(np.abs(old), np.abs(new)).clip(min=1e-300)
        if (rel > REL_TOL).any():
            return (f"{name}: {int((rel > REL_TOL).sum())} of {rel.size} sampled values "
                    f"moved, by up to {rel.max():.3g} relative")
    if hashes and got["sha256"] != pinned["sha256"]:
        return f"{name}: sha256 differs, every sampled value within {REL_TOL:g}"
    return None


def test_every_analytic_output_is_pinned(tmp_path):
    pins = json.loads(PINS.read_text())
    got = generate(tmp_path)
    missing, extra = sorted(set(pins["files"]) - set(got)), sorted(set(got) - set(pins["files"]))
    assert not (missing or extra), f"pinned files not written: {missing}; not pinned: {extra}"
    hashes = np.__version__ == pins["numpy"]
    problems = [moved(name, got[name], pin, hashes) for name, pin in pins["files"].items()]
    problems = [p for p in problems if p]
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write   (rewrites {PINS.name})")
    with tempfile.TemporaryDirectory() as tmp:
        files = generate(Path(tmp))
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps({"numpy": np.__version__, "files": files}, indent=1) + "\n")
    print(f"wrote {len(files)} pins to {PINS}")
