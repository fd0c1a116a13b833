"""The bundled-season script regenerates data/ byte for byte."""

import sys
from pathlib import Path

from gen_synthetic_season import main

ROOT = Path(__file__).resolve().parent.parent


def test_script_regenerates_the_bundled_season_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["gen_synthetic_season.py", "--out", str(tmp_path)])
    main()
    for name in ("synthetic_season.csv", "synthetic_season.json"):
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes()
