#!/usr/bin/env python3
"""Regenerate all reference CSV/JSON artifacts into an output directory.

Covers the LC circuit and the shorted tapped transmission line: transfer
magnitude, alpha/beta ratio, optimal spectral density, capacity-power sweep,
and the reference spectral-efficiency table.

Usage: python scripts/reproduce_results.py [outdir]
"""

import argparse
import json
import sys
from pathlib import Path

from rclink.cli import main as rclink_main
from rclink.config import DEFAULT_CONFIG, DEFAULT_TLINE_BAND, DEFAULT_TLINE_CHANNEL


def run(outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)

    tline_doc = json.loads(json.dumps(DEFAULT_CONFIG))
    tline_doc["channel"] = dict(DEFAULT_TLINE_CHANNEL)
    tline_doc["band"] = dict(DEFAULT_TLINE_BAND)
    tline_config = outdir / "tline_config.json"
    tline_config.write_text(json.dumps(tline_doc, indent=2))

    jobs = [
        ["table1", "--out", str(outdir / "table1.csv")],
        ["transfer", "--out", str(outdir / "lc_transfer.csv")],
        ["ratio", "--out", str(outdir / "lc_ratio.csv")],
        ["waterfill", "--out", str(outdir / "lc_spectral_density.csv")],
        ["sweep", "--out", str(outdir / "lc_sweep.csv")],
        ["transfer", "--config", str(tline_config), "--out", str(outdir / "tline_transfer.csv")],
        ["ratio", "--config", str(tline_config), "--out", str(outdir / "tline_ratio.csv")],
        ["waterfill", "--config", str(tline_config), "--out", str(outdir / "tline_spectral_density.csv")],
        ["sweep", "--config", str(tline_config), "--out", str(outdir / "tline_sweep.csv")],
        ["verify"],
    ]
    for argv in jobs:
        print("$ rclink " + " ".join(argv))
        status = rclink_main(argv)
        if status != 0:
            return status
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", type=Path, default=Path("results"),
                        help="directory for the artifacts (default: results)")
    sys.exit(run(parser.parse_args().outdir))
