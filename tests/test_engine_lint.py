"""Knobs live in ``HbiConfig`` or module constants, never in environment
variables: no module of the package may read the process environment."""

from __future__ import annotations

import re
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / \
    "hierarchical_bloom_filter_index_ray"
ENV_READ = re.compile(r"os\.environ|environ\.get|getenv")


def test_engine_modules_read_no_environment():
    modules = sorted(PKG.rglob("*.py"))
    assert len(modules) > 20
    hits = [f"{p.relative_to(PKG)}:{i}: {line.strip()}"
            for p in modules
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if ENV_READ.search(line)]
    assert not hits, "environment reads in the package:\n" + \
        "\n".join(hits)
