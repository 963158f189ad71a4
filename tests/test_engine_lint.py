"""Engine knobs live in ``HbiConfig``, never in environment variables: the
sketch engine's modules must not read the process environment (media
codecs are out of scope)."""

from __future__ import annotations

import re
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / \
    "hierarchical_bloom_filter_index_ray"
ENGINE = [PKG / "config.py",
          *sorted((PKG / "state").glob("*.py")),
          *sorted((PKG / "stages").glob("*.py")),
          *(PKG / "pipelines" / f"{m}.py"
            for m in ("build_index", "query_index", "super_index",
                      "planner"))]
ENV_READ = re.compile(r"os\.environ|environ\.get|getenv")


def test_engine_modules_read_no_environment():
    assert all(p.exists() for p in ENGINE)
    hits = [f"{p.relative_to(PKG)}:{i}: {line.strip()}"
            for p in ENGINE
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if ENV_READ.search(line)]
    assert not hits, "environment reads in engine modules:\n" + \
        "\n".join(hits)
