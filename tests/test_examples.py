"""Smoke tests that the example scripts run end to end.

The quickstart and domain scenarios must execute without errors; the full
paper-reproduction driver is exercised through its building blocks in
``test_tables.py`` / ``test_figures.py`` (running it here would duplicate that
work), so this module only checks that it imports and exposes a ``main``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load_module(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_directory_contains_required_scripts(self):
        names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert {"quickstart.py", "social_network_maintenance.py",
                "streaming_window.py", "temporal_replay.py",
                "reproduce_paper.py", "service_demo.py"} <= names

    def test_quickstart_runs(self, capsys):
        module = _load_module("quickstart")
        module.main()
        output = capsys.readouterr().out
        assert "DyTwoSwap accuracy" in output
        assert "Theorem 2" in output

    def test_social_network_example_runs(self, capsys):
        module = _load_module("social_network_maintenance")
        module.main()
        output = capsys.readouterr().out
        assert "DyTwoSwap" in output
        assert "DGTwoDIS" in output

    def test_streaming_window_example_runs(self, capsys):
        module = _load_module("streaming_window")
        module.main()
        output = capsys.readouterr().out
        assert "per-update latency" in output

    def test_temporal_replay_example_runs(self, capsys):
        module = _load_module("temporal_replay")
        module.main()
        output = capsys.readouterr().out
        assert "cache: first ingest miss, second ingest hit" in output

    def test_service_demo_example_runs(self, capsys):
        module = _load_module("service_demo")
        module.main()
        output = capsys.readouterr().out
        assert "act 1: ingested 192 updates" in output
        assert "act 2: engine crashed" in output
        assert "bit-identical engine: True" in output

    def test_reproduce_paper_module_importable(self):
        module = _load_module("reproduce_paper")
        assert callable(module.main)
        assert callable(module.show)
