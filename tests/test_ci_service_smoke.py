"""The ``service-smoke`` CI job, run against a gateway process started here."""

import os

from ci import service_smoke

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_serve_storm_drain(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PYTHONPATH", os.path.join(REPO, "src"))
    assert service_smoke.main([str(tmp_path / "port.txt")]) == 0
    assert "service smoke OK" in capsys.readouterr().out
