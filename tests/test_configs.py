"""Every config in scripts/configs/ loads and runs, cut to a short T and
two seeds, with no seed diverging; the sweep configs also run through
`decminimax sweep` over the key their header comment varies, with one
output line per value."""

from pathlib import Path

import pytest
import yaml

from decminimax import StrategyKind, cli, harness

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"

# the sweep each config's header comment gives, at a short T
SWEEPS = {
    "storm_rate.yaml": ("T", "10,20"),
    "strategies_offline.yaml": ("strategy",
                                ",".join(k.value for k in StrategyKind)),
}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
def test_config_runs(tmp_path, capsys, name):
    raw = yaml.safe_load((CONFIGS / name).read_text())
    raw["T"] = min(raw["T"], 20)
    raw["seeds"] = raw["seeds"][:2]
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    result = harness.run_experiment(harness.load_config(path))
    assert result.failures == {}
    if name in SWEEPS:
        key, values = SWEEPS[name]
        assert cli.main(["sweep", "--config", str(path), "--vary",
                         f"{key}={values}", "--out",
                         str(tmp_path / "sweep")]) == 0
        captured = capsys.readouterr()
        assert "diverged" not in captured.err
        assert [line.split(":")[0] for line in captured.out.splitlines()] \
            == [f"{key}={v}" for v in values.split(",")]
