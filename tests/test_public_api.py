"""The public API surface: imports, README snippet, and __all__ hygiene."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Runs in a child interpreter: networkx is no dependency at all, so
#: importing and running the package must not touch it.
_IMPORT_PROBE = """
import sys
{block}
import repro, repro.fleet, repro.experiments.cli
from repro import PolicyConfig, ScenarioConfig, build_trace, run_paired
from repro.units import DAY
trace = build_trace(ScenarioConfig(duration=2 * DAY), seed=42)
print(run_paired(trace, PolicyConfig.unified()).metrics.describe())
assert "networkx" not in sys.modules or sys.modules["networkx"] is None
"""


def _run_import_probe(block: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(block=block)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestOptionalNetworkx:
    """Guards against networkx creeping back in as a hidden dependency."""

    def test_imports_and_quickstart_work_without_networkx(self):
        # sys.modules[name] = None makes `import networkx` raise
        # ImportError, i.e. a machine with only the declared numpy.
        out = _run_import_probe('sys.modules["networkx"] = None')
        assert "waste" in out and "loss" in out

    def test_importing_the_package_does_not_load_networkx(self):
        _run_import_probe("")


class TestSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_readme_quickstart_runs(self):
        """The exact snippet from README.md, at reduced duration."""
        from repro import PolicyConfig, ScenarioConfig, build_trace, run_paired
        from repro.units import DAY

        config = ScenarioConfig(duration=20 * DAY)
        trace = build_trace(config, seed=42)
        result = run_paired(trace, PolicyConfig.unified())
        text = result.metrics.describe()
        assert "waste" in text
        assert "loss" in text
        assert result.metrics.waste < 0.2
        assert result.metrics.loss < 0.2

    def test_key_types_importable_from_root(self):
        from repro import (  # noqa: F401
            AdHocNetwork,
            DeliverySchedule,
            DeviceGroup,
            DiurnalProfile,
            QuietHours,
            load_trace,
            save_trace,
        )

    def test_subpackages_import_cleanly(self):
        import repro.broker  # noqa: F401
        import repro.device  # noqa: F401
        import repro.experiments  # noqa: F401
        import repro.fleet  # noqa: F401
        import repro.metrics  # noqa: F401
        import repro.proxy  # noqa: F401
        import repro.sim  # noqa: F401
        import repro.workload  # noqa: F401
