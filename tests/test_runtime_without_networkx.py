"""The runtime needs numpy only.

Each check runs in a fresh interpreter whose import system refuses
``networkx``: the overlay metrics, the f+1-overlays baseline and the
connectivity graph must work there, and ``repro serve`` must boot to a
healthy service without loading networkx or the fuzzer.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

REFUSE_NETWORKX = """
import importlib.abc
import sys


class RefuseNetworkx(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "networkx":
            raise ModuleNotFoundError(f"{name} is refused", name=name)
        return None


sys.meta_path.insert(0, RefuseNetworkx())
"""

EXPERIMENTS = """
from repro.mobility import connectivity_graph
from repro.radio.geometry import Position
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.workloads.scenarios import ScenarioConfig

fast = dict(scenario=ScenarioConfig(n=12, seed=2), message_count=2,
            message_interval=1.0, warmup=5.0, drain=8.0)
byzcast = run_experiment(ExperimentConfig(**fast))
assert byzcast.overlay_quality is not None
assert byzcast.overlay_quality.correct_overlay_connected
multi = run_experiment(ExperimentConfig(protocol="multi_overlay", **fast))
assert multi.delivery_ratio > 0.9, multi.delivery_ratio
adjacency = connectivity_graph(
    [Position(0, 0), Position(50, 0), Position(200, 0)], 100.0)
assert adjacency == {0: [1], 1: [0], 2: []}, adjacency
print(sorted(name for name in sys.modules if name.startswith("networkx")))
"""

SERVE = """
from repro.cli import main

code = main(["serve", "--dir", sys.argv[1], "--port", "0",
             "--workers", "1"])
print(json.dumps(sorted(name for name in sys.modules
                        if name.partition(".")[0] == "networkx"
                        or name.startswith("repro.fuzz"))))
sys.exit(code)
"""


def _python(code):
    return [sys.executable, "-c", REFUSE_NETWORKX + "import json\n" + code]


def _env():
    return dict(os.environ, PYTHONPATH=SRC)


def test_the_finder_refuses_networkx():
    run = subprocess.run(_python("import networkx"), env=_env(),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode != 0
    assert "networkx is refused" in run.stderr


def test_experiments_run_without_networkx():
    run = subprocess.run(_python(EXPERIMENTS), env=_env(),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_serve_boots_without_networkx_or_the_fuzzer(tmp_path):
    server = subprocess.Popen(
        _python(SERVE) + [str(tmp_path / "svc")], env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline()
        assert banner.startswith("listening on "), (
            banner + server.stderr.read())
        health = banner[len("listening on "):].strip() + "/api/health"
        deadline = time.monotonic() + 60
        while True:
            try:
                with urllib.request.urlopen(health, timeout=5) as response:
                    assert response.status == 200
                    break
            except urllib.error.URLError:
                assert time.monotonic() < deadline, "no /api/health 200"
                time.sleep(0.05)
        server.send_signal(signal.SIGTERM)
        out, err = server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0, err
    assert json.loads(out.splitlines()[-1]) == []
