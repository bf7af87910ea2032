"""Golden stdout of the CLI's batch commands.

``repro run``, ``compare``, ``arena compare`` and ``sweep`` all turn their
flags into experiment configs and run them; these literals pin what a user
sees, byte for byte, so any change to how the commands build or run their
grid must leave every table unchanged.  Host timing (the ``runtime:`` line
and the profile's seconds column) is the only thing masked.
"""

import io
import os
import re
import subprocess
import sys

import pytest

from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = ["--messages", "2", "--warmup", "5", "--drain", "8",
         "--interval", "1.0"]

HEADER = (
    "  n   byz  delivery  complete  lat_mean  lat_max  tx/bcast  "
    "collisions  invariant_violations\n")


def run_cli(argv):
    out = io.StringIO()
    assert main(argv, out=out) == 0
    return out.getvalue()


COMPARE_ORACLE = (
    "protocol     " + HEADER
    + "-------------  --  ---  --------  --------  --------  -------  "
    "--------  ----------  --------------------\n"
    "byzcast        10  0    1         1         0.0067    0.0147   "
    "38.5      25          0                   \n"
    "flooding       10  0    1         1         0.0066    0.0128   "
    "10        41          0                   \n"
    "overlay_only   10  0    1         1         0.0067    0.0144   "
    "3         19          0                   \n"
    "multi_overlay  10  0    1         1         0.0067    0.0173   "
    "5         0           0                   \n")

SWEEP_MUTE = (
    "mute  protocol" + HEADER
    + "----  --------  --  ---  --------  --------  --------  -------  "
    "--------  ----------  --------------------\n"
    "0     byzcast   12  0    1         1         0.012     0.0235   "
    "51.5      52.5        0                   \n"
    "2     byzcast   12  2    1         1         0.0439    0.4407   "
    "44        40          0                   \n")

SWEEP_CPA_K = (
    "cpa_k  protocol      " + HEADER
    + "-----  --------------  --  ---  --------  --------  --------  "
    "-------  --------  ----------  --------------------\n"
    "0      maurer_tixeuil  12  1    0.975     0.75      0.0114    "
    "0.0284   10.8      29.5        0                   \n"
    "1      maurer_tixeuil  12  1    0.75      0         0.0097    "
    "0.0261   23.5      23.5        0                   \n")

ARENA_COMPARE = (
    "protocol" + HEADER
    + "--------  --  ---  --------  --------  --------  -------  "
    "--------  ----------  --------------------\n"
    "flooding  10  0    1         1         0.0066    0.0128   "
    "10        41          0                   \n"
    "dolev     10  0    1         1         0.0066    0.0128   "
    "10        41          0                   \n")

RUN_OBSERVE_PROFILE = (
    "protocol" + HEADER
    + "--------  --  ---  --------  --------  --------  -------  "
    "--------  ----------  --------------------\n"
    "byzcast   10  0    1         1         0.0067    0.0147   "
    "38.5      25          0                   \n"
    "\n"
    "bytes/broadcast:      3684\n"
    "DATA tx/broadcast:    3.0\n"
    "overlay: 2/10 active, coverage 100%, connected True\n"
    "energy (radio): total 2.24 J, hottest node 0.28 J\n"
    "\n"
    "packets by type:\n"
    "  data                 6\n"
    "  gossip              71\n"
    "  hello              146\n"
    "\n"
    "per-phase cost profile:\n"
    "  codec.encode               5 calls\n"
    "  codec.encode_hit          72 calls\n"
    "  crypto.sign              150 calls\n"
    "  crypto.verify            885 calls\n"
    "  crypto.verify_hit        750 calls\n"
    "  hello.recv               847 calls\n"
    "  hello.send               146 calls\n"
    "  kernel.event            1161 calls\n"
    "  medium.candidates        223 calls\n"
    "  medium.complete          223 calls\n"
    "  obs.export                 1 calls\n"
    "  obs.sample                29 calls\n"
    "\n"
    "observability: 2644 spans (0 dropped), 29 metric samples\n"
    "  top phases: rx=1313, verify_hit=750, mac_enqueue=223, tx=223, "
    "verify=38, suppress=28\n"
    "\n")


def test_compare_with_oracle():
    assert run_cli(["compare", "--n", "10", "--seed", "3", "--oracle"]
                   + SMALL) == COMPARE_ORACLE


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mute_sweep(workers):
    argv = ["sweep", "--param", "mute", "--values", "0,2", "--seeds", "1,2",
            "--n", "12", "--workers", workers] + SMALL
    assert run_cli(argv) == SWEEP_MUTE


def test_rival_knob_sweep():
    argv = ["sweep", "--protocol", "maurer_tixeuil", "--param", "cpa_k",
            "--values", "0,1", "--seeds", "1,2", "--n", "12",
            "--mute", "1"] + SMALL
    assert run_cli(argv) == SWEEP_CPA_K


def test_arena_compare_subset():
    argv = ["arena", "compare", "--protocols", "flooding,dolev",
            "--n", "10", "--seed", "3"] + SMALL
    assert run_cli(argv) == ARENA_COMPARE


def test_observed_profiled_run():
    """A fresh process: the encode-once wire cache is process-wide, so
    the codec phase counts are only fixed from a cold start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    stdout = subprocess.run(
        [sys.executable, "-m", "repro", "run", "--observe", "--profile",
         "--n", "10", "--seed", "3"] + SMALL,
        cwd=REPO_ROOT, env=env, check=True, capture_output=True,
        text=True, timeout=120).stdout
    assert re.search(r"^runtime: .*\n", stdout, flags=re.M)
    masked = re.sub(r"^runtime: .*\n", "", stdout, flags=re.M)
    masked = re.sub(r"(calls) +[0-9.]+ ms$", r"\1", masked, flags=re.M)
    assert masked == RUN_OBSERVE_PROFILE
