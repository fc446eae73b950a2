"""The check/run contract: a config that ``check`` accepts, ``run`` completes.

A fixed, seeded walk over the config schema: every number key at edge
values, alone and in random pairs, plus configs that once slipped past
``check``.  For each, ``check`` answers 0 or 1 and never raises; where it
answers 0, ``run`` writes its sweep with no traceback and no numpy
RuntimeWarning.  The sweep is one alpha at small sample counts.
"""

import json
import sys
import warnings

import numpy as np
import pytest

from scissorlab import cli
from scissorlab.cli import STAGES, default_config_dict, main

#: a small sampled sweep, so that each accepted config runs in milliseconds
BASE = {
    "sweep.alphas": [0.25],
    "sweep.stage": "sampled",
    "sweep.phases": 2,
    "sweep.samples_per_state": 200,
    "tomography.bin_count": 8,
    "tomography.n_max": 2,
    "wigner.points": 5,
}

#: signs, zero, the subnormal and normal ends of double range, and the
#: integer just past it; a number key takes each alone, a list key in a list
EDGES = (-1e300, -1, -1e-300, 0, 5e-324, 1e-30, 1, 2, 1e300,
         sys.float_info.max, 10**300)

NUMBER_KEYS = [key for key, (default, _, _) in cli._SCHEMA.items()
               if not isinstance(default, (bool, str))]

#: configs once accepted by check that run could not complete
KNOWN = [
    {"amplifier.detector_mu": 1e-30, "sweep.stage": "circuit"},
    {"tomography.tol": 400},
    {"tomography.bin_range": [-1e300, 0]},
    {"wigner.extent": 1e300},
    {"wigner.extent": 10**300},
]


def _edge_values(key: str, value) -> list:
    """The values key takes for one edge value."""
    if key == "tomography.bin_range":
        return [sorted([0, value])]
    if key == "sweep.alphas":
        return [[value]]
    if key == "sweep.phases":
        return [value, [0, value]]
    return [value]


def _walk() -> list[dict]:
    """Every number key at every edge, then 30 seeded pairs of keys at
    random edges and stages, then the known configs."""
    singles = [{key: v} for key in NUMBER_KEYS for edge in EDGES
               for v in _edge_values(key, edge)]
    rng = np.random.default_rng(2009)
    pairs = []
    for _ in range(30):
        first, second = rng.choice(len(NUMBER_KEYS), size=2, replace=False)
        change = {"sweep.stage": STAGES[rng.integers(len(STAGES))]}
        for k in (first, second):
            key = NUMBER_KEYS[k]
            options = _edge_values(key, EDGES[rng.integers(len(EDGES))])
            change[key] = options[rng.integers(len(options))]
        pairs.append(change)
    return singles + pairs + KNOWN


def _write(tmp_path, name: str, changes: dict):
    cfg = default_config_dict()
    for key, value in {**BASE, **changes,
                       "sweep.output_dir": str(tmp_path / name)}.items():
        *sections, leaf = key.split(".")
        node = cfg
        for section in sections:
            node = node[section]
        node[leaf] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def _verb(verb: str, path, capsys) -> tuple[int, str]:
    """Exit code and output of one verb, with RuntimeWarnings raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([verb, "--config", str(path)])
    out = capsys.readouterr()
    return code, out.out + out.err


def test_check_accepts_only_what_run_completes(tmp_path, capsys):
    accepted = 0
    for i, changes in enumerate(_walk()):
        path = _write(tmp_path, f"c{i}", changes)
        code, out = _verb("check", path, capsys)
        assert code in (0, 1), (changes, out)
        if code == 1:
            assert not (tmp_path / f"c{i}").exists()
            continue
        accepted += 1
        code, out = _verb("run", path, capsys)
        # a fit that stops short of its tolerance is refused loudly; check
        # cannot know the draws ahead of the run
        unconverged = out.startswith("error: maximum-likelihood fit did not "
                                     "converge")
        assert code == 0 or unconverged, (changes, out)
        assert "Traceback" not in out, (changes, out)
    assert accepted > 50


@pytest.mark.parametrize("changes", KNOWN[1:], ids=["tol-400", "bin-range",
                                                     "extent", "extent-int"])
def test_configs_past_the_overflows_run(tmp_path, capsys, changes):
    # each once overflowed a double in run after check had said ok
    path = _write(tmp_path, "c", changes)
    assert _verb("check", path, capsys)[0] == 0
    code, out = _verb("run", path, capsys)
    assert code == 0, out
    assert (tmp_path / "c" / "summary.csv").is_file()
