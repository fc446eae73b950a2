"""The documented default sweep at seed 1, pinned in tier-1.

Stages sampled and circuit run in-process on the default config and are
compared with ``default_sweep.json``: every metric behind a
``summary.csv`` row, and at stage sampled the MaxLik iteration counts,
the ``rho.json`` entries and each phase's draw mean and variance.  Every
``samples.csv`` and ``wigner.csv`` written must also parse back, bit for
bit, to the arrays the run held in memory, and ``tomo`` on the alpha 0.25
``samples.csv`` must write that run's ``rho.json`` byte for byte.

A change that alters the arithmetic on purpose regenerates the fixture
and records its largest deviation in CHANGES.md:

    PYTHONPATH=src python tests/test_default_sweep.py
"""

import json
import platform
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from scissorlab import cli
from scissorlab.cli import SUMMARY_HEADER, default_config_dict, run_sweep

FIXTURE = Path(__file__).with_name("default_sweep.json")
METRIC_KEYS = ("g_eff", "ein_min", "ein_avg", "ein_max",
               "success_probability", "reference_ein")

# Bounds, from the largest deviations CHANGES.md records for changes meant
# to leave the numbers alone: draws moved by 4.4e-10, metrics by 5e-14
# relative, rho entries by 1e-14 relative.  Iteration counts must repeat.
DRAW_MEAN_ATOL = 5e-10
DRAW_VAR_ATOL = 5e-9        # 2 |x| 4.4e-10, with |x| up to about 6
METRICS_RTOL = 5e-14
RHO_ATOL = 1e-13
#: summary.csv prints %.12g: half a unit in the 12th significant digit
SUMMARY_RTOL = 5e-12


@contextmanager
def recorded(*names, inputs=()):
    """Record what the named cli functions return, or for the names in
    inputs their first argument, while the body runs."""
    saved = {name: getattr(cli, name) for name in (*names, *inputs)}
    results = {name: [] for name in saved}

    def recording(name):
        def call(*args, **kwargs):
            result = saved[name](*args, **kwargs)
            results[name].append(args[0] if name in inputs else result)
            return result
        return call

    for name in saved:
        setattr(cli, name, recording(name))
    try:
        yield results
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def read_csv(path: Path, header: str) -> np.ndarray:
    """The table under the header, each field parsed by float()."""
    head, _, body = path.read_text().partition("\n")
    assert head == header, path
    fields = [float(f) for f in body.replace(",", " ").split()]
    return np.array(fields).reshape(-1, header.count(",") + 1)


def assert_bitwise_equal(parsed, held, what):
    parsed = np.asarray(parsed, dtype=float)
    held = np.asarray(held, dtype=float)
    assert parsed.shape == held.shape, what
    assert np.array_equal(parsed.view(np.uint64), held.view(np.uint64)), what


def run_default(stage: str, out_dir: Path) -> dict:
    """Run the default config at this stage and seed 1; return what the
    fixture pins, per alpha, after checking every CSV against memory."""
    config = default_config_dict()
    config["sweep"].update(stage=stage, seed=1, output_dir=str(out_dir))
    out_dir.mkdir(parents=True)
    path = out_dir / "config.json"
    path.write_text(json.dumps(config))
    cfg, problems = cli.validate_config(path)
    assert problems == []
    # the batch the run binned is the one it held in memory
    with recorded("maxlik_reconstruct", "wigner",
                  inputs=("bin_samples",)) as calls:
        run_sweep(cfg)
    rows = (out_dir / "summary.csv").read_text().splitlines()
    assert rows[0] == SUMMARY_HEADER
    pinned = {}
    for k, alpha in enumerate(sorted(cfg.alphas)):
        alpha_dir = out_dir / f"alpha_{alpha:.4f}"
        metrics = json.loads((alpha_dir / "metrics.json").read_text())
        entry = {key: metrics[key] for key in METRIC_KEYS}
        fields = [float(f) for f in rows[k + 1].split(",")]
        assert fields[0] == round(alpha, 4)
        np.testing.assert_allclose(fields[1:], list(entry.values()),
                                   rtol=SUMMARY_RTOL, atol=0)

        grid = calls["wigner"][k]
        table = read_csv(alpha_dir / "wigner.csv", "x,p,w")
        assert_bitwise_equal(table[:, 0], np.repeat(grid.x, grid.p.size),
                             "wigner.csv x")
        assert_bitwise_equal(table[:, 1], np.tile(grid.p, grid.x.size),
                             "wigner.csv p")
        assert_bitwise_equal(table[:, 2], grid.values.ravel(), "wigner.csv w")
        if stage == "sampled":
            draws = calls["bin_samples"][k]
            back = read_csv(alpha_dir / "samples.csv", "theta,x")
            assert_bitwise_equal(draws.phases, cfg.phases, "phase list")
            assert_bitwise_equal(back[:, 0], draws.phases[draws.phase_index],
                                 "samples.csv theta")
            assert_bitwise_equal(back[:, 1], draws.x, "samples.csv x")
            at = [draws.x[draws.phase_index == j]
                  for j in range(draws.phases.size)]
            rho = json.loads((alpha_dir / "rho.json").read_text())
            entry.update(
                maxlik_iterations=calls["maxlik_reconstruct"][k].iterations,
                rho={"re": rho["re"], "im": rho["im"]},
                draw_mean=[float(x.mean()) for x in at],
                draw_var=[float(x.var()) for x in at])
        pinned[f"{alpha:.4f}"] = entry
    return pinned


def test_default_sweep_matches_fixture(tmp_path):
    fixture = json.loads(FIXTURE.read_text())
    for stage in ("sampled", "circuit"):
        got, want = run_default(stage, tmp_path / stage), fixture[stage]
        assert sorted(got) == sorted(want)
        for alpha, entry in want.items():
            where = f"stage {stage}, alpha {alpha}"
            np.testing.assert_allclose(
                [got[alpha][key] for key in METRIC_KEYS],
                [entry[key] for key in METRIC_KEYS],
                rtol=METRICS_RTOL, atol=0, err_msg=where)
            if stage != "sampled":
                continue
            assert got[alpha]["maxlik_iterations"] == \
                entry["maxlik_iterations"], where
            for part in ("re", "im"):
                np.testing.assert_allclose(got[alpha]["rho"][part],
                                           entry["rho"][part], rtol=0,
                                           atol=RHO_ATOL, err_msg=where)
            np.testing.assert_allclose(got[alpha]["draw_mean"],
                                       entry["draw_mean"], rtol=0,
                                       atol=DRAW_MEAN_ATOL, err_msg=where)
            np.testing.assert_allclose(got[alpha]["draw_var"],
                                       entry["draw_var"], rtol=0,
                                       atol=DRAW_VAR_ATOL, err_msg=where)
    # tomo replays a run's samples into the run's own rho.json
    sampled = tmp_path / "sampled"
    alpha_dir = sampled / "alpha_0.2500"
    replay = tmp_path / "replay_rho.json"
    assert cli.main(["tomo", "--samples", str(alpha_dir / "samples.csv"),
                     "--config", str(sampled / "config.json"),
                     "--out", str(replay)]) == 0
    assert replay.read_bytes() == (alpha_dir / "rho.json").read_bytes()


def regenerate(work: Path) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    fixture = {
        "made_with": {"python": platform.python_version(),
                      "machine": platform.machine(),
                      "numpy": np.__version__,
                      "blas": f"{blas['name']} {blas['version']}"},
        "sampled": run_default("sampled", work / "sampled"),
        "circuit": run_default("circuit", work / "circuit"),
    }
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        regenerate(Path(work))
