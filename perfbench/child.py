"""A fresh interpreter's first result, for the benchmark's setup_s.

    child.py CONFIG

imports scissorlab, validates CONFIG, makes the first (cold) simulate
call for its first alpha, which fills the beamsplitter cache, and prints
"ready".  The parent puts ``src`` on PYTHONPATH and pins the BLAS threads.
"""

import sys

from scissorlab import simulate
from scissorlab.cli import validate_config


def main(path: str) -> None:
    cfg, problems = validate_config(path)
    if cfg is None:
        raise SystemExit(f"invalid config {path}: {problems}")
    simulate(cfg.amplifier_config(cfg.alphas[0]))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
