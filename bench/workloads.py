"""The benchmark's workloads: which experiments each one runs, with which overrides.

Each workload is a list of (label, experiment, parameter overrides). The label
names the output directory of that experiment run inside one repetition, so
two runs of the same experiment (fewshot's two fig6 runs) stay apart. The
master seed is the benchmark's --seed, unchanged, so --seed 20260811 runs the
defaults of scripts/run_all_figures.py. Why each workload exists is in
bench/README.md.
"""

import math

WORKLOADS = {
    "collapse": [
        ("fig2", "fig2", {}),
        ("fig3", "fig3", {}),
        ("fig4", "fig4", {}),
    ],
    "fewshot": [
        ("fig5", "fig5", {}),
        ("fig6", "fig6", {}),
        # 10^5 trials: per-trial Generator objects dominate peak memory.
        ("fig6-large", "fig6", {"trials": 100000, "m_values": [20]}),
    ],
    "tsvf": [
        ("helstrom-table", "helstrom-table", {}),
        ("tsvf-separation", "tsvf-separation", {}),
        # 7 x 5 x 9 = 315 setups; the default 60 finish too fast to time.
        ("tsvf-report", "tsvf-report", {
            "g_grid": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0],
            "sigma_grid": [0.5, 1.0, 2.0, 3.0, 5.0],
            "eta_grid": [0.05, 0.2, 0.5, math.pi / 4, 1.0, math.pi / 2, 2.0, 2.5, 3.0],
        }),
    ],
    "trajectories": [
        ("fig2", "fig2", {"trials": 300, "dump_trajectories": True}),
    ],
}

DEFAULT_SEED = 20260811
