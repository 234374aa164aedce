"""Named verification suites over the experiment registry.

Each suite is a fixed list of experiments run at their canonical
configurations; the flattened check list is what the CLI prints and the
acceptance tests assert on.
"""

from __future__ import annotations

from .harness import default_config, parse_config, run

SUITES = {
    "protocols": ["protocol_exactness", "bit_fit", "oversampling"],
    "reductions": ["sparse_regression", "dense_regression", "clustering",
                   "pca_recsys", "hamiltonian"],
    "oracle": ["oracle_properties"],
}


def run_suite(name: str, seed: int | None = None, out_dir=None) -> list:
    """Run every experiment in a suite; returns the list of Reports."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    reports = []
    for experiment in SUITES[name]:
        config = default_config(experiment)
        if seed is not None:
            config = parse_config(dict(config.to_dict(), seed=seed))
        reports.append(run(config, out_dir))
    return reports


def suite_passed(reports) -> bool:
    return all(r.all_passed for r in reports)
