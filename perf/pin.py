"""``python3 perf/run.py --pin``: rewrite golden.json (result digests of
every tables cell at the default seed) and expected_stars.json (the
relational cells that differ from the native oracle) from this tree.
Run it only after a change that is meant to alter results."""

from __future__ import annotations

import json

from common import DEFAULT_SEED, PERF


def main(runner) -> bool:
    from run import PROFILES, pass_config
    digests: dict = {}
    stars: dict = {}
    for profile, sizes in PROFILES.items():
        stars[profile] = []
        for workload in sizes["tables"]:
            result = runner.child_run(*pass_config(
                workload, profile, DEFAULT_SEED, 0.0, setups=1))
            digests.update(result["digests"])
            stars[profile].extend(result["stars"])
    (PERF / "golden.json").write_text(json.dumps(
        {"seed": DEFAULT_SEED, "digests": dict(sorted(digests.items()))},
        indent=1) + "\n")
    (PERF / "expected_stars.json").write_text(
        json.dumps(stars, indent=1) + "\n")
    print(f"pinned {len(digests)} digests and "
          f"{sum(map(len, stars.values()))} starred cells")
    return True
