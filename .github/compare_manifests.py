"""Compare the manifests of one run's builds with its sequential build.

Usage: python .github/compare_manifests.py RUN MODE [MODE ...]

Reads ``RUN-sequential.json.manifest.json`` and each
``RUN-MODE.json.manifest.json`` in the working directory, and exits
non-zero, naming each key, if a mode's candidates, tie flags or
selection differ from the sequential build's.  Timings are not compared.
"""
import json
import sys

KEYS = ("candidates", "build.had_ties", "selected.tau", "selected.cv_score",
        "selected.cv_curve", "selected.leaf_count", "selected.penalized_score")


def part(manifest, key):
    for k in key.split("."):
        manifest = manifest[k]
    return manifest


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    run, *modes = argv
    with open(f"{run}-sequential.json.manifest.json") as f:
        seq = json.load(f)
    bad = []
    for mode in modes:
        with open(f"{run}-{mode}.json.manifest.json") as f:
            other = json.load(f)
        bad += [f"{run}: the {mode} and sequential {key} differ"
                for key in KEYS if part(other, key) != part(seq, key)]
    sys.exit("\n".join(bad) or None)


if __name__ == "__main__":
    main(sys.argv[1:])
