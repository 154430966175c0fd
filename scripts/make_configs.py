#!/usr/bin/env python3
"""Write ready-to-run JSON configs for every experiment kind.

The configs use the standard interval layout (base on [-1, 1], first
chain on [2, 3], second chain on [-3, -2]) at desk-scale settings, so
each one finishes in seconds to a few minutes:

    python3 scripts/make_configs.py configs/
    python3 -m nikmop.cli --config configs/ratio.json --out runs/ratio
"""

import json
import os
import sys

BASE = {"family": "chebyshev2", "interval": [-1, 1]}
UP = {"family": "chebyshev1", "interval": [2, 3]}
DOWN = {"family": "legendre", "interval": [-3, -2]}

SYSTEMS = {"system1": [BASE, UP], "system2": [BASE, DOWN]}

CONFIGS = {
    "mop": {"kind": "mop", "max_size": 8, **SYSTEMS},
    "diagnostics": {"kind": "diagnostics", "max_size": 7, **SYSTEMS},
    "equilibrium": {"kind": "equilibrium", "panels": 128, **SYSTEMS},
    "nth_root": {
        "kind": "nth_root",
        "precision_bits": 512,
        "ray": {"steps": 4},
        **SYSTEMS,
    },
    "ratio": {
        "kind": "ratio",
        "precision_bits": 512,
        "ray": {"steps": 12},
        **SYSTEMS,
    },
    "hermite_pade": {"kind": "hermite_pade", "max_size": 8, **SYSTEMS},
    "biortho": {"kind": "biortho", "max_size": 6, **SYSTEMS},
}


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "configs"
    os.makedirs(out_dir, exist_ok=True)
    for name, data in CONFIGS.items():
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
