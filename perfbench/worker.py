"""One cold repetition, in its own process: run each generated config
through the ``nikmop`` command line in this process and write the timings
to a JSON file.

    python3 perfbench/worker.py RESULT OUT_DIR CONFIG... [--trace | --setup-only]

``--trace`` adds spans around the layer entry points; ``--setup-only``
stops after constructing each config's pair, to sample ``setup_s``.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

import tracing
from nikmop import cli


def main(argv) -> int:
    flags = {a for a in argv if a.startswith("--")}
    result_path, out_dir, *config_paths = [a for a in argv if not a.startswith("--")]
    tracer = tracing.Tracer()
    tracing.install(tracer, layers="--trace" in flags)
    codes, walls, cpus, setups = [], [], [], []
    for i, path in enumerate(config_paths):
        first_span = len(tracer.spans)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with tracer.span("cli.main"):
            if "--setup-only" in flags:
                with open(path) as fh:
                    cli.build_pair(cli.ExperimentConfig.from_dict(json.load(fh)))
                code = 0
            else:
                code = cli.main([
                    "--config", path,
                    "--out", os.path.join(out_dir, str(i)),
                    "--threads", "1",
                ])
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        codes.append(code)
        setups.append([
            s[2] - s[1] for s in tracer.spans[first_span:]
            if s[0] == "cli.build_pair"
        ])
    result = {
        "codes": codes,
        "wall_s": walls,
        "cpu_s": cpus,
        "setup_s": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if "--trace" in flags:
        result["spans"] = tracer.dump()
        result["counters"] = {**tracer.counters, **tracing.cache_ratios()}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
