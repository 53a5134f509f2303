"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py --size full --workload train --variants 0-31

References belong to the commit that records them: re-record only when a
change is meant to alter fpnn's outputs, and say so in the change. Entries
are merged into references.json, so runs for different workloads can be
split up.
"""

from __future__ import annotations

import argparse
import json

import settings


def _variants(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", choices=sorted(settings.SIZES), action="append")
    p.add_argument("--workload", choices=settings.WORKLOADS, action="append")
    p.add_argument("--variants", default=f"0-{settings.N_VARIANTS - 1}")
    args = p.parse_args()
    settings.pin_blas_threads()
    settings.import_fpnn()
    import inputs
    import workloads

    recorded = {}
    for size in args.size or sorted(settings.SIZES):
        for name in args.workload or settings.WORKLOADS:
            for variant in _variants(args.variants):
                wl = workloads.WORKLOADS[name](size, variant,
                                               inputs.ensure(name, size, variant), None)
                try:
                    wl.setup()
                    ref = wl.reference_outputs()
                finally:
                    wl.close()
                recorded.setdefault(size, {}).setdefault(name, {})[str(variant)] = ref
                print(size, name, variant, json.dumps(ref)[:100], flush=True)

    refs = json.loads(settings.REFERENCES.read_text()) if settings.REFERENCES.is_file() else {}
    for size, by_name in recorded.items():
        for name, by_variant in by_name.items():
            refs.setdefault(size, {}).setdefault(name, {}).update(by_variant)
    settings.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
