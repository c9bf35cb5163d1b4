"""Write synth_digests.json: the row count and SHA-256 of the dataset that
each pooled `refkit generate` run saves, at every input size.

    python3 benchmarks/synth_digests.py

synth-e2e fails every row of a run whose saved bytes differ from these, so
rerun this only when a change to refkit's generator is meant to change its
output, and commit the new file with that change.
"""
from __future__ import annotations

import hashlib
import json
import sys

import gen

sys.path.insert(0, str(gen.SYNTH_DIGESTS.parents[1] / "src"))

# One run per line, so a regenerated file diffs run by run.
sections = []
for size, sizes in gen.SIZES.items():
    entries = []
    for k in range(gen.SYNTH_POOL):
        base = k * 100
        data = gen.synthetic_dataset([base], sizes["synth_max_samples"]).encode("utf-8")
        entry = [len(data.splitlines()), hashlib.sha256(data).hexdigest()]
        entries.append(f'  "{base}": {json.dumps(entry)}')
    sections.append(f'"{size}": {{\n' + ",\n".join(entries) + "\n}")
gen.SYNTH_DIGESTS.write_text("{\n" + ",\n".join(sections) + "\n}\n", encoding="utf-8")
