"""Time one fresh interpreter's refkit set-up for a workload.

    python3 benchmarks/setup_probe.py <src dir> <workload>

Prints two numbers: seconds to `import refkit.cli`, and seconds to import
it and finish the workload's one-time loads. Nothing else is imported
first, so the import figure includes every module refkit pulls in.
"""
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import refkit.cli  # noqa: E402

imported = time.perf_counter()
from refkit import default_registry, load_templates  # noqa: E402
from refkit.synth_datagen import bundled_template_dir  # noqa: E402

default_registry()
if sys.argv[2] == "synth-e2e":
    load_templates(bundled_template_dir())
print(imported - start, time.perf_counter() - start)
