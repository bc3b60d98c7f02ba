"""Set-up cost of a fresh interpreter: import rolecomms, then load and
validate a bench config the way `rolecomms bench --config` does.

    python3 perfbench/setup_probe.py <checkout root> <config.json>

Prints one JSON line with numpy_import_s, import_s and config_s. numpy,
rolecomms' one third-party dependency, is imported first and timed on its
own: on a shared host its import time steps between about 0.17 s and 0.10 s
for minutes at a time while the rest of the import stays at about 0.10 s,
so import_s is rolecomms' own import with numpy already loaded.
"""

import json
import sys
import time
from pathlib import Path

root = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(root / "src"))

start = time.perf_counter()
import numpy  # noqa: E402, F401

numpy_imported = time.perf_counter()
from rolecomms import cli  # noqa: E402

imported = time.perf_counter()
config = cli.bench_mod.config_from_dict(cli._load_json(sys.argv[2], "config"))
loaded = time.perf_counter()

if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
    sys.exit(f"rolecomms was imported from {cli.__file__}")
print(json.dumps({"numpy_import_s": numpy_imported - start, "import_s": imported - numpy_imported, "config_s": loaded - imported}))
