"""Traced serve daemon: install the layer wrappers, then run ``repro serve``.

Usage: python perfbench/serve_entry.py SPAN_DIR serve [serve options]

Every wrapped call appends its span to ``SPAN_DIR/spans-<pid>.jsonl`` as
it ends, so the spans survive however the daemon exits.
"""

import json
import sys
from pathlib import Path

from common import SRC

sys.path.insert(0, str(SRC))

import layers  # noqa: E402


def main() -> int:
    import repro.cli

    span_dir = Path(sys.argv[1])
    recorder = layers.Recorder(span_dir, write_through=True)
    layers.install(recorder)
    (span_dir / "bindings.json").write_text(json.dumps(recorder.keys))
    recorder.tag = "serve"
    recorder.active = True
    return repro.cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
