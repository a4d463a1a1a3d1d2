"""Record the digests that the complex workload's outputs are checked against.

Run from the repository root at the commit whose outputs are the reference:

  python3 perfbench/record_digests.py

It runs each CLI job of the complex workload once and writes
perfbench/digests.json (sha256 of stdout, a NUL byte and the --output file).
"""
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from equicell import cli  # noqa: E402


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, argv in workloads.COMPLEX_CLI.items():
            out = Path(tmp) / (name + ".out")
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = cli.main([a.format(out=out) for a in argv])
            if code != 0:
                print("error: %s exited %d" % (name, code), file=sys.stderr)
                return 1
            data = out.read_bytes() if out.exists() else None
            digests[name] = workloads.output_digest(
                workloads.Output(code, stdout.getvalue(), data))
            print(name, digests[name])
    workloads.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
