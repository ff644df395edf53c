"""One untraced CLI job: ``python3 bench/cli_job.py curve --model ... --n ...``.

Behaves exactly like ``python -m tailconc.cli`` except that, once
``tailconc`` is imported and the model is parsed, it writes one line
``bench-ready <time.monotonic()>`` to standard error. The parent measures
set-up time from its own monotonic clock reading taken just before spawning
this process; on Linux both read the same system-wide clock.
"""

import json
import sys
import time

import tailconc.cli
from tailconc import model_from_dict

if __name__ == "__main__":
    argv = sys.argv[1:]
    model_from_dict(json.loads(argv[argv.index("--model") + 1]))
    sys.stderr.write(f"bench-ready {time.monotonic()!r}\n")
    sys.stderr.flush()
    sys.exit(tailconc.cli.main(argv))
