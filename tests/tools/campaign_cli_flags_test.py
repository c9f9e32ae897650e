#!/usr/bin/env python3
"""Malformed numeric flags of campaign_cli fail up front.

Usage: campaign_cli_flags_test.py PATH/TO/campaign_cli

Each case passes one bad value to --threads, --seeds or --msg-scale on an
otherwise valid command line.  The CLI must reject it through the usage
path (exit 2) before running anything, so the --out file must not exist
afterwards.  A last case checks that a valid line does write --out, so the
absence checks above cannot pass vacuously.

Exit codes follow the tools/ contract: 0 all cases pass, 1 a case failed,
2 environment error (one stderr line, no stack trace).
"""

import os
import subprocess
import sys
import tempfile

# (flag, value): each must be refused.
BAD_FLAGS = [
    ("--threads", "4x"),      # trailing text
    ("--threads", "-1"),      # would wrap to 4294967295
    ("--threads", "4294967296"),
    ("--threads", ""),
    ("--seeds", "2x"),
    ("--seeds", "0"),         # would emit the descending range seed=1..0
    ("--seeds", " 2"),
    ("--msg-scale", "nan"),
    ("--msg-scale", "inf"),
    ("--msg-scale", "0.5x"),
    ("--msg-scale", "0"),
]

# A tiny builtin, so the positive control runs in well under a second.
BASE = ["--builtin", "smoke", "--quiet", "--threads", "1", "--seeds", "1",
        "--msg-scale", "0.03125"]


def run(cli, args, out):
    return subprocess.run([cli] + args + ["--out", out], capture_output=True,
                          text=True, timeout=300, check=False)


def main(argv):
    if len(argv) != 2 or not os.access(argv[1], os.X_OK):
        print("usage: campaign_cli_flags_test.py PATH/TO/campaign_cli",
              file=sys.stderr)
        return 2
    cli = argv[1]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (flag, value) in enumerate(BAD_FLAGS):
            out = os.path.join(tmp, f"bad{i}.csv")
            proc = run(cli, BASE + [flag, value], out)
            label = f"{flag} {value!r}"
            if proc.returncode != 2 or os.path.exists(out) or \
                    "error: " not in proc.stderr or \
                    "usage: " not in proc.stderr:
                print(f"FAIL {label}: exit {proc.returncode}, out written: "
                      f"{os.path.exists(out)}\n{proc.stderr}",
                      file=sys.stderr)
                failed += 1
            else:
                print(f"ok   {label}: exit 2, no output")
        out = os.path.join(tmp, "good.csv")
        proc = run(cli, BASE, out)
        if proc.returncode != 0 or not os.path.exists(out):
            print(f"FAIL control: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            failed += 1
        else:
            print("ok   control: valid flags write --out")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
