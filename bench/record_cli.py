"""Record the expected output of the ``cli`` workload.

Runs every command form on every shipped fixture as a fresh
``python -m deforma.cli`` process and keeps the invocations whose model
declares the defaults the command needs (the others stop with exit code 2,
"no --... given and the model declares no default ...").  For each kept
invocation it stores the exit code, the SHA-256 of stdout and whether the
process died with a traceback, in ``cli_expected.json``.

Run from the repository root, on the commit whose output is the reference:

    python3 bench/record_cli.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

FORMS = (["validate"], ["cohomology"], ["mc"], ["mc", "--extend"], ["gauge"],
         ["gauge", "--equiv"], ["gauge", "--stabilizer"], ["linf-check"],
         ["cartan-check"], ["transport"], ["holim"], ["holim", "--witness"],
         ["period"])
FIXTURES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")


def undeclared(proc) -> bool:
    if proc.returncode != 2:
        return False
    error = json.loads(proc.stdout)["payload"].get("error", "")
    return "declares no default" in error or "needs --" in error


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = workloads.cli_env(root)
    invocations = []
    for form in FORMS:
        for fixture in FIXTURES:
            argv = [form[0], "--model", fixture, *form[1:]]
            proc = subprocess.run([sys.executable, "-m", "deforma.cli", *argv],
                                  capture_output=True, env=env, cwd=root,
                                  timeout=120)
            if undeclared(proc):
                continue
            invocations.append({
                "argv": argv,
                "exit": proc.returncode,
                "stdout_sha256": workloads.digest(proc.stdout),
                "traceback": b"Traceback (most recent call last)" in proc.stderr,
            })
    with open(workloads.CLI_EXPECTED, "w") as fh:
        json.dump({"invocations": invocations}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(invocations)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
