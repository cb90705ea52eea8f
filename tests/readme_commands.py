"""Run every ``cyclotomy`` command in the README's ``sh`` blocks and check
its documented exit code and JSON output.

A command's exit code is 0 unless its trailing comment, or a comment line
right after it, says ``exit N``; a comment line right after it that starts
with ``{`` is its exact stdout.  Each command runs as
``python -m cyclotomy.cli`` in a fresh temporary directory, against the
``src`` of the checkout holding this file.  Prints one line per command and
a total, and exits 1 if any command failed or none ran.  Standard library
only; run it from anywhere as

    python3 tests/readme_commands.py
"""

import os
import re
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    bad = ran = 0
    with tempfile.TemporaryDirectory() as tmp:
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
            lines = block.splitlines() + [""]
            for line, after in zip(lines, lines[1:]):
                if not line.startswith("cyclotomy "):
                    continue
                command, _, comment = line.partition("#")
                exit_code = re.match(r"\s*exit (\d+)\b", comment) or re.match(r"#\s*exit (\d+):", after)
                want = int(exit_code.group(1)) if exit_code else 0
                json_out = after[1:].strip() if re.match(r"#\s*\{", after) else None
                argv = [sys.executable, "-m", "cyclotomy.cli"] + shlex.split(command)[1:]
                proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True)
                ran += 1
                problems = []
                if proc.returncode != want:
                    problems.append("exit %d, documented %d" % (proc.returncode, want))
                if json_out is not None and proc.stdout != json_out + "\n":
                    problems.append("stdout %r, documented %r" % (proc.stdout[:200], json_out))
                if problems:
                    bad += 1
                    print("FAIL %s: %s\n%s" % (command.strip(), "; ".join(problems), proc.stderr[-2000:]))
                else:
                    print("ok %s (exit %d)" % (command.strip(), want))
    print("%d README commands, %d failed" % (ran, bad))
    return 1 if bad or not ran else 0


if __name__ == "__main__":
    sys.exit(main())
