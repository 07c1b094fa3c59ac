#!/usr/bin/env python3
"""Compare two `flagsim` builds on every invocation the docs and CI use.

The corpus is every `flagsim ...` command line in README.md code blocks and
in .github/workflows/ci.yml (shell loops over `$s` are expanded, and `/tmp/`
paths become relative). Each build runs the whole corpus in order in its own
empty working directory (under $TMPDIR), so later invocations see the files
earlier ones wrote, and the two builds must agree byte for byte on stdout
and on the exit status of every invocation, and on every file it writes
(creates or changes) in the working directory: each such file gets a
`file` line of its own under the invocation's line. Each build runs the
corpus twice. An output (stdout or file) that differs between one build's two
runs (wall-clock timings in profiles and traces) is compared with every run
of digits masked and reported as VARY when it matches that way; one whose
two runs of either build differ even then (a table or trace from a racing
multi-worker run) is reported as UNSTABLE and not compared. Invocations that serve or dial
the network (`worker`, `--connect`, `--obs-serve`) or tail a file forever
(`--follow`) are listed as skipped.

    python3 crates/cli/corpus/compare.py OLD_FLAGSIM NEW_FLAGSIM > result.txt

Exits 1 if any invocation differs.
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))
SKIP = ("worker", "--connect", "--obs-serve", "--follow")
SHELL_STOP = {">", "2>", "|", "||", "&&", "&", ";"}


def joined_lines(text):
    """Lines with trailing-backslash continuations joined."""
    out, cur = [], ""
    for line in text.splitlines():
        if line.rstrip().endswith("\\"):
            cur += line.rstrip()[:-1] + " "
        else:
            out.append(cur + line)
            cur = ""
    return out


def words(rest, loop_vars):
    """The argument words of one invocation: shell-split, cut at the first
    redirect or operator, with loop variables expanded."""
    args = []
    for tok in shlex.split(rest, comments=True):
        if tok in SHELL_STOP or tok.startswith(">") or tok.startswith("2>"):
            break
        args.append(tok[len("/tmp/"):] if tok.startswith("/tmp/") else tok)
    if not args or not re.fullmatch(r"[a-z][a-z-]*", args[0]):
        return []  # prose that mentions flagsim, not a command line
    expanded = [args]
    for var, values in loop_vars.items():
        if any("$" + var in a for a in args):
            expanded = [[a.replace("$" + var, v) for a in cmd] for cmd in expanded for v in values]
    return expanded


def corpus():
    invocations = []
    with open(os.path.join(REPO, "README.md")) as f:
        in_block = False
        for line in joined_lines(f.read()):
            if line.lstrip().startswith("```"):
                in_block = not in_block
                continue
            if not in_block:
                continue
            if "--bin flagsim -- " in line:
                invocations += words(line.split("--bin flagsim -- ", 1)[1], {})
            else:
                bare = line.strip()
                bare = bare[2:] if bare.startswith("$ ") else bare
                if bare.startswith("flagsim "):
                    invocations += words(bare[len("flagsim "):], {})
    with open(os.path.join(REPO, ".github", "workflows", "ci.yml")) as f:
        loop_vars = {}
        for line in joined_lines(f.read()):
            loop = re.search(r"for (\w+) in ([^;]+); do", line)
            if loop:
                loop_vars[loop.group(1)] = loop.group(2).split()
            for marker in ("$BIN ", "--bin flagsim -- "):
                if marker in line:
                    invocations += words(line.split(marker, 1)[1], loop_vars)
                    break
    return invocations


def mask(out):
    return re.sub(rb"[0-9]+", b"#", out)


def classify(a, a_again, b, b_again):
    """SAME, VARY, UNSTABLE or DIFF for one output, given as a tuple of
    exit status and bytes (stdout) or of bytes or None (a file not written):
    `a` and `a_again` from the old build's two runs, `b` and `b_again` from
    the new build's."""
    def masked(v):
        return tuple(mask(x) if isinstance(x, bytes) else x for x in v)
    if masked(a) != masked(a_again) or masked(b) != masked(b_again):
        return "UNSTABLE"
    if (a != a_again or b != b_again) and masked(a) == masked(b):
        return "VARY"
    return "SAME" if a == b else "DIFF"


def read(path):
    with open(path, "rb") as f:
        return f.read()


def snapshot(cwd):
    """Every file under `cwd`, relative path -> digest of its contents."""
    return {
        os.path.relpath(os.path.join(root, name), cwd):
            hashlib.sha256(read(os.path.join(root, name))).digest()
        for root, _, names in os.walk(cwd) for name in names
    }


def run(binary, args, cwd):
    try:
        p = subprocess.run(
            [binary] + args, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=600,
        )
        return p.returncode, p.stdout
    except subprocess.TimeoutExpired:
        return "timeout", b""


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old, new = (os.path.abspath(b) for b in sys.argv[1:])
    differ = 0
    work = tempfile.TemporaryDirectory()
    sides = ("old", "old-again", "new", "new-again")
    binaries = (old, old, new, new)
    cwds = [os.path.join(work.name, side) for side in sides]
    for cwd in cwds:
        os.mkdir(cwd)
    files = [{} for _ in cwds]
    for args in corpus():
        line = shlex.join(["flagsim"] + args)
        if any(a in SKIP for a in args):
            print(f"SKIP          {line}")
            continue
        runs = [run(binary, args, cwd) for binary, cwd in zip(binaries, cwds)]
        a, b = runs[0], runs[2]
        status = classify(*runs)
        if status == "UNSTABLE":
            print(f"UNSTABLE      {line}")
        elif status == "VARY":
            print(f"VARY rc={a[0]} {line}")
        elif status == "SAME":
            print(f"SAME rc={a[0]} {hashlib.sha256(a[1]).hexdigest()[:12]} {line}")
        else:
            print(f"DIFF rc={a[0]}/{b[0]} {line}")
        differ += status == "DIFF"
        before, files = files, [snapshot(cwd) for cwd in cwds]
        written = [
            {p: read(os.path.join(cwd, p)) for p, d in now.items() if was.get(p) != d}
            for cwd, was, now in zip(cwds, before, files)
        ]
        for path in sorted(set().union(*written)):
            outputs = [(w.get(path),) for w in written]
            status = classify(*outputs)
            if status == "SAME":
                print(f"SAME file {hashlib.sha256(outputs[0][0]).hexdigest()[:12]} {path}")
            else:
                print(f"{status} file {path}")
            differ += status == "DIFF"
        sys.stdout.flush()
    work.cleanup()
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
