#!/usr/bin/env python3
"""Fast self-test of the replisim benchmark, at tiny workload sizes.

    python3 perfbench/selftest.py

Checks that (1) every workload's output parses and its last line carries
exactly the metrics BENCHMARK.json names, each with its unit, in both the
timed and the traced run; (2) the schedule-identity check trips when one
repetition's counts are perturbed; (3) an injected oracle failure lowers
oracle_pass_frac without failing the run. Exits non-zero on the first
failed check.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
TINY = ["--size", "tiny", "--seconds", "0.01", "--seed", "7"]


def bench(*args):
    done = subprocess.run([run.EXE, *TINY, *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else "", done.stderr


def result(*args):
    code, last, err = bench(*args)
    if code != 0:
        fail("%s exited %d: %s" % (" ".join(args), code, err.strip()))
    try:
        return json.loads(last)
    except ValueError:
        fail("%s: last line is not JSON: %r" % (" ".join(args), last))


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def check_metrics(label, got, expected):
    if set(got) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (label, sorted(got)))
    if got["correct"] is not True or got["failed"] != 0 or got["attempted"] < 1:
        fail("%s: correct=%s attempted=%s failed=%s" % (
            label, got["correct"], got["attempted"], got["failed"]))
    names = [m["name"] for m in expected]
    if sorted(got["metrics"]) != sorted(names):
        fail("%s: metrics %s, expected %s" % (label, sorted(got["metrics"]), sorted(names)))
    for m in expected:
        v = got["metrics"][m["name"]]
        if set(v) != {"value", "unit"} or v["unit"] != m["unit"]:
            fail("%s: %s is %s, expected unit %s" % (label, m["name"], v, m["unit"]))
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail("%s: %s has value %r" % (label, m["name"], v["value"]))


def main():
    err = run.build()
    if err:
        fail(err)
    # contended-locking is not in BENCHMARK.json (see README.md) but is
    # still part of the harness, so it is checked like the others.
    for w in [w["name"] for w in SPEC["workloads"]] + ["contended-locking"]:
        for trace, expected in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            label = "%s --trace %s" % (w, trace)
            check_metrics(label, result("--workload", w, "--trace", trace), expected)
            print("selftest: ok   %s: every metric present with its unit" % label)

    code, last, err = bench("--workload", "run-record-lazy8", "--trace", "0",
                            "--inject", "mismatch")
    if code != 3 or last.startswith("{") or "schedule identity broken" not in err:
        fail("perturbed counts: exit %d, stderr %r" % (code, err.strip()))
    print("selftest: ok   perturbed counts trip the identity check (exit 3)")

    for w in ("run-record-lazy8", "campaign-faults"):
        clean = result("--workload", w, "--trace", "0")["metrics"]["oracle_pass_frac"]["value"]
        hurt = result("--workload", w, "--trace", "0", "--inject", "oracle-failure")
        frac = hurt["metrics"]["oracle_pass_frac"]["value"]
        if not frac < clean or hurt["correct"] is not True:
            fail("%s: injected oracle failure gave oracle_pass_frac %s (clean %s)" % (w, frac, clean))
        print("selftest: ok   %s: injected oracle failure lowers oracle_pass_frac %.3f -> %.3f, exit 0"
              % (w, clean, frac))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
