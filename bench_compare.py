"""Before/after benchmark: a base commit against the working tree.

Runs bench/run.py --trace 0 per workload and seed in a git archive export
of --base and in the working tree, alternating which goes first, and
writes BENCH_NAME.json: the host (see host()), and per workload each
side's median, q1, q3 and spread per end-to-end metric, the ratio of
medians, pairs won, whether every change run reads better than every
base run (separated), a verdict (see verdict()), failures and digests;
the verdicts are printed as well.  It records each side's line count of
src/launderbench too (see src_lines()), and prints it.
A run that exits non-zero stops the comparison: the tail of its stderr is
printed, and the json keeps the workloads already done plus a failed_run
entry; the exit status is then 1.  It is 1 as well when a workload breaks
a protocol gate: its digests differ between the sides, or a run of either
side counts a failed operation.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent


def bench(tree, workload, seed, seconds):
    child = subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = child.communicate()
    finally:
        if child.poll() is None:
            # interrupted: SIGINT lets run.py's own cleanup remove its
            # work dir; one that does not stop in time is killed
            child.send_signal(signal.SIGINT)
            try:
                child.wait(timeout=5)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        shutil.rmtree(Path(tree) / ".bench_work"
                      / f"{workload}-seed{seed}-{child.pid}",
                      ignore_errors=True)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, child.args,
                                            out, err)
    result = json.loads(out.splitlines()[-1])
    digest = out.split("non_codec_sha256=")[1].split()[0]
    return ({k: v["value"] for k, v in result["metrics"].items()},
            result["failed"], digest)


def host():
    """The CPUs and software stack the runs share: seeded output is
    byte-identical on one stack only, so the version of the library that
    computes it is kept beside the interpreter's."""
    import numpy
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)       # macOS has no sched_getaffinity
    return {"nproc": cpus, "python": sys.version.split()[0],
            "numpy": numpy.__version__}


def src_lines(tree):
    """Lines of src/launderbench/*.py in tree, as bench/run.py counts."""
    return sum(len(p.read_text().splitlines()) for p in
               sorted((Path(tree) / "src" / "launderbench").glob("*.py")))


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def seed_range(text):
    """first-last with first < last: quartiles need two runs a side."""
    first, _, last = text.partition("-")
    if not (first.isdigit() and last.isdigit() and int(first) < int(last)):
        raise argparse.ArgumentTypeError(
            f"expected first-last with first < last, got {text!r}")
    return text


def pairs_won(base, change, sign):
    """Seeds on which the change run reads better than the base run."""
    return sum(sign * (c - b) > 0 for b, c in zip(base, change))


def separated(base, change, sign):
    """Every change run better than every base run."""
    return min(sign * c for c in change) > max(sign * b for b in base)


def verdict(base, change, sign, bound):
    """One metric's verdict from its base and change values, paired by
    seed; sign is 1 where higher is better and -1 where lower is.
    improved: the ratio of medians is beyond the bound, the change wins at
    least 9 pairs in 10, and the medians differ by more than the base's
    q3 - q1.  worse: the ratio is beyond the bound the wrong way.
    unresolved: the base's spread is above the bound and the runs are not
    separated.  Anything else is within bound."""
    b, c = summary(base), summary(change)
    gain = sign * (c["median"] / b["median"] - 1)
    if (gain > bound and pairs_won(base, change, sign) >= 0.9 * len(base)
            and sign * (c["median"] - b["median"]) > b["q3"] - b["q1"]):
        return "improved"
    if gain < -bound:
        return "worse"
    if b["spread"] > bound and not separated(base, change, sign):
        return "unresolved"
    return "within bound"


def compare(report, base_tree, spec, seeds):
    """Fill report["workloads"]; on the first failed run, record it under
    report["failed_run"] and stop, keeping the workloads already done."""
    first, last = map(int, seeds.split("-"))
    sign = {m["name"]: 1 if m["better"] == "higher" else -1
            for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in (w["name"] for w in spec["workloads"]):
        runs = {"base": [], "change": []}
        for seed in range(first, last + 1):
            for side in ("base", "change")[::1 if seed % 2 else -1]:
                try:
                    runs[side].append(bench(
                        base_tree if side == "base" else ROOT, w, seed,
                        spec["run_seconds"]))
                except subprocess.CalledProcessError as e:
                    print("\n".join(e.stderr.splitlines()[-20:]),
                          file=sys.stderr)
                    print(w, seed, side, "failed with exit code",
                          e.returncode, file=sys.stderr)
                    report["failed_run"] = {"workload": w, "seed": seed,
                                            "side": side,
                                            "exit_code": e.returncode}
                    return
                print(w, seed, side, runs[side][-1], flush=True)
        pairs = list(zip(runs["base"], runs["change"]))
        out = {"seeds": seeds, "runs": len(pairs),
               "failed": {s: sum(r[1] for r in runs[s]) for s in runs},
               "digests_equal": all(b[2] == c[2] for b, c in pairs)}
        values = {s: {m: [r[0][m] for r in runs[s]] for m in sign}
                  for s in runs}
        for s in runs:
            out[s] = {m: summary(values[s][m]) for m in sign}
        out["change_over_base"] = {
            m: out["change"][m]["median"] / out["base"][m]["median"]
            for m in sign}
        base, change = values["base"], values["change"]
        out["pairs_won"] = {m: pairs_won(base[m], change[m], sign[m])
                            for m in sign}
        out["separated"] = {m: separated(base[m], change[m], sign[m])
                            for m in sign}
        out["verdict"] = {m: verdict(base[m], change[m], sign[m], bound[m])
                          for m in sign}
        for m in sign:
            print(f"{w} {m}: {out['verdict'][m]}, change/base "
                  f"{out['change_over_base'][m]:.3f}, won "
                  f"{out['pairs_won'][m]}/{len(pairs)}", flush=True)
        report["workloads"][w] = out


def broken_gates(report):
    """One line per workload whose digests differ or whose runs failed."""
    return [f"{w}: protocol gate broken: digests_equal="
            f"{out['digests_equal']}, failed={out['failed']}"
            for w, out in report["workloads"].items()
            if not out["digests_equal"] or any(out["failed"].values())]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--base", default="HEAD")
    p.add_argument("--seeds", default="1-10", type=seed_range,
                   help="first-last, at least two seeds")
    args = p.parse_args()
    # unwind on SIGTERM too, so the base export and the running
    # benchmark's work dir are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = subprocess.check_output(["git", "rev-parse", "--short", args.base],
                                   cwd=ROOT, text=True).strip()
    report = {"about": f"bench/run.py --trace 0, seeds {args.seeds}, {base}"
                       " against the working tree, alternating",
              "host": host(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        subprocess.run(f"git archive {base} | tar -x -C {tmp}", shell=True,
                       cwd=ROOT, check=True)
        report["src_lines"] = {"base": src_lines(tmp),
                               "change": src_lines(ROOT)}
        print("src_lines", report["src_lines"], flush=True)
        compare(report, tmp, spec, args.seeds)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    broken = broken_gates(report)
    for line in broken:
        print(line, file=sys.stderr)
    if "failed_run" in report or broken:
        sys.exit(1)


if __name__ == "__main__":
    main()
