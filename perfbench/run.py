#!/usr/bin/env python3
"""End-to-end benchmark of the oosim wire server.

One run of one workload:

    python3 perfbench/run.py --workload hot-slices --seed 1 --seconds 30 --trace 0

Spread report (repeats each workload with seeds 1..N, prints each
end-to-end metric's median and quartiles):

    python3 perfbench/run.py --spread 10 [--workload W] [--seconds S]

Run from the repository root.  The script builds perfbench/bench.exe
with dune, then runs rounds until --seconds of timed load have been
measured.  A round starts a fresh server process, drives it from one
load process over a unix socket, checks the server's final state
against the committed requests (and, on disk, the state recovered after
shutdown), and stops both.  --trace 1 alternates untraced and traced
rounds and reports the per-layer metrics instead of the end-to-end ones.
The last line of stdout is the JSON result.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_ROOT = ".perfbench_run"
PAGE_BYTES = 4096
MIN_ROUNDS = 5  # also the minimum number of set-up samples per run
ROUND_TIMEOUT_S = 90
START_BUDGET_S = 120  # no new round starts after this much wall time

# BENCHMARK.json at the repository root names the workloads, the metrics
# with their units, and the default run length.
SPEC = {}


def metric_units(kind):
    return [(m["name"], m["unit"]) for m in SPEC[kind]]


class BenchError(Exception):
    pass


LIVE = []  # processes started and not yet reaped


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def stop_all():
    for p in LIVE:
        if p.poll() is None:
            p.kill()
        p.wait()
    LIVE.clear()


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise BenchError("run from the repository root: dune-project and lib/ are missing")
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    res = subprocess.run(
        # the shared dune cache lives outside the checkout
        ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet",
         "./perfbench/bench.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if res.returncode != 0:
        raise BenchError("build failed:\n" + res.stdout)


def pct(sorted_vals, q):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    k = min(len(sorted_vals) - 1, max(0, int(q * len(sorted_vals) + 0.5) - 1))
    return float(sorted_vals[k])


def mean(vals):
    return sum(vals) / len(vals) if vals else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def triples(rows):
    return {(o, k): v for o, k, v in rows}


def run_round(workload, seed, rnd, traced, rundir):
    rdir = os.path.join(rundir, "r%d" % rnd)
    os.makedirs(rdir)
    sock = os.path.join(rdir, "s.sock")
    data = os.path.join(rdir, "data")
    spans = os.path.join(rdir, "spans.txt")
    flag = "1" if traced else "0"
    try:
        t0 = time.perf_counter()
        srv = subprocess.Popen(
            [EXE, "server", workload, sock, data, flag, spans, "1" if rnd == 0 else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        LIVE.append(srv)
        line = srv.stdout.readline()  # blocks until the server accepts
        setup_s = time.perf_counter() - t0
        if not line:
            raise BenchError("server exited during set-up")
        ready = json.loads(line)
        load = subprocess.Popen(
            [EXE, "load", workload, sock, str(seed), str(rnd), flag],
            stdout=subprocess.PIPE,
        )
        LIVE.append(load)
        out, _ = load.communicate(timeout=ROUND_TIMEOUT_S)
        if load.returncode != 0:
            raise BenchError("load process failed (exit %d)" % load.returncode)
        ld = json.loads(out.decode().strip().splitlines()[-1])
        srv.stdin.write(b"stop\n")
        srv.stdin.close()
        line = srv.stdout.readline()
        srv.wait(timeout=ROUND_TIMEOUT_S)
        if srv.returncode != 0 or not line:
            raise BenchError("server failed at shutdown (exit %s)" % srv.returncode)
        sd = json.loads(line)
        span_rows = []
        if traced:
            with open(spans) as f:
                span_rows = [list(map(int, l.split())) for l in f if l.strip()]
    finally:
        stop_all()
        shutil.rmtree(rdir, ignore_errors=True)

    expected = triples(ld["expected"])
    problems = []
    if triples(sd["state"]) != expected:
        problems.append("server state differs from the committed requests")
    if sd["recovered"] is not None and triples(sd["recovered"]) != expected:
        problems.append("recovered state differs from the acknowledged commits")
    if ld["protocol_errors"]:
        problems.append("%d protocol errors" % ld["protocol_errors"])
    if ld["unanswered"]:
        problems.append("%d requests unanswered" % ld["unanswered"])
    accounted = sum(ld[k] for k in ("committed", "aborted", "rejected", "failed", "unanswered"))
    if accounted != ld["sent"]:
        problems.append("%d requests sent but %d accounted for" % (ld["sent"], accounted))
    if sd["commits"] != ld["committed"]:
        problems.append("server counted %d commits, clients %d" % (sd["commits"], ld["committed"]))
    return {
        "traced": traced,
        "setup_s": setup_s,
        "ready": ready,
        "load": ld,
        "figures": round_figures(ld),
        "server": sd,
        "spans": span_rows,
        "problems": problems,
    }


def txn_rate(rounds):
    committed = sum(r["load"]["timed_committed"] for r in rounds)
    window_s = sum((r["load"]["w1_ns"] - r["load"]["w0_ns"]) / 1e9 for r in rounds)
    return ratio(committed, window_s)


def round_figures(ld):
    """One round's rate and client latencies over its timed window."""
    lat = sorted(x / 1e3 for x in ld["lat_ns"])
    return {
        "txn_s": ratio(ld["timed_committed"], (ld["w1_ns"] - ld["w0_ns"]) / 1e9),
        "lat_p50_us": pct(lat, 0.50),
        "lat_p99_us": pct(lat, 0.99),
    }


def end_to_end(rounds):
    """Medians over rounds: rate, latencies and peak RSS over the untraced
    rounds, set-up time over every round.  A median over many short rounds
    is not moved by a host slowdown that lasts less than half the run."""
    plain = [r for r in rounds if not r["traced"]] or rounds

    def med(f):
        return statistics.median(f(r) for r in plain)

    return {
        "txn_s": med(lambda r: r["figures"]["txn_s"]),
        "lat_p50_us": med(lambda r: r["figures"]["lat_p50_us"]),
        "lat_p99_us": med(lambda r: r["figures"]["lat_p99_us"]),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": med(lambda r: r["server"]["hwm_kb"] / 1024),
    }


def storage_delta(r, key):
    return r["server"]["storage"][key] - r["ready"]["storage"][key]


def on_disk(rounds):
    return rounds[0]["ready"]["storage"] is not None


def per_layer(rounds):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    durable = on_disk(rounds)
    lat, srv, outside, run_us, commit_us = [], [], [], [], []
    lock_n, lock_ns, exec_ns, store_ns, ops = [], [], [], [], []
    busy_ns = 0
    window_ns = 0
    for r in traced:
        ld = r["load"]
        w0, w1 = ld["w0_ns"], ld["w1_ns"]
        window_ns += w1 - w0
        for l_ns, s_us in zip(ld["lat_ns"], ld["server_us"]):
            lat.append(l_ns / 1e3)
            srv.append(s_us)
            outside.append(l_ns / 1e3 - s_us)
        for _id, pick, c0, c1, ln, lns, ens, sns, nops in r["spans"]:
            busy_ns += max(0, min(c1, w1) - max(pick, w0))
            if not w0 <= pick <= w1:
                continue
            run_us.append((c1 - pick) / 1e3)
            commit_us.append((c1 - c0) / 1e3)
            lock_n.append(ln)
            lock_ns.append(lns)
            exec_ns.append(ens)
            store_ns.append(sns)
            ops.append(nops)
    for v in (lat, srv, outside, run_us, commit_us):
        v.sort()

    def weighted(key):
        n = sum(r["load"]["timed"] for r in traced)
        return ratio(sum(r["load"][key] * r["load"]["timed"] for r in traced), n)

    def server_sum(key):
        return sum(r["server"][key] for r in traced)

    commits = server_sum("commits")
    codec_us = weighted("codec_ns") / 1e3
    queue_us = mean(srv) - mean(run_us)
    lock_us = mean(lock_ns) / 1e3
    exec_us = mean(exec_ns) / 1e3
    store_us = mean(store_ns) / 1e3
    m = {
        "wire.bytes_per_txn": weighted("wire_bytes"),
        "wire.codec_us_per_txn": codec_us,
        "server.req_us_p50": pct(srv, 0.50),
        "server.req_us_p99": pct(srv, 0.99),
        "server.outside_us_p50": pct(outside, 0.50),
        "server.outside_us_p99": pct(outside, 0.99),
        "par.run_us_p50": pct(run_us, 0.50),
        "par.run_us_p99": pct(run_us, 0.99),
        "par.queue_us": queue_us,
        "par.restarts_per_commit": ratio(
            sum(r["load"]["timed_restarts"] for r in traced),
            sum(r["load"]["timed_committed"] for r in traced),
        ),
        "par.busy_frac": ratio(busy_ns, rounds[0]["ready"]["domains"] * window_ns),
        "lock.acquires_per_txn": mean(lock_n),
        "lock.acquire_us_per_txn": lock_us,
        "lock.wait_frac": ratio(server_sum("lock_waits"), server_sum("lock_requests")),
        "exec.self_us_per_txn": exec_us,
        "exec.field_ops_per_txn": mean(ops),
        "mvcc.snapshot_frac": ratio(server_sum("snapshot_commits"), commits),
        "mvcc.occ_fail_per_commit": ratio(server_sum("occ_validation_failures"), commits),
        "setup.compile_ms": statistics.median(r["ready"]["compile_ms"] for r in rounds),
        "setup.populate_ms": statistics.median(r["ready"]["populate_ms"] for r in rounds),
        "trace.unexplained_frac": 1.0
        - ratio(codec_us + queue_us + lock_us + exec_us + store_us + mean(commit_us), mean(lat)),
        "trace.overhead_frac": 1.0 - ratio(txn_rate(traced), txn_rate(plain)),
    }
    if not durable:
        # the storage and WAL layers are not on the in-memory path
        m.update({name: 0.0 for name, _ in metric_units("per_layer") if name not in m})
        return m

    def delta(key):
        return sum(storage_delta(r, key) for r in traced)

    hits, misses = delta("hits"), delta("misses")
    write_backs = delta("write_backs")
    written = delta("wal_bytes") + delta("dblwr_bytes") + write_backs * PAGE_BYTES
    m.update(
        {
            "storage.commit_us_p50": pct(commit_us, 0.50),
            "storage.commit_us_p99": pct(commit_us, 0.99),
            "storage.exec_us_per_txn": store_us,
            "storage.pool_hit_rate": ratio(hits, hits + misses),
            "storage.evictions_per_txn": ratio(delta("evictions"), commits),
            "storage.write_backs_per_txn": ratio(write_backs, commits),
            "storage.bytes_written_per_txn": ratio(written, commits),
            "storage.disk_mb": statistics.median(r["server"]["disk_bytes"] / 2**20 for r in rounds),
            "wal.records_per_txn": ratio(delta("wal_records"), commits),
            "wal.bytes_per_txn": ratio(delta("wal_bytes"), commits),
            "wal.forces_per_commit": ratio(delta("wal_flushes"), commits),
            "wal.mirror_records": statistics.median(
                r["server"]["storage"]["wal_records"] for r in traced
            ),
            "setup.open_ms": statistics.median(r["ready"]["open_ms"] for r in rounds),
        }
    )
    return m


def fs_type(path):
    try:
        res = subprocess.run(["stat", "-f", "-c", "%T", path], capture_output=True, text=True)
        return res.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def git_sha():
    if not os.path.exists(".git"):
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env)
        return res.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_benchmark(workload, seed, seconds, trace):
    """Runs rounds until `seconds` of timed load; returns the result dict."""
    rundir = os.path.join(RUN_ROOT, "%d-%s" % (os.getpid(), workload))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        started = time.perf_counter()
        rounds = []
        timed_s = 0.0
        while len(rounds) < MIN_ROUNDS or (
            timed_s < seconds and time.perf_counter() - started < START_BUDGET_S
        ):
            traced = trace and len(rounds) % 2 == 1
            r = run_round(workload, seed, len(rounds), traced, rundir)
            rounds.append(r)
            timed_s += (r["load"]["w1_ns"] - r["load"]["w0_ns"]) / 1e9
            log(
                "round %d%s: %s"
                % (
                    len(rounds) - 1,
                    " (traced)" if traced else "",
                    " ".join("%s=%.4g" % kv for kv in end_to_end([r]).items()),
                )
            )
        fstype = fs_type(rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass

    problems = sorted({p for r in rounds for p in r["problems"]})
    attempted = sum(r["load"]["sent"] for r in rounds)
    failed = sum(
        r["load"][k] for r in rounds for k in ("aborted", "rejected", "failed", "unanswered")
    )
    samples = sum(len(r["load"]["lat_ns"]) for r in rounds if not r["traced"])
    last = rounds[-1]
    durable = on_disk(rounds)
    provenance = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "traced_rounds": sum(1 for r in rounds if r["traced"]),
        "timed_s": round(timed_s, 3),
        "latency_samples": samples,
        "nproc": os.cpu_count(),
        "recommended_domain_count": last["server"]["recommended_domains"],
        "ocaml": last["server"]["ocaml"],
        "git_sha": git_sha(),
        "data_dir_fs": fstype,
        "flush_policy": "Buffered (no fsync)" if durable else "none (in-memory store)",
    }
    if durable:
        st = last["ready"]["storage"]
        provenance["data_pages"] = st["data_pages"]
        provenance["pool_frames"] = st["pool_pages"]
        provenance["disk_mb"] = statistics.median(r["server"]["disk_bytes"] / 2**20 for r in rounds)
    if trace:
        metrics, units = per_layer(rounds), metric_units("per_layer")
    else:
        metrics, units = end_to_end(rounds), metric_units("end_to_end")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "provenance": provenance,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def report(res):
    print("provenance: " + json.dumps(res["provenance"], sort_keys=True))
    for p in res["problems"]:
        print("CHECK FAILED: " + p)
    for name, m in res["metrics"].items():
        print("%-32s %14.4f %s" % (name, m["value"], m["unit"]))
    if "disk_mb" in res["provenance"]:
        print("%-32s %14.4f %s" % ("disk_mb", res["provenance"]["disk_mb"], "MiB"))


def spread(workloads, runs, seconds):
    """Repeats each workload with seeds 1..runs; prints median and quartiles."""
    ok = True
    units = metric_units("end_to_end")
    for w in workloads:
        values = {name: [] for name, _ in units}
        for seed in range(1, runs + 1):
            res = run_benchmark(w, seed, seconds, False)
            ok = ok and res["correct"]
            for p in res["problems"]:
                log("%s seed %d: CHECK FAILED: %s" % (w, seed, p))
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            log("%s seed %d: %s" % (w, seed, json.dumps({k: v[-1] for k, v in values.items()})))
        print("== %s (%d runs, %d s each)" % (w, runs, seconds))
        for name, unit in units:
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(
                "%-14s median %12.4f %-4s q1 %12.4f q3 %12.4f spread %.4f"
                % (name, med, unit, q1, q3, (q3 - q1) / med if med else 0.0)
            )
    return ok


def main():
    try:
        with open("BENCHMARK.json") as f:
            SPEC.update(json.load(f))
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    workloads = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spread", type=int, metavar="N", help="repeat each workload N times")
    args = ap.parse_args()
    try:
        build()
        if args.spread:
            wl = [args.workload] if args.workload else workloads
            return 0 if spread(wl, args.spread, args.seconds) else 1
        if not args.workload:
            ap.error("--workload is required")
        res = run_benchmark(args.workload, args.seed, args.seconds, args.trace == 1)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        stop_all()
    report(res)
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": res["metrics"],
            }
        )
    )
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
