#!/usr/bin/env python3
"""Wire benchmark: builds the server and the load generator from source,
runs one workload and prints one JSON result line.

    python3 wirebench/run.py --workload vote_wire --seed 1 --seconds 20 --trace 0
    python3 wirebench/run.py --selftest

--trace 0 runs the gated measurement: a benchmark-owned server process
(wb_server) and a separate one-thread load generator (wb_gen). It prints
every end-to-end metric. --trace 1 runs the traced, in-process run
(wb_trace) and prints every per-layer metric plus a stage budget. Both
first run the self-tests and exit non-zero, without a result line, when a
self-test or an output check fails. See wirebench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "wirebench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# name -> unit. The traced run prints PER_LAYER, the gated run END_TO_END.
# p90 and p99 are in the context line only: see README.md for why.
END_TO_END = {
    "throughput_tps": "1/s",
    "p50_us_light": "us",
    "p50_us_heavy": "us",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "server.frames_per_batch": "count",
    "server.busy_shed_ratio": "ratio",
    "server.decode_ns": "ns",
    "server.result_encode_ns": "ns",
    "server.wire_share_pct": "%",
    "server.wire_vs_inproc": "ratio",
    "client.encode_ns": "ns",
    "client.decode_ns": "ns",
    "client.wireclient_tps": "1/s",
    "cluster.route_ns": "ns",
    "cluster.partition_skew": "ratio",
    "engine.inproc_tps": "1/s",
    "engine.inline_us_per_txn": "us",
    "engine.queue_wait_us_p50": "us",
    "engine.execute_us_p50": "us",
    "engine.commit_hooks_us_p50": "us",
    "engine.queue_high_watermark": "count",
    "engine.producer_blocks": "count",
    "engine.txns_per_request": "ratio",
    "engine.boundary_bytes_per_txn": "bytes",
    "log.flushes_per_kcommit": "count",
    "log.bytes_per_commit": "bytes",
    "log.append_us_p50": "us",
    "log.fsync_us_p50": "us",
    "log.replay_records_per_s": "1/s",
    "streaming.internal_per_client": "ratio",
    "streaming.abort_ratio": "ratio",
    "query.update_by_key_us": "us",
    "query.index_scan_ns": "ns",
    "obs.traced_tps_ratio": "ratio",
    "gen.late_us_max": "us",
}


class BenchError(Exception):
    pass


def log(msg):
    print(f"wirebench: {msg}", file=sys.stderr, flush=True)


def load_config():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


# ---- build -----------------------------------------------------------------


def build():
    """Configures (Release) and builds the benchmark package from source."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cluster", "cluster.h")):
        raise BenchError(f"no program sources under {ROOT}/src; "
                         "run from the root of a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise BenchError(f"{tool} not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 2)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError(f"refusing a {build_type!r} build; Release only")
    return build_type


def cache_value(key):
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return None


def binary(name):
    return os.path.join(BUILD_DIR, name)


# ---- stamps ----------------------------------------------------------------


def source_digest():
    """sha256 over src/ and this package: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice.
    return fields[7], sum(fields[:8])


def load_average():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


# ---- processes -------------------------------------------------------------


def stop(proc):
    if proc is not None and proc.poll() is None:
        proc.kill()
    if proc is not None:
        proc.wait()


def bench_cpu():
    """The one CPU every gated process runs on: the highest-numbered CPU
    this process may use."""
    return max(os.sched_getaffinity(0))


# A vCPU that halts between requests waits for the hypervisor when it is
# woken, and on a shared host that wait (steal time) moved latencies by
# several times. So the server and the generator share one CPU, which the
# generator never lets halt: it spins at idle priority, and the kernel
# hands the CPU to a server thread the moment one wakes. See README.md.
def pin_server():
    os.sched_setaffinity(0, {bench_cpu()})


def pin_generator():
    os.sched_setaffinity(0, {bench_cpu()})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))


def run_pair(workload, seed, wl, common, seconds, tag):
    """One server process plus one generator process. Returns (gen, server)
    reports. The generator starts first and waits for the port on stdin,
    so set-up time does not include starting it. A generator that ran late
    still drained its session and reports with too_late set."""
    workdir = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}-{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    gen_cmd = [binary("wb_gen"), "--workload", workload, "--seed", str(seed),
               "--connections", str(wl["connections"]),
               "--window", str(wl["window"]),
               "--warmup-s", str(common["warmup_s"]),
               "--closed-s", f"{seconds * common['closed_share']:.3f}",
               "--open-warm-s", str(common["open_warm_s"]),
               "--light-rate", str(wl["light_rate"]),
               "--light-s", f"{seconds * common['light_share']:.3f}",
               "--heavy-rate", str(wl["heavy_rate"]),
               "--heavy-s", f"{seconds * common['heavy_share']:.3f}"]
    gen = srv = None
    try:
        gen = subprocess.Popen(gen_cmd, stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True,
                               preexec_fn=pin_generator)
        srv = subprocess.Popen(
            [binary("wb_server"), "--workload", workload, "--dir", workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=pin_server)
        ready = srv.stdout.readline().split()
        if len(ready) != 3 or ready[0] != "READY":
            raise BenchError(f"server did not come up: {ready}")
        gen_out, _ = gen.communicate(f"{ready[1]} {ready[2]}\n",
                                     timeout=seconds + 60)
        srv_out, _ = srv.communicate(timeout=60)  # closes its stdin
        gen_report = parse_tagged(gen_out, "GEN")
        srv_report = parse_tagged(srv_out, "REPORT")
        if not gen_report.get("too_late") and (
                gen.returncode != 0 or not gen_report.get("ok")):
            raise BenchError(f"generator failed: {gen_report.get('error')}")
        if srv.returncode != 0:
            raise BenchError(f"server exited {srv.returncode}")
        return gen_report, srv_report
    except subprocess.TimeoutExpired:
        raise BenchError("a benchmark process timed out")
    finally:
        stop(gen)
        stop(srv)
        shutil.rmtree(workdir, ignore_errors=True)


def parse_tagged(text, tag):
    for line in text.splitlines():
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise BenchError(f"no {tag} line in output")


# ---- output checks ---------------------------------------------------------


def check_outputs(workload, gen, srv):
    """Returns a list of failed output checks (empty when all hold)."""
    bad = []
    state = srv["state"]
    acked = gen["acked_counts"]
    if gen["output_errors"]:
        bad.append(f"{gen['output_errors']} responses contradict the "
                   "generator's validity marks")
    if not state.get("read_ok"):
        bad.append(f"server state unreadable: {state.get('read_error')}")
    if state["counts"] != acked:
        bad.append("per-contestant committed votes differ from the "
                   "generator's acknowledged commits")
    if workload in ("vote_wire", "vote_durable"):
        if not state["invariant_ok"]:
            bad.append(f"voter invariant: {state['invariant']}")
        if gen["server_committed_delta"] != gen["acked_commits"]:
            bad.append(f"server committed delta {gen['server_committed_delta']}"
                       f" != acknowledged commits {gen['acked_commits']}")
    if workload == "vote_durable":
        if not srv.get("recovered_ok"):
            bad.append(f"recovery failed: {srv.get('recover_error')}")
        elif any(r < a for r, a in zip(srv["recovered_counts"], acked)):
            bad.append("recovery lost acknowledged votes")
    if workload == "leaderboard_wire":
        total = state["total_valid_votes"]
        if total != gen["acked_commits"]:
            bad.append(f"TotalValidVotes {total} != acknowledged valid "
                       f"votes {gen['acked_commits']}")
        expect_active = state["contestants"] - total // state["delete_every"]
        if state["active_contestants"] != expect_active or expect_active <= 1:
            bad.append(f"{state['active_contestants']} contestants active, "
                       f"expected {expect_active} (> 1)")
        counts = state["counts"]
        top = state["top"]
        on_board = {c for c, _ in top}
        if len(top) != 3 or any(counts[c] != n for c, n in top):
            bad.append(f"top board {top} disagrees with VoteCount")
        elif [n for _, n in top] != sorted((n for _, n in top), reverse=True):
            bad.append(f"top board {top} is not ordered")
        elif any(counts[c] > top[-1][1]
                 for c in range(len(counts)) if c not in on_board):
            bad.append(f"top board {top} misses a higher contestant")
    return bad


# ---- modes -----------------------------------------------------------------


def run_gated(workload, seed, seconds, cfg):
    """`rounds` independent server + generator rounds, each given an equal
    share of `seconds`, all on one CPU (see pin_server).

    throughput_tps and the p50s are the median over every 0.25 s bin of
    every round; setup_s and peak_rss_mb the median over the rounds. A
    round whose generator ran late drains, passes the output checks and
    reports no metrics; a run where more than half the rounds ran late
    fails, as does a round whose output checks fail. ok_ratio, attempted
    and failed count every round."""
    common = cfg["common"]
    wl = cfg["workloads"][workload]
    rounds = common["rounds"]
    per_round = seconds / rounds
    attempted = failed = 0
    detail = {"rounds": []}
    measured = []
    for r in range(rounds):
        steal0, total0 = cpu_ticks()
        gen, srv = run_pair(workload, seed * 1000 + r, wl, common,
                            per_round, f"r{r}")
        steal1, total1 = cpu_ticks()
        steal = (steal1 - steal0) / max(1, total1 - total0)
        bad = check_outputs(workload, gen, srv)
        if bad:
            raise BenchError(f"output check failed (round {r}): " +
                             "; ".join(bad))
        attempted += gen["attempted"]
        failed += gen["failed"]
        if gen.get("too_late"):
            log(f"round {r}: steal {steal:.1%}, late, no metrics: "
                f"{gen['error']}")
            detail["rounds"].append({"late": gen["error"],
                                     "steal_share": steal})
            continue
        phases = {p["name"]: p for p in gen["phases"]}
        closed, light, heavy = phases["closed"], phases["light"], phases["heavy"]
        round_metrics = {
            "throughput_tps": closed["tps_bin_median"],
            "p50_us_light": light["p50_us_bin_median"],
            "p50_us_heavy": heavy["p50_us_bin_median"],
            "setup_s": gen["setup_s"],
            "peak_rss_mb": srv["peak_rss_kb"] / 1024.0,
        }
        for p in (closed, light, heavy):
            p.pop("counters", None)
        entry = {
            "metrics": round_metrics,
            "steal_share": steal,
            "closed_tps_to_drained_queue": closed["throughput_tps"],
            "p90_us_light": light["p90_us_bin_median"],
            "p90_us_heavy": heavy["p90_us_bin_median"],
            "p99_us_light": [light["p99_us"], light["samples"]],
            "p99_us_heavy": [heavy["p99_us"], heavy["samples"]],
            "late_us_max": max(light["late_us_max"], heavy["late_us_max"]),
            "phases": [closed, light, heavy],
        }
        detail["rounds"].append(entry)
        measured.append(entry)
        log(f"round {r}: steal {steal:.1%}, " +
            ", ".join(f"{k} {round_metrics[k]:.6g}" for k in
                      ("throughput_tps", "p50_us_light", "p50_us_heavy")))
    if 2 * len(measured) < rounds:
        raise BenchError(f"{rounds - len(measured)} of {rounds} rounds ran "
                         f"late, over the generator's lateness limit")
    metrics = {name: statistics.median(e["metrics"][name] for e in measured)
               for name in ("setup_s", "peak_rss_mb")}
    for name, phase, key in (("throughput_tps", 0, "bin_tps"),
                             ("p50_us_light", 1, "bin_p50_us"),
                             ("p50_us_heavy", 2, "bin_p50_us")):
        metrics[name] = statistics.median(
            v for e in measured for v in e["phases"][phase][key])
    for name in ("p90_us_light", "p90_us_heavy"):
        detail[name] = statistics.median(e[name] for e in measured)
    metrics["ok_ratio"] = 1.0 - failed / attempted
    return metrics, detail, attempted, failed


def run_traced(workload, seed, seconds, cfg):
    common = cfg["common"]
    wl = cfg["workloads"][workload]
    workdir = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}-trace")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary("wb_trace"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--dir", workdir,
           "--connections", str(wl["connections"]),
           "--window", str(wl["window"]),
           "--light-rate", str(wl["light_rate"])]
    proc = None
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        out, _ = proc.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        raise BenchError("traced run timed out")
    finally:
        stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)
    for line in out.splitlines():
        if not line.startswith("TRACE "):
            print(line)
    report = parse_tagged(out, "TRACE")
    if proc.returncode != 0 or not report.get("ok"):
        raise BenchError(f"traced run failed: {report.get('error')}")
    return report["metrics"], report["detail"], report["attempted"], \
        report["failed"]


def selftest():
    """Checks of the benchmark itself: the C++ self-tests, metric names and
    that BENCHMARK.json lists exactly the metrics this command prints."""
    problems = []
    proc = subprocess.run([binary("wb_selftest")], capture_output=True,
                          text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        problems.append("wb_selftest failed: " + proc.stdout.strip())
    for name in list(END_TO_END) + list(PER_LAYER):
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} breaks [A-Za-z0-9_.-]+")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        problems.append(f"BENCHMARK.json unreadable: {e}")
        spec = None
    if spec is not None:
        for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != ours:
                problems.append(f"BENCHMARK.json {key} differs from the "
                                f"printed metrics: {sorted(set(listed) ^ set(ours))}"
                                " or units differ")
        missing = {w["name"] for w in spec["workloads"]} - \
            set(load_config()["workloads"])
        if missing:
            problems.append(f"BENCHMARK.json workloads {sorted(missing)} "
                            "have no settings in workloads.json")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    # On SIGTERM, unwind through the finally blocks that stop the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    load_at_start = load_average()
    try:
        build_type = build()
        problems = selftest()
        if problems:
            raise BenchError("self-test failed: " + "; ".join(problems))
        if args.selftest:
            log("self-tests pass")
            return 0
        cfg = load_config()
        if args.workload not in cfg["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}")
        nproc = os.cpu_count() or 1
        # Partition workers plus WireServer's one I/O thread.
        server_threads = (2 if args.workload != "leaderboard_wire" else 1) + 1
        if server_threads + 1 > nproc:
            raise BenchError(f"{server_threads} server threads + 1 generator "
                             f"thread exceed nproc={nproc}")
        os.makedirs(WORK_DIR, exist_ok=True)
        started = time.monotonic()
        if args.trace:
            metrics, detail, attempted, failed = run_traced(
                args.workload, args.seed, args.seconds, cfg)
            units = PER_LAYER
        else:
            metrics, detail, attempted, failed = run_gated(
                args.workload, args.seed, args.seconds, cfg)
            units = END_TO_END
        if set(metrics) != set(units):
            raise BenchError("printed metrics differ from the declared set: "
                             f"{sorted(set(metrics) ^ set(units))}")
        unmeasured = [name for name, value in metrics.items()
                      if value is None or not math.isfinite(value)]
        if unmeasured:
            raise BenchError(f"no measurement for {unmeasured}")
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": git_sha(),
            "source_digest": source_digest(),
            "build_type": build_type,
            "nproc": nproc,
            "load_average_at_start": load_at_start,
            "server_threads": server_threads,
            "generator_threads": 1,
            "gated_cpu": None if args.trace else bench_cpu(),
            "wall_s": round(time.monotonic() - started, 3),
            "workload_config": cfg["workloads"][args.workload],
            "detail": detail,
        }
        print("context " + json.dumps(context))
        result = {
            "correct": True,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        print(json.dumps(result), flush=True)
        return 0
    except (BenchError, subprocess.CalledProcessError, OSError,
            KeyError, ValueError) as e:
        log(f"FAILED: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
