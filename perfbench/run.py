#!/usr/bin/env python3
"""pipesched benchmark: four closed-loop workloads through the real entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the program from the enclosing source tree into .bench_build/ (the
first run configures and compiles; later runs find it up to date), makes
every input from --seed, runs the workload for --seconds, checks every
answer (check.py), and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload for
half the time with the program's own stage histograms read back, then
replays the same inputs in-process through perfbench_trace for the other
half, and reports the per-layer metrics. Workloads, metrics and reference
figures are described in perfbench/README.md.
"""

import argparse
import collections
import gc
import json
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

import check
import instances

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "runs")
PROGRAM = os.path.join(BUILD, "pipesched", "tools", "pipesched")
TRACER = os.path.join(BUILD, "perfbench_trace")
TARGETS = ["pipesched_cli", "perfbench_oracle", "perfbench_trace"]

IO_TIMEOUT = 60
SETUP_REPEATS = 10
WINDOW_S = 0.5

END_TO_END = [("rps", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("cpu_ms_per_req", "ms"), ("rss_mb", "MiB"), ("setup_s", "s"),
              ("front_hv", "ratio")]
STAGES = ["parse", "fingerprint", "cache_lookup", "queue_wait", "member_solve", "merge", "emit"]
MEMBERS = ["H1", "H2", "H3", "H4", "H5", "H6", "exact"]
PER_LAYER = ([("net.http_parse_us", "us"), ("net.response_bytes", "bytes"),
              ("io.parse_us_per_line", "us"), ("io.emit_us", "us"), ("io.format_real_ns", "ns"),
              ("service.fingerprint_us", "us"), ("service.cache_get_us", "us"),
              ("service.cache_put_us", "us"), ("service.result_hits", "1/req"),
              ("service.sub_units_reused", "1/req"), ("stream.coalesced", "1/req"),
              ("service.deduped", "1/req"), ("service.solve_ms", "ms"),
              ("service.units_per_request", "1/req")]
             + [(f"service.member_ms.{m}", "ms") for m in MEMBERS]
             + [("exact.enumerate_ms", "ms"), ("core.evaluate_ns", "ns"),
                ("core.delta_peek_ns", "ns")]
             + [(f"stage.{s}_us", "us") for s in STAGES + ["residual"]])

# Fixed set-up inputs: the same on every seed, so set-up time is fixed work.
SETUP_STREAM = "setup"
WARM_SET = 64           # warm_http: instances solved at set-up, re-POSTed when timed
WARMUP_REQUESTS = 64    # cold_http / resweep_stdio / batch_offline warm-up size
BATCH_SIZE = 24         # batch_offline: lines per batch file
BATCH_DISTINCT = 20     # ... of which distinct instances (the rest are duplicates)
BATCH_THREADS = 2       # batch --threads; perfbench_trace's batch mode uses the same
RESWEEP_POOL = 8        # resweep_stdio: instances per round (more than RESWEEP_WINDOW)
RESWEEP_SWEEPS = 3      # ... each requested under this many sweeps
RESWEEP_REPEATS = 4     # ... and this many lines per round sent twice
RESWEEP_QUEUE = 2       # serve --queue-capacity: the pump holds queue + workers lines
RESWEEP_WINDOW = 6      # lines in flight on the stdio stream (more than the pump holds)
SWEEPS = [(8, 3.0), (12, 2.0), (15, 3.0), (16, 3.0), (24, 3.0), (24, 4.0)]


class BenchError(Exception):
    pass


STARTED = []  # every program process this run launched, so none outlives it


def launch(command, **kwargs):
    proc = subprocess.Popen(command, **kwargs)
    STARTED.append(proc)
    return proc


def stop_all():
    for proc in STARTED:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


ALL_CPUS = sorted(os.sched_getaffinity(0))


def pin():
    """Runs this process, and every program process it launches until
    unpin(), on one CPU. The client and the program's threads then hand work
    to each other on a CPU that stays busy: on a virtual machine, a hand-off
    to an idle CPU waits for the host to wake it, and how long that takes
    varies from run to run far more than the program does (see README)."""
    os.sched_setaffinity(0, ALL_CPUS[-1:])


def unpin():
    os.sched_setaffinity(0, ALL_CPUS)


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


# -- build --------------------------------------------------------------------

def build():
    missing = [p for p in ("CMakeLists.txt", "src", "include", "tools")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError(f"program sources not found next to the benchmark: {missing}")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1), "--target"]
                   + TARGETS, stdout=sys.stderr, check=True)
    os.makedirs(WORK, exist_ok=True)


# -- process helpers ----------------------------------------------------------

def cpu_seconds(pid):
    """CPU time of a live process: the sum over its threads' scheduler
    statistics, which count nanoseconds where /proc/PID/stat counts ticks."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass  # the thread ended between listing and reading
    return total / 1e9


def reap(proc, timeout=IO_TIMEOUT):
    """Waits for `proc`; returns (exit code, rusage)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"{proc.args[1]} did not exit in {timeout} s")
        time.sleep(0.005)


def decile(values, k):
    """The k-th decile, interpolated between the values: the inclusive
    method never reads past the largest one, which matters in windows of
    only a few batch runs."""
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def setup_time(times):
    """The set-up figure of SETUP_REPEATS set-ups: their 90th percentile, the
    host's slow state (see Meter). Back-to-back set-ups of the same work vary
    from 0.22 to 0.43 s; over four rounds of 15, their median moved within
    0.28-0.38 s with the share of fast time, their 90th percentile within
    0.38-0.42 s."""
    return decile(times, 9)


def rusage_cpu(usage):
    return usage.ru_utime + usage.ru_stime


def percentiles(latencies):
    """(median, 90th percentile)."""
    return statistics.median(latencies), decile(latencies, 9)


class Meter:
    """Times a closed-loop phase in WINDOW_S windows. Each window records its
    completed requests, their latencies and the program's CPU time.

    The host's CPUs switch every second or so between a contended state and
    a faster one whose speed varies by up to 30 %; a run's share of fast time
    is luck. The contended state is steady, so each figure is read from the
    run's slowest tenth of windows: the 10th percentile of window throughput
    and the 90th percentile of window latency percentiles and CPU per
    request."""

    def __init__(self, cpu):
        self.cpu = cpu  # callable: the program's CPU seconds so far
        self.windows = []  # (seconds, requests, CPU seconds, latencies)
        self.latencies = []
        self.requests = 0
        self.start = self.mark = time.perf_counter()
        self.cpu_mark = cpu()

    def done(self, now, latency, requests=1):
        self.latencies.append(latency)
        self.requests += requests
        if now - self.mark >= WINDOW_S:
            self._close(now)

    def finish(self, now):
        """Closes the trailing window if it is at least half a window long."""
        if now - self.mark >= WINDOW_S / 2 and len(self.latencies) > 1:
            self._close(now)
        if len(self.windows) < 10:
            raise BenchError(f"the timed phase filled only {len(self.windows)} windows")

    def _close(self, now):
        cpu = self.cpu()
        self.windows.append((now - self.mark, self.requests, cpu - self.cpu_mark, self.latencies))
        self.mark, self.cpu_mark, self.requests, self.latencies = now, cpu, 0, []

    def all_latencies(self):
        return [x for w in self.windows for x in w[3]] + self.latencies

    def metrics(self):
        windows = [w for w in self.windows if len(w[3]) > 1]
        tails = [percentiles(w[3]) for w in windows]
        return {"rps": decile([n / t for t, n, _, _ in windows], 1),
                "latency_p50_ms": decile([p50 for p50, _ in tails], 9) * 1e3,
                "latency_p90_ms": decile([p90 for _, p90 in tails], 9) * 1e3,
                "cpu_ms_per_req": decile([c / n for _, n, c, _ in windows], 9) * 1e3}


def request_line(inst, **extra):
    return json.dumps({"text": inst.text, **extra})


# -- HTTP ---------------------------------------------------------------------

class HttpServer:
    """`pipesched serve --listen` on loopback, one worker; readiness is the
    'listening on' line on its stderr, read without polling."""

    def __init__(self):
        self.proc = launch([PROGRAM, "serve", "--listen", "127.0.0.1:0", "--threads", "1"],
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE)
        line = self.proc.stderr.readline().decode()
        if "listening on" not in line:
            self.stop()
            raise BenchError(f"server did not start: {line.strip()!r}")
        host, port = line.split("listening on", 1)[1].strip().rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=IO_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pending = b""

    @staticmethod
    def post_bytes(line):
        body = (line + "\n").encode()
        return (b"POST /solve HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-ndjson\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)) + body

    def exchange(self, wire):
        """Sends one request; returns (status, body) of its response."""
        self.sock.sendall(wire)
        buf = self.pending
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("server closed the connection")
            buf += chunk
        head = buf[:end]
        length = 0
        for field in head.split(b"\r\n")[1:]:
            name, _, value = field.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        rest = buf[end + 4:]
        while len(rest) < length:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("server closed the connection mid-response")
            rest += chunk
        self.pending = rest[length:]
        return int(head[9:12]), rest[:length]

    def stats(self):
        status, body = self.exchange(b"GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n")
        if status != 200:
            raise BenchError(f"GET /stats answered {status}")
        return json.loads(body)

    def stop(self):
        """SIGTERM (graceful drain) and wait; returns the rusage."""
        if getattr(self, "sock", None):
            self.sock.close()
        self.proc.send_signal(signal.SIGTERM)
        code, usage = reap(self.proc)
        self.proc.stderr.close()
        if code != 0:
            raise BenchError(f"server exited with {code}")
        return usage


def http_setup(lines, keep):
    """Launch -> ready -> `lines` answered, SETUP_REPEATS times; returns the
    set-up time (setup_time) and the last server (kept running when `keep`)."""
    wires = [HttpServer.post_bytes(line) for line in lines]
    times = []
    server = None
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        server = HttpServer()
        for wire in wires:
            status, _ = server.exchange(wire)
            if status != 200:
                raise BenchError(f"set-up request answered {status}")
        times.append(time.perf_counter() - start)
        if k + 1 < SETUP_REPEATS or not keep:
            server.stop()
    return setup_time(times), server


def http_timed(server, wires, seconds):
    """Closed loop: one POST at a time until `seconds` pass or the inputs run
    out. Returns (meter, [(status, body)], client CPU seconds)."""
    responses = []
    client0 = time.process_time()
    gc.disable()
    meter = Meter(lambda: cpu_seconds(server.proc.pid))
    deadline = meter.start + seconds
    end = meter.start
    for wire in wires:
        sent = time.perf_counter()
        if sent >= deadline:
            break
        response = server.exchange(wire)
        end = time.perf_counter()
        meter.done(end, end - sent)
        responses.append(response)
    meter.finish(end)
    gc.enable()
    return meter, responses, time.process_time() - client0


def stage_means(before, after, requests):
    """Per-request mean of each stage.* histogram over the timed phase, in us."""
    out = {}
    for stage in STAGES:
        name = f"stage.{stage}"
        total = after["metrics"]["histograms"].get(name, {}).get("sum", 0)
        if before is not None:
            total -= before["metrics"]["histograms"].get(name, {}).get("sum", 0)
        out[f"stage.{stage}_us"] = total / 1e3 / max(requests, 1)
    return out


# -- workloads ----------------------------------------------------------------

class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []      # checker findings
        self.metrics = {}       # end-to-end metrics
        self.layers = {}        # per-layer metrics read from the program (traced runs)
        self.trace_lines = []   # the request lines to replay in-process (traced runs)
        self.trace_batch = False


def parse_outcome_lines(blob):
    return [json.loads(line) for line in blob.splitlines() if line.strip()]


def finish_http(res, insts, responses, references=None, counts=None):
    """Checker items {k: (instance, outcome, reference)} for the responses. A
    POST fails when it is answered with another status than 200 or with a
    line that is not ok; it is counted in res.failed (`counts[k]` times when
    given: the times that response was received) and not checked."""
    items = {}
    for k, (status, body) in enumerate(responses):
        lines = parse_outcome_lines(body) if status == 200 else []
        if status != 200 or not all(o.get("ok") for o in lines):
            res.failed += counts[k] if counts is not None else 1
        elif len(lines) != 1:
            res.problems.append(f"POST {k} answered {len(lines)} lines")
        else:
            ref = references[k] if references is not None else None
            items[k] = (insts[k], lines[0], ref)
    return items


def end_to_end(meter, rss_kib, setup_s, hv_values):
    return {**meter.metrics(), "rss_mb": rss_kib / 1024, "setup_s": setup_s,
            "front_hv": statistics.fmean(hv_values)}


def http_layers(res, meter, before, after):
    """Stage means over the timed phase, the residual against the client's
    mean latency, and the coalescing rate, from two GET /stats snapshots."""
    requests = len(meter.all_latencies())
    res.layers = stage_means(before, after, requests)
    res.layers["stage.residual_us"] = (statistics.fmean(meter.all_latencies()) * 1e6
                                       - sum(res.layers.values()))
    res.layers["stream.coalesced"] = (after["scheduler"]["coalesced"]
                                      - before["scheduler"]["coalesced"]) / requests


def run_cold_http(args, res, tracing):
    setup_insts = instances.generate(0, WARMUP_REQUESTS, SETUP_STREAM)
    pool = instances.generate(args.seed, int(args.seconds * 1200) + 200, "cold")
    wires = [HttpServer.post_bytes(request_line(i)) for i in pool]
    pin()
    setup_s, server = http_setup([request_line(i) for i in setup_insts], keep=True)
    before = server.stats() if tracing else None
    meter, responses, client = http_timed(server, wires, args.seconds)
    after = server.stats() if tracing else None
    usage = server.stop()
    unpin()
    res.attempted = len(responses)
    insts = pool[:len(responses)]
    items = list(finish_http(res, insts, responses).values())
    res.problems += check.check(items)
    log(f"cold_http: {len(responses)} requests, client CPU {client / len(responses) * 1e6:.1f} us/req, "
        f"exact-eligible share {sum(i.exact_eligible() for i in insts) / len(insts):.3f}")
    res.metrics = end_to_end(meter, usage.ru_maxrss, setup_s,
                             [check.hypervolume(i, o) for i, o, _ in items])
    if tracing:
        http_layers(res, meter, before, after)
        res.trace_lines = [request_line(i) for i in insts]


def reference_outcomes(lines, tag):
    """The same requests solved with --no-cache --share-subresults off, in one batch."""
    unique = list(dict.fromkeys(lines))
    path = os.path.join(WORK, f"{tag}-reference.jsonl")
    with open(path, "w") as f:
        f.write("\n".join(unique) + "\n")
    out = subprocess.run([PROGRAM, "batch", "--requests", path, "--no-cache",
                          "--share-subresults", "off", "--threads", str(os.cpu_count() or 1),
                          "--json"], capture_output=True, timeout=150)
    if out.returncode not in (0, 1):  # 1: some request failed; the document lists it
        raise BenchError(f"reference batch exited with {out.returncode}: {out.stderr[-300:]!r}")
    answers = json.loads(out.stdout)["requests"]
    return dict(zip(unique, answers))


def run_warm_http(args, res, tracing):
    warm = instances.generate(0, WARM_SET, "warm")
    lines = [request_line(i) for i in warm]
    wires = [HttpServer.post_bytes(line) for line in lines]
    rng = random.Random(f"warm-order:{args.seed}")
    order = []
    while len(order) < args.seconds * 12000 + WARM_SET:
        round_ = list(range(WARM_SET))
        rng.shuffle(round_)
        order += round_
    pin()
    setup_s, server = http_setup(lines, keep=True)
    before = server.stats() if tracing else None
    meter, responses, client = http_timed(server, [wires[k] for k in order], args.seconds)
    after = server.stats() if tracing else None
    usage = server.stop()
    unpin()
    res.attempted = len(responses)
    # Answers repeat; each distinct (instance, response) pair is checked once
    # and counts as often as it was received.
    received = collections.Counter(zip(order, responses))
    keys = list(received)
    refs = reference_outcomes(lines, "warm_http")
    items = finish_http(res, [warm[k] for k, _ in keys], [r for _, r in keys],
                        [refs[lines[k]] for k, _ in keys], [received[key] for key in keys])
    res.problems += check.check(list(items.values()))
    log(f"warm_http: {len(responses)} requests, client CPU "
        f"{client / len(responses) * 1e6:.1f} us/req, {len(keys)} distinct answers")
    res.metrics = end_to_end(meter, usage.ru_maxrss, setup_s,
                             [check.hypervolume(i, o) for j, (i, o, _) in items.items()
                              for _ in range(received[keys[j]])])
    if tracing:
        http_layers(res, meter, before, after)
        res.trace_lines = lines + [lines[k] for k in order[:len(responses)]]


def resweep_stream(seed, count):
    """Rounds of RESWEEP_POOL fresh instances requested in RESWEEP_SWEEPS
    passes, each pass under another sweep per instance and in the same order.
    A pass is longer than the lines in flight, so an instance's earlier
    sweeps have finished before the next one starts and the sub-result cache
    decides what is reused, not thread timing. RESWEEP_REPEATS lines per
    round are sent twice in a row, so the repeat meets its original in
    flight. Returns parallel lists of instances and request lines."""
    source = instances.Stream(seed, "resweep")
    rng = random.Random(f"resweep-sweeps:{seed}")
    insts, lines = [], []
    while len(lines) < count:
        pool = [source.next() for _ in range(RESWEEP_POOL)]
        sweeps = [rng.sample(SWEEPS, RESWEEP_SWEEPS) for _ in pool]
        round_ = [(inst, request_line(inst, points=sweep[k][0], range=sweep[k][1]))
                  for k in range(RESWEEP_SWEEPS) for inst, sweep in zip(pool, sweeps)]
        repeated = set(rng.sample(range(len(round_)), RESWEEP_REPEATS))
        for k, (inst, line) in enumerate(round_):
            for _ in range(2 if k in repeated else 1):
                insts.append(inst)
                lines.append(line)
    return insts, lines


def stdio_serve(extra=()):
    # The pump emits a finished answer only once it has pulled the next line
    # or its window (queue + workers) is full, so the client keeps more lines
    # in flight than that window or the stream stalls.
    return launch([PROGRAM, "serve", "--threads", "2", "--queue-capacity", str(RESWEEP_QUEUE),
                   *extra], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                  stderr=subprocess.DEVNULL)


def run_resweep_stdio(args, res, tracing):
    setup_lines = [request_line(i) for i in
                   instances.generate(0, WARMUP_REQUESTS, SETUP_STREAM)]
    setup_blob = ("\n".join(setup_lines) + "\n").encode()
    times = []
    pin()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = stdio_serve()
        out, _ = proc.communicate(setup_blob, timeout=IO_TIMEOUT)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or len(out.splitlines()) != len(setup_lines):
            raise BenchError(f"set-up stream failed with {proc.returncode}")
    insts, lines = resweep_stream(args.seed, int(args.seconds * 1500) + 100)
    stats_path = os.path.join(WORK, "resweep-stats.jsonl")
    proc = stdio_serve(["--stats-output", stats_path, "--metrics", "on"] if tracing else [])
    meter, answers, client = stream_timed(proc, lines, args.seconds)
    code, usage = reap(proc)
    unpin()
    outcomes = [json.loads(a) for a in answers]
    res.attempted = len(outcomes)
    res.failed = sum(not o.get("ok") for o in outcomes)
    if code != 0 and not (code == 1 and res.failed):  # serve exits 1 when a line failed
        res.problems.append(f"serve exited with {code}")
    sent = lines[:len(outcomes)]
    refs = reference_outcomes(sent, "resweep_stdio")
    items = [(insts[k], o, refs[sent[k]]) for k, o in enumerate(outcomes) if o.get("ok")]
    misplaced = [k for k, o in enumerate(outcomes) if o.get("index") != k]
    if misplaced:
        res.problems.append(f"answer {misplaced[0]} is out of input order")
    res.problems += check.check(items)
    log(f"resweep_stdio: {len(outcomes)} lines, client CPU "
        f"{client / len(outcomes) * 1e6:.1f} us/line, {len(set(sent))} distinct requests")
    res.metrics = end_to_end(meter, usage.ru_maxrss, setup_time(times),
                             [check.hypervolume(i, o) for i, o, _ in items])
    if tracing:
        with open(stats_path) as f:
            snapshot = json.loads(f.read().splitlines()[-1])
        res.layers = stage_means(None, snapshot, len(outcomes))
        res.layers["stage.residual_us"] = (statistics.fmean(meter.all_latencies()) * 1e6
                                           - sum(res.layers.values()))
        res.layers["stream.coalesced"] = snapshot["scheduler"]["coalesced"] / len(outcomes)
        res.trace_lines = sent


def stream_timed(proc, lines, seconds):
    """Feeds `lines` to a stdio serve process keeping RESWEEP_WINDOW in
    flight; stops feeding after `seconds`, closes stdin and reads the rest.
    One thread multiplexes both pipes. Returns (meter, answer lines, client
    CPU seconds)."""
    sel = selectors.DefaultSelector()
    out_fd, in_fd = proc.stdout.fileno(), proc.stdin.fileno()
    os.set_blocking(out_fd, False)
    sel.register(out_fd, selectors.EVENT_READ)
    client0 = time.process_time()
    sent_at, answers = [], []
    buf = b""
    gc.disable()
    meter = Meter(lambda: cpu_seconds(proc.pid))
    deadline = meter.start + seconds
    last = meter.start
    while True:
        if proc.stdin and (time.perf_counter() >= deadline or len(sent_at) == len(lines)):
            proc.stdin.close()
            proc.stdin = None
        while proc.stdin and len(sent_at) - len(answers) < RESWEEP_WINDOW:
            os.write(in_fd, (lines[len(sent_at)] + "\n").encode())
            sent_at.append(time.perf_counter())
            if len(sent_at) == len(lines):
                break
        if not proc.stdin and len(answers) == len(sent_at):
            break
        if not sel.select(IO_TIMEOUT):
            raise BenchError("serve stopped answering")
        chunk = os.read(out_fd, 1 << 20)
        if not chunk:
            break
        last = time.perf_counter()
        buf += chunk
        *complete, buf = buf.split(b"\n")
        for line in complete:
            meter.done(last, last - sent_at[len(answers)])
            answers.append(line)
    meter.finish(last)
    gc.enable()
    sel.close()
    if len(answers) != len(sent_at):
        raise BenchError(f"serve answered {len(answers)} of {len(sent_at)} lines")
    return meter, answers, time.process_time() - client0


def batch_files(seed, count):
    """`count` batch files of BATCH_SIZE lines: BATCH_DISTINCT fresh instances
    plus in-batch duplicates of some of them, shuffled."""
    source = instances.Stream(seed, "batch")
    rng = random.Random(f"batch-duplicates:{seed}")
    files = []
    for k in range(count):
        insts = [source.next() for _ in range(BATCH_DISTINCT)]
        insts += [rng.choice(insts) for _ in range(BATCH_SIZE - BATCH_DISTINCT)]
        rng.shuffle(insts)
        path = os.path.join(WORK, f"batch-{k}.jsonl")
        with open(path, "w") as f:
            f.write("\n".join(request_line(i) for i in insts) + "\n")
        files.append((path, insts))
    return files


def run_batch(path, tracing):
    """One `pipesched batch` process; returns (wall seconds, rusage, parsed
    JSON). The command exits 1 when some requests fail; its document still
    lists every outcome, and the failed ones are counted by the caller."""
    command = [PROGRAM, "batch", "--requests", path, "--threads", str(BATCH_THREADS), "--json"]
    if tracing:
        command += ["--trace", "on"]
    start = time.perf_counter()
    proc = launch(command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                  stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    code, usage = reap(proc)
    wall = time.perf_counter() - start
    try:
        doc = json.loads(out) if code in (0, 1) else None
    except ValueError:
        doc = None
    if doc is None:
        raise BenchError(f"batch exited with {code} on {path} without a JSON document")
    return wall, usage, doc


def run_batch_offline(args, res, tracing):
    setup_path = os.path.join(WORK, "batch-setup.jsonl")
    with open(setup_path, "w") as f:
        f.write("\n".join(request_line(i) for i in
                          instances.generate(0, WARMUP_REQUESTS, SETUP_STREAM)) + "\n")
    files = batch_files(args.seed, int(args.seconds * 25) + 10)
    pin()
    setup_s = setup_time([run_batch(setup_path, False)[0] for _ in range(SETUP_REPEATS)])
    items, docs, rss = [], [], 0
    cpu = [0.0]
    meter = Meter(lambda: cpu[0])
    for path, insts in files:
        if time.perf_counter() - meter.start >= args.seconds:
            break
        wall, usage, doc = run_batch(path, tracing)
        cpu[0] += rusage_cpu(usage)
        rss = max(rss, usage.ru_maxrss)
        meter.done(time.perf_counter(), wall, len(insts))
        if len(doc["requests"]) != len(insts):
            raise BenchError(f"batch answered {len(doc['requests'])} of {len(insts)} lines")
        res.attempted += len(insts)
        res.failed += sum(not o.get("ok") for o in doc["requests"])
        items += [(i, o, None) for i, o in zip(insts, doc["requests"]) if o.get("ok")]
        docs.append(doc)
    meter.finish(time.perf_counter())
    unpin()
    res.problems += check.check(items)
    log(f"batch_offline: {len(docs)} batches of {BATCH_SIZE} lines")
    res.metrics = end_to_end(meter, rss, setup_s, [check.hypervolume(i, o) for i, o, _ in items])
    if tracing:
        # Stage slices come from each fresh solve's own trace (deduplicated
        # and cached answers share their owner's); the residual is the
        # worker time (BATCH_THREADS x wall) the stages leave unexplained.
        sums = dict.fromkeys(STAGES, 0.0)
        for doc in docs:
            for o in doc["requests"]:
                if o.get("deduped") or o.get("from_cache"):
                    continue
                for stage, seconds in o.get("trace", {}).get("stages", {}).items():
                    sums[stage] += seconds
        res.layers = {f"stage.{s}_us": v * 1e6 / res.attempted for s, v in sums.items()}
        res.layers["stage.residual_us"] = (BATCH_THREADS * sum(meter.all_latencies()) * 1e6
                                           / res.attempted
                                           - sum(res.layers.values()))
        res.layers["stream.coalesced"] = 0.0  # the batch path has no stream scheduler
        res.trace_lines = [request_line(i) for _, insts in files[:len(docs)] for i in insts]
        res.trace_batch = True


WORKLOADS = {
    "cold_http": run_cold_http,
    "warm_http": run_warm_http,
    "resweep_stdio": run_resweep_stdio,
    "batch_offline": run_batch_offline,
}


def replay_layers(res, seconds):
    """perfbench_trace over the lines the workload sent."""
    path = os.path.join(WORK, "trace-input.jsonl")
    with open(path, "w") as f:
        f.write("\n".join(res.trace_lines) + "\n")
    command = [TRACER, "--input", path, "--seconds", str(seconds)]
    if res.trace_batch:
        command += ["--batch-size", str(BATCH_SIZE)]
    out = subprocess.run(command, capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        raise BenchError(f"perfbench_trace failed: {out.stderr.strip()}")
    layers = json.loads(out.stdout.splitlines()[-1])
    log(f"replayed {layers.pop('requests')} requests in-process")
    return layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        self_test = check.self_test()
        res = Result()
        tracing = args.trace == 1
        if tracing:
            args.seconds /= 2
        WORKLOADS[args.workload](args, res, tracing)
        if tracing:
            layers = replay_layers(res, args.seconds)
            layers.update(res.layers)
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        else:
            metrics = {name: {"value": res.metrics[name], "unit": unit}
                       for name, unit in END_TO_END}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as error:
        log(f"error: {error}")
        return 1
    finally:
        stop_all()
    for problem in self_test + res.problems[:20]:
        log(f"check: {problem}")
    if len(res.problems) > 20:
        log(f"check: ... {len(res.problems) - 20} more")
    print(json.dumps({"correct": not self_test and not res.problems, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
