"""The fishbone benchmark: one command, three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Workloads (see README.md): ``certify`` (poset core and spine certificates
on 200-256 element posets), ``families`` (window building, claims and
single-pair queries of P1..P5) and ``battery`` (``verify all``, ``sweep``
and ``ot check`` through the command-line entry point).

The seed only shapes the inputs, which this process generates and then
hands to the measured process.  Every round of a workload runs in a fresh
interpreter (``worker.py``), so the package's memo tables start cold each
time, as for a command-line user.  Rounds repeat until ``--seconds`` have
passed; each end-to-end metric is the median over rounds.  Outputs are
checked here against the oracles in ``oracles.py``, outside the measured
process; a wrong or raising operation counts as failed and the run goes on.

With ``--trace 1`` untraced and traced rounds alternate: the traced rounds
give the per-layer metrics, and their end-to-end numbers minus the
untraced ones give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import networkx  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gen  # noqa: E402
import oracles  # noqa: E402

SETUP_SAMPLES = 11
RUN_LIMIT_S = 150.0  # whole run, so that it ends well inside three minutes
LAYERS = ("poset", "partition", "families", "ordertype", "verify", "acceptance", "cli")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(arg: str, payload: bytes | None, timeout: float) -> tuple[float, dict]:
    """Start a fresh interpreter on worker.py; returns (start time, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), arg]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(), cwd=ROOT
    )
    try:
        out, err = proc.communicate(payload, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise SystemExit(f"worker exited with {proc.returncode}")
    return started, json.loads(out)


def _bits(m: np.ndarray) -> str:
    return base64.b64encode(np.packbits(m, axis=None).tobytes()).decode()


def _unbits(text: str, n: int) -> np.ndarray:
    flat = np.unpackbits(np.frombuffer(base64.b64decode(text), np.uint8))[: n * n]
    return flat.reshape(n, n).astype(bool)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# The speed probe's fastest time on the machine the bounds were set on (2
# CPUs, Python 3.11, numpy 2.4).  Only a scale: a different value would
# multiply every timing by the same constant.
PROBE_REFERENCE_S = 0.0027
PROBE_WINDOW_S = 0.25


def at_reference_speed(ops: list[dict], probes: list) -> None:
    """Rescale each operation's ``dt`` to the reference machine speed.

    The machine the benchmark runs on is shared, and other tenants slow it
    by up to half for seconds at a time, which would swamp the program's
    own changes.  The worker times a fixed piece of work between
    operations; each duration is multiplied by PROBE_REFERENCE_S over the
    median probe reading within PROBE_WINDOW_S of the operation (or the
    nearest reading).  The raw duration stays in ``dt_raw``.
    """
    for o in ops:
        if "dt" not in o:
            continue
        lo, hi = o["t0"] - PROBE_WINDOW_S, o["t0"] + o["dt"] + PROBE_WINDOW_S
        near = [s for t, s in probes if lo <= t <= hi]
        if not near:
            near = [min(probes, key=lambda p: abs(p[0] - o["t0"]))[1]]
        o["dt_raw"] = o["dt"]
        o["dt"] = o["dt"] * PROBE_REFERENCE_S / _median(near)


# ----------------------------------------------------------------- workloads
#
# Each workload gives the worker's input, checks one operation (returning
# the layers whose output was wrong), and turns one round's operations into
# the samples of its three end-to-end figures and its per-layer counts.


@dataclass
class Figures:
    """One round's samples of the three figures: (work units, seconds)
    pairs for ``work_per_s``, and timings for ``task_s`` and ``short_s``.
    Timings may come as (group, seconds) pairs instead (see
    grouped_median)."""

    work: list
    task: list
    short: list


def grouped_median(xs: list) -> float:
    """The median of the samples; of (group, seconds) pairs, the mean over
    the groups of each group's median, so that groups of unequal cost
    weigh the same however their samples fall around the median."""
    if xs and isinstance(xs[0], (tuple, list)):
        groups: dict = defaultdict(list)
        for g, x in xs:
            groups[g].append(x)
        return statistics.fmean(_median(v) for v in groups.values())
    return _median(xs)


def combine(rounds: list[Figures]) -> dict:
    """Pool the rounds' samples and take medians."""
    return {
        "work_per_s": _median([u / s for f in rounds for u, s in f.work]),
        "task_s": grouped_median([x for f in rounds for x in f.task]),
        "short_s": grouped_median([x for f in rounds for x in f.short]),
    }


class Certify:
    """Metrics: work_per_s = poset elements certified per second
    (certify_elems_per_s); task_s = the median run of the fixed crown-256;
    short_s = the mean over the three random shapes of the median run of
    that shape's 200-element posets."""

    def __init__(self, seed: int):
        self.items = gen.certify_inputs(seed)
        self.oracle = [oracles.poset_oracle(it["closure"]) for it in self.items]

    def payload(self) -> dict:
        return {
            "posets": [
                {"n": it["n"], "declared": it["declared"], "text": it["text"], "closure": _bits(it["closure"])}
                for it in self.items
            ]
        }

    def check(self, op: dict) -> list[str]:
        it = self.items[op["key"]]
        out = dict(op["out"], closure=_unbits(op["out"]["closure"], it["n"]))
        return oracles.check_certify(out, it["closure"], self.oracle[op["key"]])

    def figures(self, ops: list[dict]) -> Figures:
        ok = [o for o in ops if "dt" in o]
        shapes = [(self.items[o["key"]]["shape"], self.items[o["key"]]["n"]) for o in ok]
        crown = [o["dt"] for o, (shape, _) in zip(ok, shapes) if shape == "crown"]
        small = [(shape, o["dt"]) for o, (shape, n) in zip(ok, shapes) if shape != "crown" and n == 200]
        return Figures([(sum(o["work"] for o in ok), sum(o["dt"] for o in ok))], crown, small)

    def counts(self, ops: list[dict]) -> dict:
        c: dict = defaultdict(float)
        for o in ops:
            if "dt" not in o:
                continue
            it = self.items[o["key"]]
            c["poset.elements"] += it["n"]
            c["poset.generators"] += len(it["pairs"])
            c["poset.comparable_pairs"] += int(_unbits(o["out"]["closure"], it["n"]).sum()) - it["n"]
            c["poset.cover_pairs"] += len(o["out"]["covers"])
            c["partition.height"] += len(o["out"]["parts"])
            c["partition.width"] += o["out"]["width"]
        return c


def _window_size(fam: str, spec: dict) -> int:
    if fam == "P1":
        return 2 * (spec["n"] + 1) + 3
    if fam == "P2":
        return (2 * spec["z"] + 1) * 2 * (spec["n"] + 1)
    if fam == "P3":
        return (spec["x"] + 1) * (spec["y"] + 1)
    if fam == "P4":
        return (spec["x"] + 1) * (spec["y"] + 1) * (spec["z"] + 1)
    lo, hi = spec["n"]
    return (hi - lo + 1) * (spec["c"] + 1) ** 2


def _payload(name: str):
    return name if not name.startswith("(") else tuple(int(c) for c in name[1:-1].split(","))


class Families:
    """Metrics: work_per_s = window comparison pairs (n squared) built and
    serialized per second (window_pairs_per_s); task_s = all fixed claims
    and cofinality checks (claims_s); short_s = the median batch of
    gen.QUERY_BATCH elem_le queries (elem_le_per_s = QUERY_BATCH / short_s)."""

    SAMPLE = 400

    def __init__(self, seed: int):
        self.seed = seed
        self.windows = gen.WINDOWS
        self.queries = gen.query_batches(seed)

    def payload(self) -> dict:
        return {
            "windows": self.windows,
            "claims": gen.CLAIMS,
            "cofinality": gen.COFINALITY,
            "queries": self.queries,
        }

    def check(self, op: dict) -> list[str]:
        from fishbone.families import elem_le

        kind, key, out = op["kind"], op["key"], op["out"]
        if kind == "families.window":
            fam, spec = self.windows[key]
            names = out["names"]
            n = len(names)
            rng = random.Random(self.seed * 31 + key)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(self.SAMPLE)]
            sample = [(i, j, elem_le(fam, _payload(names[i]), _payload(names[j]))) for i, j in pairs]
            got = dict(out, table=_unbits(out["table"], n))
            return oracles.check_window(got, _window_size(fam, spec), sample)
        if kind == "families.claim":
            fam, claim, params = gen.CLAIMS[key]
            return oracles.check_claim(out, fam, claim, params)
        if kind == "families.cofinality":
            return [] if out.get("status") == "verified-up-to-bound" else ["families"]
        return oracles.check_queries(out, self.queries[key])

    def figures(self, ops: list[dict]) -> Figures:
        ok = [o for o in ops if "dt" in o]
        win = [o for o in ok if o["kind"] == "families.window"]
        task = sum(o["dt"] for o in ok if o["kind"] in ("families.claim", "families.cofinality"))
        short = [o["dt"] for o in ok if o["kind"] == "families.queries"]
        return Figures([(sum(o["work"] for o in win), sum(o["dt"] for o in win))], [task], short)

    def counts(self, ops: list[dict]) -> dict:
        c: dict = defaultdict(float)
        for o in ops:
            if o["kind"] == "families.window" and "dt" in o:
                n = len(o["out"]["names"])
                c[f"families.window_elems.{self.windows[o['key']][0]}"] += n
                c["poset.elements"] += n
                c["poset.comparable_pairs"] += int(_unbits(o["out"]["table"], n).sum()) - n
                c["poset.cover_pairs"] += len(o["out"]["covers"])
            elif o["kind"] == "families.queries":
                c["families.elem_le_calls"] += gen.QUERY_BATCH
        return c


class Battery:
    """Metrics: work_per_s = ``ot check`` terms per second, the median over
    chunks of OT_CHUNK consecutive terms (ot_terms_per_s);
    task_s = ``sweep`` (sweep_s); short_s = the median of repeated
    ``verify all`` runs (verify_all_s)."""

    VERIFY_REPEATS = 4
    OT_CHUNK = 50

    def __init__(self, seed: int):
        self.terms = gen.ot_terms(seed)
        self.sweep_seed = seed % gen.SWEEP_SEEDS
        with open(HERE / "digests.json", encoding="utf-8") as fh:
            self.digests = json.load(fh)

    def payload(self) -> dict:
        return {
            "verify_repeats": self.VERIFY_REPEATS,
            "sweep_seed": self.sweep_seed,
            "terms": [t for t, _, _ in self.terms],
        }

    def _cli_digest_ok(self, out: dict, want: str) -> bool:
        if out["code"] != 0:
            return False
        raw = out["stdout"]
        payload = json.loads(raw)
        canonical = json.dumps(payload, indent=2) + "\n"
        return raw == canonical and _digest(json.dumps(oracles.masked(payload), indent=2)) == want

    def check(self, op: dict) -> list[str]:
        kind, key, out = op["kind"], op["key"], op["out"]
        if kind == "battery.verify_all":
            return [] if self._cli_digest_ok(out, self.digests["verify_all"]) else ["cli"]
        if kind == "battery.sweep":
            return [] if self._cli_digest_ok(out, self.digests["sweep"][str(self.sweep_seed)]) else ["cli"]
        if kind == "battery.ot":
            if out["code"] != 0:
                return ["cli"]
            return oracles.check_term(json.loads(out["stdout"]), self.terms[key][1])
        if kind == "battery.term":
            return oracles.check_term(out, self.terms[key][1])
        if kind == "battery.criterion":
            return [] if out.get("status") == "pass" else ["acceptance"]
        return [] if out.get("status") != "fail" else ["verify"]  # battery.desk

    def pair_failures(self, ops: list[dict]) -> list[dict]:
        """``ot check`` operations whose report breaks a reverse law with
        the report of the reversed term."""
        reports: dict = {}
        for o in ops:
            if o["kind"] == "battery.ot" and "dt" in o and o["out"]["code"] == 0:
                reports[o["key"]] = (o, json.loads(o["out"]["stdout"]))
        bad = []
        for k in range(0, len(self.terms), 2):
            if k in reports and k + 1 in reports:
                if not oracles.reverse_laws_hold(reports[k][1], reports[k + 1][1]):
                    bad.append(reports[k + 1][0])
        return bad

    def figures(self, ops: list[dict]) -> Figures:
        ok = [o for o in ops if "dt" in o]
        ot = [o for o in ok if o["kind"] == "battery.ot"]
        task = [o["dt"] for o in ok if o["kind"] == "battery.sweep"]
        short = [o["dt"] for o in ok if o["kind"] == "battery.verify_all"]
        chunks = [ot[i:i + self.OT_CHUNK] for i in range(0, len(ot), self.OT_CHUNK)]
        return Figures([(len(c), sum(o["dt"] for o in c)) for c in chunks], task, short)

    def counts(self, ops: list[dict]) -> dict:
        c: dict = defaultdict(float)
        names = {"battery.verify_all": "verify_all", "battery.sweep": "sweep", "battery.ot": "ot_check"}
        for o in ops:
            if o["kind"] in names and "dt" in o:
                c[f"cli.stdout_bytes.{names[o['kind']]}"] += len(o["out"]["stdout"].encode())
        c["ordertype.terms"] = len(self.terms)
        c["ordertype.distinct_terms"] = len({t for t, _, _ in self.terms})
        return c


WORKLOADS = {"certify": Certify, "families": Families, "battery": Battery}


# ------------------------------------------------------------------- checks


class Checker:
    """Checks every operation of every round, once per distinct output."""

    def __init__(self, workload):
        self.workload = workload
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.layer_failed: dict = defaultdict(int)
        self.examples: list = []

    def round(self, ops: list[dict], traced: bool) -> None:
        bad_pairs = {id(o) for o in getattr(self.workload, "pair_failures", lambda ops: [])(ops)}
        for o in ops:
            self.attempted += 1
            if "error" in o:
                layers = [o["error"][0]]
            else:
                key = (o["kind"], o["key"], _digest(json.dumps(o["out"], sort_keys=True)))
                if key not in self.verdicts:
                    try:
                        self.verdicts[key] = self.workload.check(o)
                    except Exception as exc:  # malformed output: a failed check
                        self.verdicts[key] = [o["kind"].split(".")[0] + ": " + repr(exc)[:200]]
                layers = list(self.verdicts[key])
                if id(o) in bad_pairs:
                    layers.append("ordertype")
            if layers:
                self.failed += 1
                if len(self.examples) < 5:
                    self.examples.append({"kind": o["kind"], "key": o["key"], "layers": layers,
                                          "error": o.get("error")})
                if traced:
                    for layer in set(layers):
                        self.layer_failed[layer.split(":")[0]] += 1


# ------------------------------------------------------------------ tracing

FULL_SPANS = (
    "poset.from_json_s", "poset.validate_s", "poset.covers_s",
    "partition.find_spine_s", "partition.check_spine_s", "partition.width_and_dilworth_s",
    *(f"families.elem_le_s.{f}" for f in ("P1", "P2", "P3", "P4", "P5")),
    "ordertype.parse_term_s", "ordertype.term_report_s", "cli.run_s.ot_check",
)
MEDIAN_SPANS = (
    *(f"families.window_s.{f}" for f in ("P1", "P2", "P3", "P4", "P5")),
    *(f"families.claim_s.{f}.{c}" for f, c, _ in gen.CLAIMS),
    "families.cofinality_s",
    "verify.level_structure_s", "verify.min_drop_s", "verify.constant_on_rows_s", "verify.final_counting_s",
    *(f"acceptance.criterion_{k}_s" for k in range(1, 13)),
    "cli.run_s.verify_all", "cli.run_s.sweep",
)
COUNTS = (
    "poset.elements", "poset.generators", "poset.comparable_pairs", "poset.cover_pairs",
    "partition.height", "partition.width",
    *(f"families.window_elems.{f}" for f in ("P1", "P2", "P3", "P4", "P5")),
    "families.elem_le_calls", "ordertype.terms", "ordertype.distinct_terms",
    "cli.stdout_bytes.verify_all", "cli.stdout_bytes.sweep", "cli.stdout_bytes.ot_check",
)
FIGURES = ("work_per_s", "task_s", "short_s")
FIGURE_UNITS = {"work_per_s": "1/s", "task_s": "s", "short_s": "s"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in a fixed order."""
    out = []
    for s in FULL_SPANS:
        out += [(f"{s}.p50", "s"), (f"{s}.tail", "s"), (f"{s}.tail_pct", "pct"), (f"{s}.n", "count")]
    out += [(f"{s}.p50", "s") for s in MEDIAN_SPANS]
    out += [(c, "bytes" if c.startswith("cli.stdout_bytes") else "count") for c in COUNTS]
    out += [(f"{layer}.busy_s", "s") for layer in LAYERS]
    out += [(f"{layer}.ops_failed", "count") for layer in LAYERS]
    out += [(f"trace.overhead.{f}", FIGURE_UNITS[f]) for f in FIGURES]
    out += [("trace.spans", "count"), ("trace.rounds", "count")]
    out += [("poset.known_defect_ops_failed", "count")]
    return out


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it, and
    its value (nearest rank); (0, 0) when fewer than 20 samples leave even
    the median without ten above it."""
    n = len(samples)
    if n < 20:
        return 0.0, 0
    xs = sorted(samples)
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100)
    return xs[rank - 1], pct


def layer_metrics(spans_by_round: list[list], counts: dict, failed: dict, overhead: dict) -> dict:
    rounds = len(spans_by_round)
    durations: dict = defaultdict(list)
    busy: dict = defaultdict(float)
    total = 0
    for spans in spans_by_round:
        child = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, parent, _op) in enumerate(spans):
            durations[name].append(end - start)
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                busy[layer] += (end - start) - child[i]
        total += len(spans)
    m: dict = {}
    for s in FULL_SPANS:
        xs = durations.get(s, [])
        value, pct = tail(xs)
        m[f"{s}.p50"] = _median(xs)
        m[f"{s}.tail"] = value
        m[f"{s}.tail_pct"] = pct
        m[f"{s}.n"] = len(xs)
    for s in MEDIAN_SPANS:
        m[f"{s}.p50"] = _median(durations.get(s, []))
    for c in COUNTS:
        m[c] = counts.get(c, 0) / rounds
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer] / rounds
        m[f"{layer}.ops_failed"] = failed.get(layer, 0)
    for f in FIGURES:
        m[f"trace.overhead.{f}"] = overhead[f]
    m["trace.spans"] = total / rounds
    m["trace.rounds"] = rounds
    return m


# ------------------------------------------------------------ known defects

# Inputs just past the range where the program is exact (gen.EXACT_N): a
# crown with 256 middles, whose bottom <= top has exactly 256 elements
# between its ends, and the P1 window of 405 elements.
DEFECT_CROWN_N = 258
DEFECT_WINDOW = ("P1", {"n": 200})


def known_defects() -> list[str]:
    """The program's known defect, reproduced on every run and reported
    beside the workloads, not inside them.

    ``poset._bool_matmul`` multiplies uint8 matrices, so path counts wrap
    modulo 256: a closure can lose a pair and covers can gain pairs that
    are not covers.  The workloads stay within gen.EXACT_N elements, where
    no count reaches 256, so that their correctness check is strict; this
    check keeps the defect in view until the program is fixed.  Returns
    one line per failed check (none once the defect is fixed).
    """
    item = gen.make_poset("crown", DEFECT_CROWN_N, random.Random(0))
    payload = {"declared": item["declared"], "text": item["text"], "window": DEFECT_WINDOW}
    _, out = _worker("defects", json.dumps(payload).encode(), RUN_LIMIT_S)
    found = []
    closure = oracles.closure_from_edges(DEFECT_CROWN_N, item["pairs"])
    got_closure = _unbits(out["closure"], DEFECT_CROWN_N)
    if not np.array_equal(closure, got_closure):
        found.append(f"crown-{DEFECT_CROWN_N}: the closure misses {int((closure & ~got_closure).sum())} "
                     f"pair(s) and has {int((got_closure & ~closure).sum())} extra")
    n = len(out["names"])
    table = _unbits(out["table"], n)
    want = set(oracles.reduction(table & ~np.eye(n, dtype=bool)))
    got = set(map(tuple, out["covers"]))
    if got != want or len(out["covers"]) != len(want):
        found.append(f"{DEFECT_WINDOW[0]} window of {n} elements: {len(got - want)} emitted cover(s) "
                     f"are not covers, {len(want - got)} cover(s) missing")
    return found


# --------------------------------------------------------------------- main


def setup_times(limit: float) -> list[float]:
    """Interpreter start until ``import fishbone`` returns, in fresh
    interpreters that do nothing else.  Not rescaled: the speed probe
    follows import time too loosely to correct it."""
    out = []
    for _ in range(SETUP_SAMPLES):
        started, res = _worker("setup", None, limit)
        out.append(res["imported_at"] - started)
    return out


def environment_record() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "default") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fishbone" / "__init__.py").is_file():
        print(f"error: no fishbone package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    begin = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))  # for the oracles that use package code
    workload = WORKLOADS[args.workload](args.seed)
    checker = Checker(workload)
    setups = setup_times(RUN_LIMIT_S)
    defects = known_defects()

    plain: list[tuple] = []  # per untraced round: (figures, rss_mb)
    traced: list[tuple] = []  # per traced round: (figures, spans, ops)
    plain_ops: list[list] = []
    start = time.perf_counter()
    k = 0
    while True:
        is_traced = bool(args.trace) and k % 2 == 1
        payload = dict(workload.payload(), workload=args.workload, trace=is_traced)
        left = RUN_LIMIT_S - (time.perf_counter() - begin)
        try:
            _, res = _worker("round", json.dumps(payload).encode(), left)
        except subprocess.TimeoutExpired:
            print("error: a round did not finish within the run's time limit", file=sys.stderr)
            return 3
        ops = res["ops"]
        at_reference_speed(ops, res["probes"])
        checker.round(ops, is_traced)
        figures = workload.figures(ops)
        if is_traced:
            traced.append((figures, res["spans"], ops))
        else:
            plain.append((figures, res["rss_kb"] / 1024.0))
            plain_ops.append(ops)
        k += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or k >= 2):
            break

    med = combine([r[0] for r in plain])
    metrics: dict = {}
    if args.trace:
        tmed = combine([r[0] for r in traced])
        counts: dict = defaultdict(float)
        for _, _, ops in traced:
            for key, v in workload.counts(ops).items():
                counts[key] += v
        lm = layer_metrics([r[1] for r in traced], counts, checker.layer_failed,
                           {f: tmed[f] - med[f] for f in FIGURES})
        lm["poset.known_defect_ops_failed"] = len(defects)
        for name, unit in per_layer_names():
            metrics[name] = {"value": lm[name], "unit": unit}
    else:
        metrics["setup_s"] = {"value": _median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": _median([r[1] for r in plain]), "unit": "MB"}
        for f in FIGURES:
            metrics[f] = {"value": med[f], "unit": FIGURE_UNITS[f]}

    frac = checker.failed / checker.attempted
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"round(s), {time.perf_counter() - start:.1f} s measured")
    print(f"environment {json.dumps(environment_record(), sort_keys=True)}")
    print(f"setup_s {_median(setups):.4f} s (median of {len(setups)} fresh interpreters)")
    for i, (f, *_rest) in enumerate(plain + traced):
        c = combine([f])
        print(f"round {i} {'traced' if i >= len(plain) else 'untraced'}: work_per_s {c['work_per_s']:.6g}, "
              f"task_s {c['task_s']:.4g}, short_s {c['short_s']:.4g}")
    raw = combine([workload.figures([dict(o, dt=o["dt_raw"]) if "dt" in o else o for o in ops])
                   for ops in plain_ops])
    for (name, (value, unit)), (raw_value, _) in zip(workload_named(args.workload, med).items(),
                                                     workload_named(args.workload, raw).values()):
        print(f"{name} {value:.6g} {unit} (unscaled {raw_value:.6g})")
    print(f"peak_rss_mb {_median([r[1] for r in plain]):.1f} MB")
    print(f"ops_failed_frac {frac:.6g} ratio ({checker.failed} failed of {checker.attempted} attempted operations)")
    for ex in checker.examples:
        print(f"failed {json.dumps(ex)}")
    for line in defects:
        print(f"known defect, outside the workload: {line}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def workload_named(workload: str, med: dict) -> dict:
    """The figures under the names, and with the units, that the workload's
    documentation uses."""
    w, t, s = med["work_per_s"], med["task_s"], med["short_s"]
    if workload == "certify":
        return {"certify_elems_per_s": (w, "elems/s"), "crown_256_s": (t, "s"), "poset_200_s": (s, "s")}
    if workload == "families":
        return {"window_pairs_per_s": (w, "pairs/s"), "claims_s": (t, "s"),
                "elem_le_per_s": (gen.QUERY_BATCH / s if s else 0.0, "queries/s")}
    return {"ot_terms_per_s": (w, "terms/s"), "sweep_s": (t, "s"), "verify_all_s": (s, "s")}


if __name__ == "__main__":
    raise SystemExit(main())
