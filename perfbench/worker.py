"""The measured process: one round of one workload in a fresh interpreter.

``python3 perfbench/worker.py round`` reads the round's inputs as JSON on
stdin, runs every operation once, in order, as a closed loop with one
client, and writes one JSON object to stdout: the time ``fishbone`` finished
importing, each operation's start, duration and output, the speed probes
taken between operations, the peak RSS, and (when the input asks for
tracing) the spans.  ``python3 perfbench/worker.py setup``
only imports the package and prints that time; ``python3
perfbench/worker.py defects`` gives the outputs of the known-defect check
(see run.py).

Operation outputs are converted to plain index lists after each operation's
clock stops, so conversion is not timed.  The benchmark's parent process
checks them.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import resource
import sys
import time

import fishbone  # noqa: E402  (the set-up the benchmark times)

IMPORTED_AT = time.perf_counter()

import numpy as np  # noqa: E402

from fishbone import acceptance, cli, families, ordertype, verify  # noqa: E402
from fishbone.partition import check_spine, find_spine, width_and_dilworth  # noqa: E402
from fishbone.poset import FinitePoset, loads_poset  # noqa: E402
from probe import speed_probe  # noqa: E402


class Tracer:
    """Spans around the benchmark's calls into the package.

    Off, ``call`` only remembers the name of the call in progress, so that
    an exception can be charged to its layer.  On, every call becomes a
    span ``[name, start, end, parent span, operation id]``, kept in memory
    and written out with the round's result.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list = []
        self.stack: list[int] = []
        self.current = ""
        self.op_id = -1

    def call(self, name: str, fn, *args, **kwargs):
        self.current = name
        if not self.on:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()


def peak_rss_kb() -> int:
    """This process's peak resident set size.  ``ru_maxrss`` would not do:
    Linux carries the parent's peak across fork and exec into it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _bits(m: np.ndarray) -> str:
    return base64.b64encode(np.packbits(m, axis=None).tobytes()).decode()


def _table(P, names: list) -> np.ndarray:
    """The comparison table of P over ``names``, read through the public
    ``up_set`` query."""
    pos = {x: i for i, x in enumerate(names)}
    m = np.eye(len(names), dtype=bool)
    for i, x in enumerate(names):
        m[i, [pos[y] for y in P.up_set(x)]] = True
    return m


PROBE_EVERY_S = 0.1


def _run_ops(tr: Tracer, ops, record: list, probes: list) -> None:
    """Run (kind, key, body) operations; body returns (work, output thunk).

    Each operation is timed as a whole and wrapped in a span of its kind.
    An exception fails the operation and names the layer that raised.
    Between operations, at most every PROBE_EVERY_S, a speed probe is
    recorded as (time, seconds); never inside an operation.
    """
    for kind, key, body in ops:
        tr.op_id += 1
        now = time.perf_counter()
        if not probes or now - probes[-1][0] >= PROBE_EVERY_S:
            probes.append((now, speed_probe()))
        t0 = time.perf_counter()
        try:
            work, finish = tr.call(kind, body)
            dt = time.perf_counter() - t0
            out = finish()
        except Exception as exc:  # a raising operation is a failed one
            layer = tr.current.split(".", 1)[0]
            record.append({"kind": kind, "key": key, "error": [layer, repr(exc)[:300]]})
            continue
        record.append({"kind": kind, "key": key, "t0": t0, "dt": dt, "work": work, "out": out})
    probes.append((time.perf_counter(), speed_probe()))


# ------------------------------------------------------------------- certify


def certify_ops(tr: Tracer, inp: dict):
    for k, item in enumerate(inp["posets"]):
        n = item["n"]
        declared = item["declared"]
        table = np.unpackbits(np.frombuffer(base64.b64decode(item["closure"]), np.uint8))[: n * n]
        table = table.reshape(n, n).astype(bool)

        def body(item=item, declared=declared, table=table):
            P = tr.call("poset.from_json_s", loads_poset, item["text"])
            tr.call("poset.validate_s", FinitePoset, declared, table)
            covers = tr.call("poset.covers_s", P.covers)
            cert = tr.call("partition.find_spine_s", find_spine, P)
            rep = tr.call("partition.check_spine_s", check_spine, P, cert)
            w, chains, anti = tr.call("partition.width_and_dilworth_s", width_and_dilworth, P)

            def finish():
                pos = {x: i for i, x in enumerate(declared)}
                return {
                    "closure": _bits(_table(P, declared)),
                    "covers": [[pos[u], pos[v]] for v, u in covers],
                    "chain": [pos[x] for x in cert.chain],
                    "parts": [[pos[x] for x in a] for a in cert.antichains],
                    "check": rep.status,
                    "width": w,
                    "chains": [[pos[x] for x in c] for c in chains],
                    "antichain": [pos[x] for x in anti],
                }

            return n, finish

        yield "certify.op", k, body


# ------------------------------------------------------------------ families


def families_ops(tr: Tracer, inp: dict):
    """Windows, claims and query batches, interleaved so that the short
    operations are spread through the round."""
    windows = list(_window_ops(tr, inp))
    claims = list(_claim_ops(tr, inp))
    queries = list(_query_ops(tr, inp))
    slots = len(windows)
    for i, op in enumerate(windows):
        yield op
        yield from claims[i * len(claims) // slots:(i + 1) * len(claims) // slots]
        yield from queries[i * len(queries) // slots:(i + 1) * len(queries) // slots]


def _window_ops(tr: Tracer, inp: dict):
    for k, (fam, spec) in enumerate(inp["windows"]):
        axes = {a: tuple(v) if isinstance(v, list) else v for a, v in spec.items()}

        def build(fam=fam, axes=axes):
            P = tr.call(f"families.window_s.{fam}", families.window, fam, families.WindowSpec.make(**axes))
            # The canonical JSON is the element list plus the covers.
            js = tr.call("poset.covers_s", P.to_json_dict)

            def finish():
                names = list(P.elements)
                pos = {x: i for i, x in enumerate(names)}
                return {
                    "names": names,
                    "table": _bits(_table(P, names)),
                    "covers": [[pos[a], pos[b]] for a, b in js["le"]],
                }

            return len(P) ** 2, finish

        yield "families.window", k, build


def _claim_ops(tr: Tracer, inp: dict):
    for k, (fam, claim, params) in enumerate(inp["claims"]):
        def run_claim(fam=fam, claim=claim, params=params):
            rep = tr.call(f"families.claim_s.{fam}.{claim}", families.verify_claim, fam, claim, params)
            return 1, rep.to_dict

        yield "families.claim", k, run_claim

    for k, (fam, upper, lower, bound, slack) in enumerate(inp["cofinality"]):
        def run_cof(fam=fam, upper=upper, lower=lower, bound=bound, slack=slack):
            spec = families.WindowSpec.make(**bound)
            rep = tr.call(
                "families.cofinality_s", families.check_bounded_cofinally_above, fam, upper, lower, spec, slack
            )
            return 1, rep.to_dict

        yield "families.cofinality", k, run_cof


def _query_ops(tr: Tracer, inp: dict):
    elem_le = families.elem_le
    for k, batch in enumerate(inp["queries"]):
        queries = [(f, p if isinstance(p, str) else tuple(p), q if isinstance(q, str) else tuple(q))
                   for f, p, q in batch]

        def run_batch(queries=queries):
            if tr.on:
                answers = [tr.call(f"families.elem_le_s.{f}", elem_le, f, p, q) for f, p, q in queries]
            else:
                tr.current = "families.elem_le_s"
                answers = [elem_le(f, p, q) for f, p, q in queries]
            return len(queries), lambda: answers

        yield "families.queries", k, run_batch


# ------------------------------------------------------------------- battery


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


# ``verify all`` runs desk_preset(); these are its parameters, so that the
# traced run can call the four checks one by one.
DESK = (
    [("verify.level_structure_s", verify.verify_level_structure, (n, 4, 8)) for n in (0, 1, 2)]
    + [("verify.min_drop_s", verify.verify_min_drop, a) for a in ((2, 2, 12), (1, 3, 15))]
    + [("verify.constant_on_rows_s", verify.verify_constant_on_rows, (ell,)) for ell in (1, 2, 3)]
    + [("verify.final_counting_s", verify.verify_final_counting, (a,)) for a in (1, 2, 3)]
)


def battery_ops(tr: Tracer, inp: dict):
    def command(name: str, argv: list[str], work: int = 1):
        def body():
            code, out = tr.call(f"cli.run_s.{name}", _cli, argv)
            return work, lambda: {"code": code, "stdout": out}

        return body

    # The repeated `verify all` runs are spread through the terms, and the
    # sweep sits in the middle, so that they see more than one stretch of
    # the machine's load.
    terms = inp["terms"]
    repeats = inp["verify_repeats"]
    for k, text in enumerate(terms):
        if k * repeats % len(terms) < repeats:
            v = k * repeats // len(terms)
            yield "battery.verify_all", v, command("verify_all", ["verify", "all"])
        if k == len(terms) // 2:
            yield "battery.sweep", 0, command("sweep", ["--seed", str(inp["sweep_seed"]), "sweep"])
        yield "battery.ot", k, command("ot_check", ["ot", "check", text])

    if not tr.on:
        return
    # Traced only: the layers behind the commands, called one by one.
    for k, crit in enumerate(acceptance.ALL_CRITERIA):
        kwargs = {"seed": inp["sweep_seed"]} if "seed" in crit.__code__.co_varnames else {}

        def run_crit(crit=crit, k=k, kwargs=kwargs):
            rep = tr.call(f"acceptance.criterion_{k + 1}_s", crit, **kwargs)
            return 1, rep.to_dict

        yield "battery.criterion", k, run_crit
    for k, (name, fn, args) in enumerate(DESK):
        def run_check(name=name, fn=fn, args=args):
            rep = tr.call(name, fn, *args)
            return 1, rep.to_dict

        yield "battery.desk", k, run_check
    for k, text in enumerate(inp["terms"]):
        def run_term(text=text):
            t = tr.call("ordertype.parse_term_s", ordertype.parse_term, text)
            rep = tr.call("ordertype.term_report_s", ordertype.term_report, t)
            return 1, lambda: rep

        yield "battery.term", k, run_term


WORKLOADS = {"certify": certify_ops, "families": families_ops, "battery": battery_ops}


def known_defect_outputs(inp: dict) -> dict:
    """The outputs that the known-defect check in run.py compares with its
    oracles: the closure of a poset given as JSON text, and a window's
    table with its emitted covers.  Not timed."""
    declared = inp["declared"]
    P = loads_poset(inp["text"])
    fam, spec = inp["window"]
    W = families.window(fam, families.WindowSpec.make(**spec))
    names = list(W.elements)
    pos = {x: i for i, x in enumerate(names)}
    return {
        "closure": _bits(_table(P, declared)),
        "names": names,
        "table": _bits(_table(W, names)),
        "covers": [[pos[a], pos[b]] for a, b in W.to_json_dict()["le"]],
    }


def main() -> int:
    if sys.argv[1:] == ["setup"]:
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return 0
    inp = json.load(sys.stdin)
    if sys.argv[1:] == ["defects"]:
        json.dump(known_defect_outputs(inp), sys.stdout)
        return 0
    tr = Tracer(bool(inp["trace"]))
    record: list = []
    probes: list = []
    _run_ops(tr, WORKLOADS[inp["workload"]](tr, inp), record, probes)
    result = {
        "imported_at": IMPORTED_AT,
        "ops": record,
        "probes": probes,
        "spans": tr.spans,
        "rss_kb": peak_rss_kb(),
    }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
