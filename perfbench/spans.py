#!/usr/bin/env python3
"""Span reducer for a traced benchmark run.

Reads the span file a traced run writes (one JSON object per line: name,
id, parent, request, start_ns, end_ns), computes each span's self time
(its duration minus the part of it that its child spans cover), and sums
self time per layer under each kind of root span. It also checks that the
stage spans of every query add up to the query span.

  python3 perfbench/spans.py SPANS.jsonl   # per-layer self-time table
  python3 perfbench/spans.py --self-test   # checks the reducer itself
"""

import collections
import json
import sys

# A query span may exceed the sum of its stage spans by this much: the
# benchmark's own bookkeeping between the stage calls (vector set-up,
# moving the result out).
STAGE_SUM_TOLERANCE_FRAC = 0.02
STAGE_SUM_TOLERANCE_MS = 0.05

# Per-layer metrics taken from the spans under "query" roots, as the mean
# self time per query: (span name, metric name, unit, scale from ms).
QUERY_LAYERS = (
    ("engine.pin_epoch", "engine.pin_epoch_us", "us", 1e3),
    ("engine.encode", "engine.encode_ms", "ms", 1.0),
    ("engine.candidate", "engine.candidate_ms", "ms", 1.0),
    ("engine.score", "engine.score_ms", "ms", 1.0),
    ("query", "trace.query_self_ms", "ms", 1.0),
)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _covered_ns(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _children(spans):
    children = collections.defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append(s)
    return children


def self_times_ms(spans):
    """Self time of every span, in ms, by span id."""
    children = _children(spans)
    out = {}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            raise ValueError(f"span {s['id']} ({s['name']}) was never closed")
        kids = [(c["start_ns"], c["end_ns"]) for c in children[s["id"]]]
        covered = _covered_ns(s["start_ns"], s["end_ns"], kids)
        out[s["id"]] = (s["end_ns"] - s["start_ns"] - covered) / 1e6
    return out


def _root_of(spans):
    by_id = {s["id"]: s for s in spans}
    roots = {}
    for s in spans:
        r = s
        while r["parent"]:
            r = by_id[r["parent"]]
        roots[s["id"]] = r
    return roots


def reduce(spans):
    """{root name: {"roots": n, "self_ms": {span name: total self ms}}}."""
    self_ms = self_times_ms(spans)
    roots = _root_of(spans)
    out = {}
    for s in spans:
        root = roots[s["id"]]
        entry = out.setdefault(root["name"], {"roots": 0, "self_ms": {}})
        if s is root:
            entry["roots"] += 1
        entry["self_ms"][s["name"]] = (entry["self_ms"].get(s["name"], 0.0) +
                                       self_ms[s["id"]])
    return out


def check_stage_sums(spans, root_name="query"):
    """Each `root_name` span against the union of its child spans."""
    children = _children(spans)
    checked, violations, worst_ms = 0, 0, 0.0
    for s in spans:
        if s["name"] != root_name or s["parent"]:
            continue
        dur = s["end_ns"] - s["start_ns"]
        kids = [(c["start_ns"], c["end_ns"]) for c in children[s["id"]]]
        gap_ms = (dur - _covered_ns(s["start_ns"], s["end_ns"], kids)) / 1e6
        limit = max(STAGE_SUM_TOLERANCE_FRAC * dur / 1e6,
                    STAGE_SUM_TOLERANCE_MS)
        checked += 1
        violations += gap_ms > limit
        worst_ms = max(worst_ms, gap_ms)
    return {"root": root_name, "checked": checked, "violations": violations,
            "worst_gap_ms": round(worst_ms, 6),
            "tolerance": f"{STAGE_SUM_TOLERANCE_FRAC:.0%} or "
                         f"{STAGE_SUM_TOLERANCE_MS} ms"}


def layer_metrics(spans):
    """{metric name: (value, unit)} for the engine layers under queries."""
    query = reduce(spans).get("query", {"roots": 0, "self_ms": {}})
    n = max(query["roots"], 1)
    return {metric: (query["self_ms"].get(span, 0.0) * scale / n, unit)
            for span, metric, unit, scale in QUERY_LAYERS}


def format_table(spans):
    """Self time per layer under each root kind, largest first."""
    lines = []
    for root_name, entry in sorted(reduce(spans).items()):
        n = max(entry["roots"], 1)
        lines.append(f"# self time under '{root_name}' roots "
                     f"({entry['roots']} roots), ms per root:")
        for name, ms in sorted(entry["self_ms"].items(), key=lambda kv: -kv[1]):
            lines.append(f"#   {name:<20} {ms / n:12.4f}")
    return "\n".join(lines)


def self_test():
    """Reducer checks on hand-built spans with known answers."""
    def span(i, name, parent, s_ms, e_ms, request=1):
        return {"name": name, "id": i, "parent": parent, "request": request,
                "start_ns": int(s_ms * 1e6), "end_ns": int(e_ms * 1e6)}

    ok = [span(1, "query", 0, 0, 10),
          span(2, "engine.pin_epoch", 1, 0, 0.01),
          span(3, "engine.encode", 1, 0.01, 2),
          span(4, "engine.candidate", 1, 2, 3),
          span(5, "engine.score", 1, 3, 9.99),
          span(6, "child", 5, 4, 6),
          span(7, "child", 5, 5, 7),   # Overlaps span 6: union is 4..7.
          span(8, "query", 0, 20, 30, request=2),
          span(9, "engine.score", 8, 20, 30, request=2)]
    st = self_times_ms(ok)
    assert abs(st[5] - (6.99 - 3.0)) < 1e-9, st[5]
    assert abs(st[1] - 0.01) < 1e-9, st[1]
    red = reduce(ok)
    assert red["query"]["roots"] == 2
    assert abs(red["query"]["self_ms"]["child"] - 4.0) < 1e-9
    m = layer_metrics(ok)
    assert abs(m["engine.score_ms"][0] - (3.99 + 10.0) / 2) < 1e-9
    assert abs(m["engine.pin_epoch_us"][0] - 5.0) < 1e-6
    assert check_stage_sums(ok)["violations"] == 0

    gap = [span(1, "query", 0, 0, 10), span(2, "engine.encode", 1, 0, 5)]
    assert check_stage_sums(gap)["violations"] == 1
    try:
        self_times_ms([{"name": "x", "id": 1, "parent": 0, "request": 0,
                        "start_ns": 5, "end_ns": -1}])
        raise AssertionError("an open span must be rejected")
    except ValueError:
        pass
    print("spans.py self-test: ok")


def main(argv):
    if argv[1:] == ["--self-test"]:
        self_test()
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    loaded = load(argv[1])
    print(format_table(loaded))
    check = check_stage_sums(loaded)
    print(json.dumps(check))
    return 0 if check["violations"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
