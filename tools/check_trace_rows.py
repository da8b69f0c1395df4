#!/usr/bin/env python3
"""Cross-check a bonsai_sim --bench report against its --trace file.

Every timing in a step report comes from the ranks' spans, so the two files
must agree. The report must be schema 5: exactly the keys schema, config and
steps, no topology, cluster or balance in the config, and each step exactly
its step number and its metrics block. For each step this checks:

  - the schedule model is present: schedule.critical_path_s > 0 and
    schedule.overlap_efficiency >= 1 (up to rounding);
  - stage.sum_s{stage=Wire encode} equals the summed durations of that
    step's rank wire.encode.* spans in the trace, and
    stage.sum_s{stage=Gravity remote} the summed gravity.remote spans, each
    within 1 us per span.

Rank spans are the trace events with pid >= 1 (pid = rank + 1; the
coordinator is pid 0); the step is the event's "step" argument.

Usage: check_trace_rows.py BENCH_JSON TRACE_JSON
"""

import json
import sys

ROWS = {
    "Wire encode": lambda name: name.startswith("wire.encode."),
    "Gravity remote": lambda name: name == "gravity.remote",
}


def main(bench_path, trace_path):
    bench = json.load(open(bench_path))
    trace = json.load(open(trace_path))
    assert set(bench) == {"schema", "config", "steps"}, f"bench keys {sorted(bench)}"
    assert bench["schema"] == 5, f"bench schema {bench['schema']}, expected 5"
    for gone in ("async", "topology", "cluster", "balance"):
        assert gone not in bench["config"], f"schema 5 config has no {gone} key"
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X" and e["pid"] >= 1]
    assert spans, "trace must carry rank spans"
    assert bench["steps"], "bench must carry steps"

    for step in bench["steps"]:
        index = step["step"]
        assert set(step) == {"step", "metrics"}, f"step {index}: keys {sorted(step)}"
        gauges = step["metrics"]["gauges"]
        critical = gauges["schedule.critical_path_s"]
        overlap = gauges["schedule.overlap_efficiency"]
        assert critical > 0, f"step {index}: no schedule model"
        # critical path <= lockstep stage-sum, equal up to summation order.
        assert overlap >= 1 - 1e-9, f"step {index}: overlap_efficiency {overlap} < 1"
        for row, match in ROWS.items():
            mine = [e["dur"] for e in spans
                    if match(e["name"]) and e["args"].get("step") == index]
            row_us = gauges.get(f"stage.sum_s{{stage={row}}}", 0.0) * 1e6
            assert mine or row_us == 0.0, f"step {index}: {row} has no spans"
            tolerance = 1.0 * len(mine)
            assert abs(row_us - sum(mine)) <= tolerance, \
                (f"step {index}: {row} sum {row_us:.3f} us != "
                 f"{sum(mine):.3f} us over {len(mine)} spans")
        print(f"step {index}: rows match spans; critical path "
              f"{critical * 1e3:.3f} ms, overlap {overlap:.3f}x")
    print(f"trace rows: {len(bench['steps'])} step(s), {len(spans)} rank spans")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
