"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, that an untraced
run installs no wrappers, that a wrong expected value counts as a failure, and
that a traced function missing from the library is reported, not fatal.
"""

import json
import os
import sys

import run
import spans

SCALE = {"ladders": 50, "tracks": 16, "queries": 20}
MAIN_SPAN = {
    "ladders": "kernel.scan_ladder.calls",
    "tracks": "tracks.weight_cone.calls",
    "queries": "cli.main.calls",
}


def names(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


def tiny(workload, traced=False, hook=None):
    return run.run(workload, 0, 0, traced, scale=SCALE[workload], workload_hook=hook)


def main():
    end_to_end, per_layer = names("end_to_end"), names("per_layer")

    def no_wrappers(tracer):
        raise AssertionError("an untraced run installed wrappers")

    install = spans.Tracer.install
    for workload in SCALE:
        spans.Tracer.install = no_wrappers
        try:
            result, info = tiny(workload)
        finally:
            spans.Tracer.install = install
        assert result["correct"] and result["failed"] == 0, info["problems"]
        assert set(result["metrics"]) == end_to_end, sorted(result["metrics"])

        result, info = tiny(workload, traced=True)
        assert result["correct"], info["problems"]
        assert set(result["metrics"]) == per_layer, sorted(set(result["metrics"]) ^ per_layer)
        assert result["metrics"]["trace.absent"]["value"] == 0, info["absent"]
        assert result["metrics"][MAIN_SPAN[workload]]["value"] > 0, "no spans recorded"
        for _, sites, _ in spans.TARGETS:
            for module, attr in sites:
                fn = getattr(sys.modules[module], attr)
                assert not hasattr(fn, "__wrapped__"), "wrapper left on %s.%s" % (module, attr)
        print("ok  %-8s metrics emitted, traced and untraced" % workload)

    def wrong_pin(workload):
        workload.expected_paths = [n + 1 for n in workload.expected_paths]

    def wrong_exit_code(workload):
        workload.items[0]["expect"] = 3

    def wrong_arc(workload):
        index = next(i for i, item in enumerate(workload.items) if item[0] == "built")
        kind, (p, q, c, preset), locus, config = workload.items[index]
        workload.items[index] = (kind, (p, q + 2, c, preset), locus, config)

    for workload, hook in (("ladders", wrong_pin), ("queries", wrong_exit_code), ("tracks", wrong_arc)):
        result, info = tiny(workload, hook=hook)
        assert not result["correct"] and result["failed"] >= 1, result
        assert info["problems"], info
        print("ok  %-8s wrong expectation counted as failure: %s" % (workload, info["problems"][0]))

    missing = ("kernel.moved_away", (("dehnfill._ladder", "moved_away"),), None)
    spans.TARGETS = spans.TARGETS + (missing,)
    result, info = tiny("ladders", traced=True)
    assert result["correct"] and info["absent"] == ["kernel.moved_away"], info
    assert result["metrics"]["trace.absent"]["value"] == 1
    print("ok  missing traced function reported as absent")


if __name__ == "__main__":
    main()
