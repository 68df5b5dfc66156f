"""Re-record the same-seed guards of tests/test_microsim.py.

    PYTHONPATH=src python tests/data/record_same_seed.py

runs the four guard runs with microsim.run, writes every event time of the
1d and 2d runs to same_seed_event_times.json next to this file, and
prints the SAME_SEED and LONG_SEED tables to paste into
tests/test_microsim.py.  Run it only when the event stream of a seed
changes on purpose, and say why where the change is recorded.
"""
import json
import os
import sys
import textwrap

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

from test_microsim import event_record, guard_run  # noqa: E402


def table(name, cases):
    lines = [f"{name} = {{"]
    for case in cases:
        body = ", ".join(f"{k}={json.dumps(v)}" for k, v in event_record(*guard_run(case)).items())
        head = f'    "{case}": dict('
        lines += textwrap.wrap(body + "),", 99, initial_indent=head,
                               subsequent_indent=" " * len(head), break_long_words=False)
    return "\n".join(lines + ["}"])


def main():
    times = {case: [e.time for e in guard_run(case)[1].event_log] for case in ("1d", "2d")}
    with open(os.path.join(HERE, "same_seed_event_times.json"), "w") as fh:
        json.dump(times, fh, indent=1)
        fh.write("\n")
    print(table("SAME_SEED", ("1d", "2d")))
    print(table("LONG_SEED", ("3d", "2d-audited")))


if __name__ == "__main__":
    main()
