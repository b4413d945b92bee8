"""Time one fresh interpreter's set-up: import qramsey, build field tables.

    python3 perfbench/setup_probe.py Q [Q ...]

Prints two numbers: the perf_counter reading before `import qramsey`,
and the seconds from there to after make_field(Q) for every listed
field order.  Interpreter start-up is not included.  run.py corrects
the time for the host's speed with the samples its speed probe took
meanwhile (see speed.py).
"""

import os
import sys

if __name__ == "__main__":
    from time import perf_counter
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    start = perf_counter()
    import qramsey
    from qramsey.field import make_field
    for q in sys.argv[1:]:
        make_field(int(q))
    elapsed = perf_counter() - start
    if os.path.dirname(os.path.abspath(qramsey.__file__)) != \
            os.path.join(src, "qramsey"):
        sys.exit("qramsey was not imported from this checkout")
    print(repr(start), repr(elapsed))
