"""Set-up probe: import loopselect, parse one instance, build its objective.

Usage: ``python3 bench/setup_probe.py <objective> <exchange file> [pose file]``
with ``src`` on ``PYTHONPATH``. Prints ``ready`` once the objective exists;
the caller times process start to that line.
"""

import sys


def main(argv):
    objective, exg = argv[0], argv[1]
    pose = argv[2] if len(argv) > 2 else None
    import loopselect
    from loopselect import io as lio

    graph = lio.load_exchange_graph(exg)
    if objective == "modular":
        loopselect.ModularObjective(graph)
    else:
        pose_graph = lio.load_pose_graph(pose)
        cls = {"treeconn": loopselect.TreeConnObjective, "dcrit": loopselect.DCritObjective}[objective]
        cls(graph, pose_graph)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
