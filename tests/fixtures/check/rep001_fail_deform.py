# virtual-path: src/repro/deform/bad_scoring.py
# Seeded violation: networkx in candidate scoring (REP001 x2).
import networkx
from networkx.algorithms.shortest_paths import weighted


def score(graph, a, b):
    return networkx.has_path(graph, a, b) and weighted.dijkstra_path_length(
        graph, a, b
    )
