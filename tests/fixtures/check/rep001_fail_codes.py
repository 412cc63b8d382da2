# virtual-path: src/repro/codes/bad_distance.py
# Seeded violation: networkx back in the distance computation (REP001 x1).
import networkx as nx


def distance(graph, a, b):
    return nx.shortest_path_length(graph, a, b)
