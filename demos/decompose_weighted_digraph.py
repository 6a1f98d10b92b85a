"""Walk through the five-vertex weighted digraph example.

Builds the oriented graph, reads off its edge ideal, enumerates the strong
vertex covers, turns them into the irreducible decomposition, and shows that
reversing a single arc destroys unmixedness.

Run from the repository root:

    python3 demos/decompose_weighted_digraph.py
"""

from idealkit import WeightedDigraph, irreducible_decomposition, is_unmixed


def main():
    D = WeightedDigraph.of(
        [("x1", 2), ("x2", 2), ("x3", 1), ("x4", 2), ("x5", 1)],
        [("x1", "x2"), ("x3", "x2"), ("x5", "x2"),
         ("x3", "x4"), ("x5", "x4"), ("x3", "x1")])
    print("digraph:", D)

    I = D.edge_ideal()
    print("\nedge ideal  I(D) =", I)

    print("\nstrong vertex covers and their partitions:")
    for part in D.strong_covers():
        print("  ", part)

    print("\none irreducible component per strong cover:")
    prt = D.prt_decomposition()
    for comp in prt:
        print("  ", comp)

    dec = irreducible_decomposition(I)
    print("\ngenerator-by-generator algorithm agrees:", prt == dec)
    print("I(D) is unmixed:", is_unmixed(I))

    flipped = WeightedDigraph.of(
        [("x1", 2), ("x2", 2), ("x3", 1), ("x4", 2), ("x5", 1)],
        [("x1", "x2"), ("x3", "x2"), ("x2", "x5"),
         ("x3", "x4"), ("x5", "x4"), ("x3", "x1")])
    print("\nafter reversing the arc (x5, x2):")
    print("  unmixed:", is_unmixed(flipped.edge_ideal()))
    for comp in flipped.prt_decomposition():
        print("  ", comp)


if __name__ == "__main__":
    main()
