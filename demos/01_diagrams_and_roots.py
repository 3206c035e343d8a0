"""Walk through diagram construction and exact root enumeration.

Run with: python demos/01_diagrams_and_roots.py
"""

from cograss import build_diagram, highest_root, inner_form, positive_roots

# A finite diagram knows its Cartan matrix and minimal symmetrizer.
d4 = build_diagram("D", 4)
print("D4 Cartan matrix:")
for row in d4.cartan:
    print("   ", row)

# Positive roots grow upward from the simple roots: a simple reflection
# is applied only where it raises the root, so every image is positive;
# the highest root is their componentwise maximum.
roots = sorted(positive_roots(d4))
print(f"\nD4 has {len(roots)} positive roots; the highest is {highest_root(d4)}")

# The affine extension is computed, not tabulated: the new node pairs
# against the highest root through the invariant form.
d4_affine = build_diagram("D", 4, affine=True)
print("\nAffine D4 marks (the imaginary root delta):", d4_affine.delta)
print("Affine Cartan row of node 0:", d4_affine.cartan[0])

# delta is isotropic and orthogonal to everything.
for node in d4_affine.nodes:
    form = inner_form(d4_affine, d4_affine.delta, d4_affine.simple_root(node))
    assert form == 0
print("(delta | alpha_i) = 0 for every node: checked")

# The rank-one affine diagram carries the infinity bond.
a1_affine = build_diagram("A", 1, affine=True)
print("\nAffine A1 Cartan matrix:", a1_affine.cartan)
