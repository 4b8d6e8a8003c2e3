"""Eulerian idempotents on the shuffle/deconcatenation bialgebra.

Run with: python3 demos/eulerian_idempotents.py
"""

from operads.idempotents import ConvolutionContext, eulerian, versal_idempotent
from operads.linalg import LinComb
from operads.models import get_model

deg = 4
model = get_model("classical", 2)
ctx = ConvolutionContext(model)

e1 = eulerian(ctx, 1, deg)
versal = versal_idempotent(model, max_degree=deg)
assert versal == e1
print("the versal idempotent equals the first Eulerian idempotent "
      "(degrees 1..%d, exact matrices)" % deg)

print("\nranks of the Eulerian family by degree:")
family = [eulerian(ctx, i, deg) for i in range(1, deg + 1)]
for n in range(1, deg + 1):
    print("  degree %d: %s  (sum = %d = dim)" % (
        n,
        [e.rank(n) for e in family],
        len(model.basis(n)),
    ))

xy = LinComb.of("xy")
print("\ne(1) projects xy onto its Lie part:", xy.map_keys(model.splitting.versal))
yx = LinComb.of("yx")
print("e(1) kills the symmetric part xy + yx:", (xy + yx).map_keys(model.splitting.versal))
