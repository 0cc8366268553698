"""Where do eigenvectors go?  The derivative along a perturbation line.

For A + t F with a degenerate A, the eigenvector matrix has the derivative

    U'(0) = U (N - M * F_hat)        (* is the entrywise product)

at t = 0.  The M term is the familiar inverse-gap formula; the N term is
easy to forget and describes how the degenerate eigenspace rotates
internally to meet the perturbation.  This demo works the built-in 3 x 3
example where that rotation is a full quarter turn generator, so dropping N
is visibly wrong no matter how small t is.

All matrices below are in the package's frame: eigenvalues sorted
non-increasingly, so the double eigenvalue 0 occupies positions 2 and 3.
"""

import numpy as np

from eigpert import EXAMPLE_A, EXAMPLE_F, align_columns, eigh, hermitian, line_expansion

a = np.array(EXAMPLE_A)
f = np.array(EXAMPLE_F)
print("A = diag(0, 0, 1) has a double eigenvalue; the direction F couples its")
print("eigenspace to the rest and rotates it internally.")
print()

lex = line_expansion(a, f)

print("in-block rotation generator N:")
print(lex.n_mat.real)
print()
print("inverse-gap term M * F_hat:")
print((lex.ap.data.m * lex.ap.e_hat).real)
print()
print("derivative U'(0) = U (N - M * F_hat):")
print(lex.u_prime.real)
print()

t = 0.01
pred = lex.at(t)
exact = eigh(hermitian(a + t * f))
aligned = align_columns(exact.u, pred.u_hat, lex.ap.blocks.groups)

print(f"at t = {t:g}:")
print("  predicted eigenvalues :", np.round(pred.xi_hat, 6))
print("  solver eigenvalues    :", np.round(exact.lam, 6))
print(f"  eigenvector error ||U(t) - (U + t U'(0))|| = "
      f"{np.abs(aligned - pred.u_hat).max():.2e}")

naive = lex.ap.base.u + t * (lex.ap.base.u @ (-lex.ap.data.m * lex.ap.e_hat))
aligned_naive = align_columns(exact.u, naive, lex.ap.blocks.groups)
gap = np.abs(aligned_naive - naive).max()
print(f"  without N the error is {gap:.2e}, i.e. {gap / t:.3f} * t -- first order wrong,")
print("  because the prediction never rotates inside the degenerate block.")
