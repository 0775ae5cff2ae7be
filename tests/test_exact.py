from fractions import Fraction

from mcperturb import birth_death_hitting_times, gallery
from tests.conftest import MEYER_GROUP_INVERSE_NUMERATORS
from tests.exact import U, compare, lambda1


def test_certified_floats_lie_within_their_bounds_of_the_exact_values(exact_chains):
    worst = {}
    beyond = []
    for name, ex in exact_chains.items():
        for quantity, row in compare(ex).items():
            if quantity not in worst or row["ratio"] > worst[quantity][1]["ratio"]:
                worst[quantity] = (name, row)
            if not row["ratio"] <= 1.0:
                beyond.append(f"{name} {quantity}: {row}")
    print("largest error / bound per quantity:")
    for quantity, (name, row) in sorted(worst.items()):
        print(f"  {quantity:24s} {row['ratio']:.3g}  ({name}: error {row['error']:.3g}, "
              f"bound {row['bound']:.3g})")
    assert not beyond, beyond


def test_meyer_group_inverse_is_its_closed_form(exact_chains):
    X = exact_chains["meyer4"].group_inverse
    assert X == [[Fraction(2, 1083) * m for m in row] for row in MEYER_GROUP_INVERSE_NUMERATORS]
    assert lambda1(X) == Fraction(1368, 1083)


def test_birth_death_hitting_times_are_the_closed_form(exact_chains):
    # every term of the closed form is positive, and each entry passes through
    # at most 6n + 2 roundings: 2n in mu, n in a prefix or suffix sum, two in
    # a term and n in the running sum, so it lies within gamma_(6n+2) relative
    model = gallery.birth_death(20)
    n = model.chain.n - 1
    gamma = (6 * n + 2) * U / (1 - (6 * n + 2) * U)
    m = exact_chains["birth-death(20)"].hitting
    for j in range(n + 1):
        closed = birth_death_hitting_times(model.extras["a"], model.extras["b"],
                                           model.extras["c"], j)
        for i in range(n + 1):
            assert abs(Fraction(closed[i]) - m[i][j]) <= Fraction(gamma) * m[i][j]
