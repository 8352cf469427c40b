"""Reproduce the published cost-comparison tables and savings percentages.

The prior-work catalog holds closed forms only (those constructions are not
generated here).  Savings compare leading coefficients of the T-count forms;
the cubic-cost entry is reported as asymptotic dominance instead of a
percentage.
"""

from qcla import Design, savings, savings_average
from qcla.resources import CATALOG, OUT_OF_PLACE_BASELINES, round_half_up

n = 64
print(f"out-of-place catalog at n = {n}:")
for label in OUT_OF_PLACE_BASELINES:
    model = CATALOG[label]
    t_count, qubits = model.evaluate(n)
    approx = " (approx)" if model.approximate else ""
    print(f"  {label:<18} T={t_count!s:<8} qubits={qubits}{approx}")

print("\nper-baseline savings of the T-count-optimized out-of-place design:")
for label in OUT_OF_PLACE_BASELINES:
    print(f"  vs {label:<18} {savings(Design.OUT_FT_QCLA1, label).display}%")
print(f"  average: {round_half_up(savings_average(Design.OUT_FT_QCLA1))}%")

print("\nin-place averages:")
for design in (Design.IN_FT_QCLA1, Design.IN_FT_QCLA2):
    print(f"  {design.value}: {round_half_up(savings_average(design))}%")

# The cubic baseline has no linear leading coefficient to compare against.
fig = savings(Design.IN_FT_QCLA1, "Cheng")
print(f"\nvs Cheng: {fig.display}")

# The non-integer catalog value is kept as an exact rational.
cheng_t, _ = CATALOG["Cheng"].evaluate(8)
print(f"Cheng T-count at n=8: {cheng_t} (integer: {cheng_t.denominator == 1})")
