"""Run every theorem check and print a compact summary table.

Run:  python3 demos/theorem_suite.py
"""

from collections import defaultdict

from compent import run_suites

records = run_suites(["all"], lambdas=[1, 2, 3], seed=7)

groups = defaultdict(list)
for r in records:
    groups[r.name.split("#")[0]].append(r)

print(f"{'check':40s} {'runs':>5s} {'pass':>5s} {'worst slack':>12s}")
print("-" * 66)
for name in sorted(groups):
    rs = groups[name]
    worst = min(r.slack for r in rs if not r.inconclusive)  # inconclusive: no value
    status = "ok" if all(r.passed for r in rs) else "FAIL"
    print(f"{name:40s} {len(rs):5d} {status:>5s} {worst:12.2e}")

conclusive = [r for r in records if not r.inconclusive]
print("-" * 66)
print(f"{len(records)} records, {sum(r.passed for r in conclusive)} conclusive passes, "
      f"{sum(r.inconclusive for r in records)} inconclusive")
