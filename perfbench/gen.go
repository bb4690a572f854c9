package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
)

// newRand returns the benchmark's deterministic generator for seed; stream
// separates the independent draws of one run (inputs, arrivals, ...).
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// synthKB is a generated knowledge base with a join goal as its main/0,
// and the goal's first answer computed in Go.
type synthKB struct {
	src    string
	expect string
}

type emp struct{ id, dept, salary int }
type proj struct{ id, dept, budget int }
type rankRule struct{ lo, hi, rank int }

// genKB writes a few hundred facts and rules: departments at locations,
// projects and employees in departments, and salary-band rank rules. Its
// main/0 joins all four and writes the first match. The size is held to
// about 15k ICIs because rename.Fold is quadratic in program size (20k
// ICIs take ~0.7 s, 150k take ~40 s on a 2-CPU x86 box), and the input is
// compiled twice per pass. The oracle walks the
// same clauses in the same order as Prolog's depth-first search, so the
// expected output never comes from this compiler.
func genKB(rng *rand.Rand) synthKB {
	const (
		nDept = 20
		nLoc  = 6
		nProj = 60
		nEmp  = 220
		nRank = 20
	)
	depts := make([]int, nDept+1) // dept id -> location
	for d := 1; d <= nDept; d++ {
		depts[d] = 1 + rng.IntN(nLoc)
	}
	projs := make([]proj, nProj)
	for i := range projs {
		projs[i] = proj{id: i + 1, dept: 1 + rng.IntN(nDept), budget: rng.IntN(1000)}
	}
	emps := make([]emp, nEmp)
	for i := range emps {
		emps[i] = emp{id: i + 1, dept: 1 + rng.IntN(nDept), salary: 1000 + rng.IntN(9000)}
	}
	ranks := make([]rankRule, nRank)
	for i := range ranks {
		lo := 1000 + rng.IntN(9000)
		ranks[i] = rankRule{lo: lo, hi: lo + 1 + rng.IntN(2000), rank: i}
	}

	var b strings.Builder
	for d := 1; d <= nDept; d++ {
		fmt.Fprintf(&b, "dept(%d, %d).\n", d, depts[d])
	}
	for _, p := range projs {
		fmt.Fprintf(&b, "proj(%d, %d, %d).\n", p.id, p.dept, p.budget)
	}
	for _, e := range emps {
		fmt.Fprintf(&b, "emp(%d, %d, %d).\n", e.id, e.dept, e.salary)
	}
	for _, r := range ranks {
		fmt.Fprintf(&b, "rank(E, %d) :- emp(E, _, S), S >= %d, S < %d.\n", r.rank, r.lo, r.hi)
	}

	// Draw join parameters until the join has an answer (deterministic in
	// the seed: the draws come from the same generator).
	for {
		loc := 1 + rng.IntN(nLoc)
		minBudget := rng.IntN(900)
		minSalary := 1000 + rng.IntN(8000)
		minRank := rng.IntN(nRank)
		ans, ok := joinFirst(depts, projs, emps, ranks, loc, minBudget, minSalary, minRank)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "main :- dept(D, %d), proj(P, D, B), B > %d, emp(E, D, S), S > %d, rank(E, R), R >= %d, write([E,P,R]), nl.\n",
			loc, minBudget, minSalary, minRank)
		return synthKB{src: b.String(), expect: ans}
	}
}

// joinFirst evaluates the main/0 join in clause order and returns the
// first answer as main/0 writes it.
func joinFirst(depts []int, projs []proj, emps []emp, ranks []rankRule, loc, minBudget, minSalary, minRank int) (string, bool) {
	for d := 1; d < len(depts); d++ {
		if depts[d] != loc {
			continue
		}
		for _, p := range projs {
			if p.dept != d || p.budget <= minBudget {
				continue
			}
			for _, e := range emps {
				if e.dept != d || e.salary <= minSalary {
					continue
				}
				for _, r := range ranks {
					if e.salary >= r.lo && e.salary < r.hi && r.rank >= minRank {
						return fmt.Sprintf("[%d,%d,%d]\n", e.id, p.id, r.rank), true
					}
				}
			}
		}
	}
	return "", false
}

// Go oracles for the generated serve_mix goals.

func fibOracle(n int) int {
	a, b := 1, 1 // the corpus fib/2: fib(0) = fib(1) = 1
	for i := 1; i < n; i++ {
		a, b = b, a+b
	}
	return b
}

func takOracle(x, y, z int) int {
	if x <= y {
		return z
	}
	return takOracle(takOracle(x-1, y, z), takOracle(y-1, z, x), takOracle(z-1, x, y))
}

func listText(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func randList(rng *rand.Rand, n, hi int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = rng.IntN(hi)
	}
	return xs
}

// query is one generated /query goal against a corpus knowledge base, with
// its first answer as the server writes it.
type query struct {
	kb, goal, expect string
}

// genQuery draws one goal whose answer is computable in Go. Goals come from
// four families over corpus knowledge bases: qsort of a random list, fib
// with a random lower bound on the answer, small-argument tak, and nrev of
// a random list. The random parts make almost every goal text distinct.
// Arguments are bounded so no goal runs long (tak below 9 makes at most
// ~4.7k calls; at 12 it would make 650k): a cold query's cost is its
// compile and fresh engine, not its execution.
func genQuery(rng *rand.Rand) query {
	switch rng.IntN(4) {
	case 0:
		xs := randList(rng, 8+rng.IntN(25), 1000)
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		return query{"qsort", fmt.Sprintf("qsort(%s, S, [])", listText(xs)), "S = " + listText(sorted) + "\n"}
	case 1:
		n := 8 + rng.IntN(9)
		f := fibOracle(n)
		return query{"fib", fmt.Sprintf("fib(%d, F), F > %d", n, rng.IntN(f)), fmt.Sprintf("F = %d\n", f)}
	case 2:
		x, y, z := rng.IntN(9), rng.IntN(9), rng.IntN(9)
		return query{"tak", fmt.Sprintf("tak(%d, %d, %d, A)", x, y, z), fmt.Sprintf("A = %d\n", takOracle(x, y, z))}
	default:
		xs := randList(rng, 5+rng.IntN(26), 100)
		rev := slices.Clone(xs)
		slices.Reverse(rev)
		return query{"reverse", fmt.Sprintf("nrev(%s, R)", listText(xs)), "R = " + listText(rev) + "\n"}
	}
}

// pagedQuery is a multi-solution goal: selectq/3 of queens_8 enumerates the
// list's elements in order, one solution each.
type pagedQuery struct {
	goal   string
	expect []string
	limit  int
}

func genPaged(rng *rand.Rand) pagedQuery {
	xs := randList(rng, 4+rng.IntN(5), 100)
	exp := make([]string, len(xs))
	for i, x := range xs {
		exp[i] = fmt.Sprintf("X = %d\n", x)
	}
	return pagedQuery{goal: fmt.Sprintf("selectq(X, %s, _)", listText(xs)), expect: exp, limit: 2 + rng.IntN(2)}
}
