package corpus

import (
	"fmt"
	"math/rand"
)

// Random returns n queries drawn by randQuery from a generator seeded
// with seed, to run over AuctionDoc bound as "auction.xml". Some fail in
// every evaluator (a type error, or text the parser rejects): a random
// case pins nothing, and the evaluators must agree on the failure too.
func Random(seed int64, n int) []string {
	r := rand.New(rand.NewSource(seed))
	queries := make([]string, n)
	for i := range queries {
		queries[i] = randQuery(r)
	}
	return queries
}

// randQuery emits a random query from a small grammar where both engines
// have identical semantics.
func randQuery(r *rand.Rand) string {
	paths := []string{"//person", "//price", "//name", "//open_auction", "//bidder"}
	atoms := []string{"1", "2", "40", `"x"`, "(1,2)", "()"}
	nums := []string{"1", "2", "40", "3.5"}
	// num yields a numeric singleton — arithmetic over longer sequences is
	// a type error that only the navigational engine detects.
	num := func() string {
		if r.Intn(3) == 0 {
			return fmt.Sprintf("count(%s)", paths[r.Intn(len(paths))])
		}
		return nums[r.Intn(len(nums))]
	}
	var gen func(depth int) string
	gen = func(depth int) string {
		if depth > 2 {
			return atoms[r.Intn(len(atoms))]
		}
		switch r.Intn(12) {
		case 0:
			return fmt.Sprintf("count(%s)", paths[r.Intn(len(paths))])
		case 1:
			return fmt.Sprintf("(%s + %s)", num(), num())
		case 2:
			return fmt.Sprintf("for $v%d in (%s, %s) return ($v%d, %s)",
				depth, gen(depth+1), gen(depth+1), depth, gen(depth+1))
		case 3:
			return fmt.Sprintf("if (%s = %s) then %s else %s",
				gen(depth+1), gen(depth+1), gen(depth+1), gen(depth+1))
		case 4:
			return fmt.Sprintf("sum(for $s%d in %s return 1)", depth, paths[r.Intn(len(paths))])
		case 5:
			return fmt.Sprintf("<w>{%s}</w>", gen(depth+1))
		case 6:
			return fmt.Sprintf("string(%s)", atoms[r.Intn(len(atoms))])
		case 7:
			return fmt.Sprintf("(%s to %s)", num(), num())
		case 8:
			return fmt.Sprintf("count(%s | %s)",
				paths[r.Intn(len(paths))], paths[r.Intn(len(paths))])
		case 9:
			return fmt.Sprintf("count(%s except %s)",
				paths[r.Intn(len(paths))], paths[r.Intn(len(paths))])
		case 10:
			return fmt.Sprintf("distinct-values((%s, %s))", gen(depth+1), gen(depth+1))
		case 11:
			// substring's first argument must be a singleton string.
			return fmt.Sprintf("substring(string(%s), %s)", num(), num())
		default:
			return fmt.Sprintf("(%s)[1]", paths[r.Intn(len(paths))])
		}
	}
	return gen(0)
}
