package semantics

import (
	"sort"

	"repro/internal/chart"
	"repro/internal/trace"
)

// Oracle is MatchLengths/MatchEndTicks with memoization over one fixed
// trace. The naive functions recompute child match sets once per start
// position; a conformance campaign asks for every start position of
// every subterm, which makes the naive oracle quadratic-times-chart-size
// per trace. The oracle caches match sets keyed by (subterm, start), so
// each pair is computed once. Results are identical to the naive
// functions (agreement-tested).
type Oracle struct {
	tr   trace.Trace
	memo map[oracleKey]map[int]bool
}

type oracleKey struct {
	node chart.Chart
	from int
}

// NewOracle prepares a memoized oracle for one trace. Charts passed to
// its methods may be shared across calls; subterm identity (pointer
// equality) is the cache key, so mutating a chart after use requires a
// fresh Oracle.
func NewOracle(tr trace.Trace) *Oracle {
	return &Oracle{tr: tr, memo: make(map[oracleKey]map[int]bool)}
}

// MatchLengths is the memoized equivalent of the package-level
// MatchLengths over the oracle's trace.
func (o *Oracle) MatchLengths(c chart.Chart, from int) []int {
	set := o.matchSet(c, from)
	out := make([]int, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// EndTicks is the memoized equivalent of MatchEndTicks.
func (o *Oracle) EndTicks(c chart.Chart) []int {
	ends := make(map[int]bool)
	for from := 0; from <= len(o.tr); from++ {
		for l := range o.matchSet(c, from) {
			if l > 0 {
				ends[from+l-1] = true
			}
		}
	}
	out := make([]int, 0, len(ends))
	for t := range ends {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// Contains is the memoized equivalent of ContainsScenario.
func (o *Oracle) Contains(c chart.Chart) bool {
	for from := 0; from <= len(o.tr); from++ {
		for l := range o.matchSet(c, from) {
			if l > 0 {
				return true
			}
		}
	}
	return false
}

// ImpliesViolations is the memoized equivalent of the package-level
// ImpliesViolations.
func (o *Oracle) ImpliesViolations(v *chart.Implies) []int {
	var out []int
	for from := 0; from <= len(o.tr); from++ {
		for tl := range o.matchSet(v.Trigger, from) {
			if tl == 0 {
				continue
			}
			start := from + tl
			ok := false
			for d := 0; d <= v.MaxDelay && !ok; d++ {
				for cl := range o.matchSet(v.Consequent, start+d) {
					if cl > 0 {
						ok = true
						break
					}
				}
			}
			if !ok && consequentCouldFit(v.Consequent, o.tr, start+v.MaxDelay) {
				out = append(out, from+tl-1)
			}
		}
	}
	sort.Ints(out)
	return out
}

func (o *Oracle) matchSet(c chart.Chart, from int) map[int]bool {
	key := oracleKey{c, from}
	if cached, ok := o.memo[key]; ok {
		return cached
	}
	out := make(map[int]bool)
	// Insert before recursing: charts consume at least one tick per
	// nesting level, so no cycle can revisit (c, from), but claiming the
	// slot early keeps a buggy chart from looping the oracle forever.
	o.memo[key] = out
	tr := o.tr
	switch v := c.(type) {
	case *chart.SCESC:
		if WindowMatchesSCESC(v, tr, from) {
			out[v.NumTicks()] = true
		}
	case *chart.Seq:
		cur := map[int]bool{0: true}
		for _, ch := range v.Children {
			next := make(map[int]bool)
			for off := range cur {
				for l := range o.matchSet(ch, from+off) {
					next[off+l] = true
				}
			}
			cur = next
			if len(cur) == 0 {
				break
			}
		}
		for l := range cur {
			out[l] = true
		}
	case *chart.Alt:
		for _, ch := range v.Children {
			for l := range o.matchSet(ch, from) {
				out[l] = true
			}
		}
	case *chart.Par:
		var acc map[int]bool
		for i, ch := range v.Children {
			ls := o.matchSet(ch, from)
			if i == 0 {
				acc = make(map[int]bool, len(ls))
				for l := range ls {
					acc[l] = true
				}
				continue
			}
			for l := range acc {
				if !ls[l] {
					delete(acc, l)
				}
			}
		}
		for l := range acc {
			out[l] = true
		}
	case *chart.Loop:
		cur := map[int]bool{0: true}
		if v.Min == 0 {
			out[0] = true
		}
		reps := 0
		for {
			reps++
			if v.Max != chart.Unbounded && reps > v.Max {
				break
			}
			next := make(map[int]bool)
			for off := range cur {
				for l := range o.matchSet(v.Body, from+off) {
					next[off+l] = true
				}
			}
			if len(next) == 0 {
				break
			}
			if reps >= v.Min {
				for l := range next {
					out[l] = true
				}
			}
			cur = next
			if reps > len(tr)+1 {
				break
			}
		}
	case *chart.Implies:
		for tl := range o.matchSet(v.Trigger, from) {
			for d := 0; d <= v.MaxDelay; d++ {
				for cl := range o.matchSet(v.Consequent, from+tl+d) {
					out[tl+d+cl] = true
				}
			}
		}
	case *chart.Async:
		// No single-trace window semantics; see AsyncSatisfied.
	}
	return out
}
