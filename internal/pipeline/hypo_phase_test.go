package pipeline

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"comparenb/internal/engine"
	"comparenb/internal/insight"
	"comparenb/internal/table"
)

// integerRelation has five categorical attributes whose values are first
// seen in an order unrelated to their string order, and two
// integer-valued measures, so every cube sum is exact in any row order.
func integerRelation(seed int64) *table.Relation {
	vals := []string{"b", "a", "10", "9", "Z"}
	doms := []int{3, 4, 5, 3, 4}
	names := []string{"c0", "c1", "c2", "c3", "c4"}
	b := table.NewBuilder("ints", names, []string{"m0", "m1"})
	rng := rand.New(rand.NewSource(seed))
	cats := make([]string, len(doms))
	for i := 0; i < 600; i++ {
		for a, d := range doms {
			cats[a] = vals[rng.Intn(d)]
		}
		b.AddRow(cats, []float64{float64(rng.Intn(100) - 30), float64(rng.Intn(7) * (1 + rng.Intn(5)))})
	}
	return b.Build()
}

// tieRelation plants a comparison decided by float rounding. Grouped by
// g, avg(m0) is (0.1, 0.2, 0.3) where s = p and (0.3, 0.2, 0.1) where
// s = q, in g's string order x1, x2, x3. Summed in that order the left
// mean is one ulp above the right one, so the query supports "mean of m0
// greater for p than q"; summed in g's code order (x3, x1, x2, the order
// the values are first seen) the two means are equal and it does not.
func tieRelation() *table.Relation {
	b := table.NewBuilder("tie", []string{"g", "s"}, []string{"m0"})
	sums := map[string][2]float64{"x1": {1, 3}, "x2": {2, 2}, "x3": {3, 1}}
	for _, g := range []string{"x3", "x1", "x2"} {
		for side, sel := range []string{"p", "q"} {
			for i := 0; i < 10; i++ {
				v := 0.0
				if i == 0 {
					v = sums[g][side]
				}
				b.AddRow([]string{g, sel}, []float64{v})
			}
		}
	}
	return b.Build()
}

// shuffledRows rebuilds rel with its rows in a random order. The builder
// assigns dictionary codes by first occurrence, so the shuffle reassigns
// them.
func shuffledRows(rel *table.Relation, seed int64) *table.Relation {
	b := table.NewBuilder(rel.Name(), rel.CatNames(), rel.MeasNames())
	cats := make([]string, rel.NumCatAttrs())
	meas := make([]float64, rel.NumMeasures())
	for _, r := range rand.New(rand.NewSource(seed)).Perm(rel.NumRows()) {
		for a := range cats {
			cats[a] = rel.Value(a, rel.CatCol(a)[r])
		}
		for m := range meas {
			meas[m] = rel.MeasCol(m)[r]
		}
		b.AddRow(cats, meas)
	}
	return b.Build()
}

// allInsights lists an insight for every ordered value pair, measure and
// type of rel, in string order. Significances are multiples of 1/16 drawn
// from the insight's strings, so interest sums are exact whatever order
// the supported insights are summed in.
func allInsights(rel *table.Relation) []insight.Insight {
	var out []insight.Insight
	for attr := 0; attr < rel.NumCatAttrs(); attr++ {
		dom := rel.SortedDomain(attr)
		for _, v := range dom {
			for _, v2 := range dom {
				if v == v2 {
					continue
				}
				for m := 0; m < rel.NumMeasures(); m++ {
					for _, typ := range insight.AllTypes {
						ins := insight.Insight{Meas: m, Attr: attr, Val: v, Val2: v2, Type: typ}
						h := fnv.New32a()
						_, _ = h.Write([]byte(insightName(rel, ins))) // hash.Hash writes never fail
						ins.Sig = float64(h.Sum32()%16+1) / 16
						out = append(out, ins)
					}
				}
			}
		}
	}
	return out
}

// relabel maps insights of rel onto rel2's dictionary codes by value
// string.
func relabel(t *testing.T, rel, rel2 *table.Relation, sig []insight.Insight) []insight.Insight {
	t.Helper()
	out := make([]insight.Insight, len(sig))
	for i, ins := range sig {
		var ok1, ok2 bool
		ins.Val, ok1 = rel2.CodeOf(ins.Attr, rel.Value(ins.Attr, ins.Val))
		ins.Val2, ok2 = rel2.CodeOf(ins.Attr, rel.Value(ins.Attr, ins.Val2))
		if !ok1 || !ok2 {
			t.Fatalf("insight %d has a value missing from the shuffled relation", i)
		}
		out[i] = ins
	}
	return out
}

func insightName(rel *table.Relation, ins insight.Insight) string {
	return fmt.Sprintf("%s %s>%s m%d %s", rel.CatName(ins.Attr),
		rel.Value(ins.Attr, ins.Val), rel.Value(ins.Attr, ins.Val2), ins.Meas, ins.Type)
}

// hypoFingerprint renders the hypothesis phase's output by value strings,
// one line per query and per insight, sorted: everything that must not
// depend on which dictionary codes the values got.
func hypoFingerprint(rel *table.Relation, queries []ScoredQuery, final []insight.Insight) []string {
	var lines []string
	for _, sq := range queries {
		q := sq.Query
		var sup []string
		for _, ins := range sq.Supported {
			sup = append(sup, fmt.Sprintf("%s sig=%x cred=%d/%d", insightName(rel, ins),
				math.Float64bits(ins.Sig), ins.Credibility, ins.NumHypo))
		}
		sort.Strings(sup)
		lines = append(lines, fmt.Sprintf("Q %s(m%d) by %s: %s %s vs %s θ=%d γ=%d interest=%x [%s]",
			q.Agg, q.Meas, rel.CatName(q.GroupBy), rel.CatName(q.Attr),
			rel.Value(q.Attr, q.Val), rel.Value(q.Attr, q.Val2),
			sq.Theta, sq.Gamma, math.Float64bits(sq.Interest), strings.Join(sup, "; ")))
	}
	for _, ins := range final {
		lines = append(lines, fmt.Sprintf("I %s cred=%d/%d", insightName(rel, ins), ins.Credibility, ins.NumHypo))
	}
	sort.Strings(lines)
	return lines
}

// TestHypothesesInvariantUnderRowShuffle is the row-order metamorphic
// test of the hypothesis phase: shuffling the rows reassigns every
// dictionary code, so comparison rows ordered by code instead of by value
// string, or θ/γ read off the wrong groups, would change the output.
// With integer measures every cube aggregate is exact in any row order, so
// the queries, θ, γ, credibilities and interests must agree bit for bit,
// with and without Algorithm 2's merged group-bys. tieRelation's planted
// query is supported only when the rows are summed in string order.
func TestHypothesesInvariantUnderRowShuffle(t *testing.T) {
	for _, rel := range []*table.Relation{integerRelation(3), tieRelation()} {
		shuf := shuffledRows(rel, 4)
		recoded := false
		for a := 0; a < rel.NumCatAttrs(); a++ {
			for c := int32(0); c < int32(rel.DomSize(a)); c++ {
				if c2, _ := shuf.CodeOf(a, rel.Value(a, c)); c2 != c {
					recoded = true
				}
			}
		}
		if !recoded {
			t.Fatalf("%s: the shuffle kept every dictionary code", rel.Name())
		}
		sig := allInsights(rel)
		sig2 := relabel(t, rel, shuf, sig)
		for _, wsc := range []bool{false, true} {
			cfg := NewConfig()
			cfg.Threads = 2
			cfg.UseWSC = wsc
			run := func(r *table.Relation, s []insight.Insight) []string {
				fds := engine.NewFDSet(engine.DetectFDs(r))
				queries, final, _, err := evalHypotheses(context.Background(), r, cfg, fds, s, engine.NewCubeCache(0), nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(queries) == 0 {
					t.Fatalf("%s: no hypothesis query generated", r.Name())
				}
				return hypoFingerprint(r, queries, final)
			}
			want, got := run(rel, sig), run(shuf, sig2)
			if rel.Name() == "tie" && !hasPrefixLine(want, "Q avg(m0) by g: s p vs q ") {
				t.Fatalf("wsc=%v: the planted avg(m0) query is missing: its rows were not summed in string order", wsc)
			}
			if len(got) != len(want) {
				t.Fatalf("%s wsc=%v: %d output lines after the shuffle, %d before", rel.Name(), wsc, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s wsc=%v: line %d differs after the shuffle:\n got  %s\n want %s", rel.Name(), wsc, i, got[i], want[i])
				}
			}
		}
	}
}

func hasPrefixLine(lines []string, prefix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}
