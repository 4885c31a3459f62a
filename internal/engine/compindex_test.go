package engine

import (
	"math"
	"math/rand"
	"testing"

	"comparenb/internal/table"
)

// edgeRelation is a relation built to trip a comparison index:
//   - every attribute's values are first seen out of string order ("b"
//     gets code 0, "10" sorts before "9"), so code order and string order
//     differ;
//   - measure m0 has NaN cells, and group "nan" of attribute g has only
//     NaN m0 cells (its Min and Max are NaN);
//   - group "lonely" of g occurs only with s = "y", and "k9" of g only
//     with s = "x";
//   - s = "gone" is in the dictionary but on no row (an empty selection).
func edgeRelation() *table.Relation {
	b := table.NewBuilder("edge", []string{"g", "s", "t"}, []string{"m0", "m1"})
	gs := []string{"b", "a", "10", "9", "Z", "nan"}
	ss := []string{"y", "x", "2", "11"}
	ts := []string{"q", "p", "1"}
	b.AddRow([]string{"b", "gone", "q"}, []float64{1, 1})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		g := gs[rng.Intn(len(gs))]
		m0 := float64(rng.Intn(50)) - 10.5
		if g == "nan" || rng.Intn(7) == 0 {
			m0 = math.NaN()
		}
		b.AddRow([]string{g, ss[rng.Intn(len(ss))], ts[rng.Intn(len(ts))]},
			[]float64{m0, rng.Float64() * 1e3})
	}
	b.AddRow([]string{"lonely", "y", "p"}, []float64{3, 4})
	b.AddRow([]string{"k9", "x", "1"}, []float64{5, math.NaN()})
	full := b.Build()
	keep := make([]int, 0, full.NumRows()-1)
	for i := 1; i < full.NumRows(); i++ {
		keep = append(keep, i)
	}
	return full.Select(keep)
}

// sameFloat is equality with NaN equal to NaN, within a relative
// tolerance for sums accumulated in different orders.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}

// findGroup returns the group of a pair cube whose key is (A = a, B = b).
func findGroup(t *testing.T, c *Cube, attrA int, a, b int32) int {
	t.Helper()
	posA := mustAttrPos(c.attrs, attrA)
	for g := 0; g < c.NumGroups(); g++ {
		key := c.GroupKey(g)
		if key[posA] == a && key[1-posA] == b {
			return g
		}
	}
	t.Fatalf("no group (%d, %d) in cube %v", a, b, c.attrs)
	return -1
}

// bruteThetaGamma counts θ (rows with B ∈ {val, val2}) and γ (A values
// occurring with both) straight off the relation's columns.
func bruteThetaGamma(rel *table.Relation, attrA, attrB int, val, val2 int32) (theta, gamma int) {
	colA, colB := rel.CatCol(attrA), rel.CatCol(attrB)
	onL := make([]bool, rel.DomSize(attrA))
	onR := make([]bool, rel.DomSize(attrA))
	for i, b := range colB {
		if b == val || b == val2 {
			theta++
		}
		if b == val {
			onL[colA[i]] = true
		}
		if b == val2 {
			onR[colA[i]] = true
		}
	}
	for a := range onL {
		if onL[a] && onR[a] {
			gamma++
		}
	}
	return theta, gamma
}

// TestCompareIndexMatchesDirect checks the index path against the literal
// Def. 3.1 plan for every orientation, value pair (val == val' and the
// empty selection included), measure and aggregate; against the cube's
// own Value bit for bit; and θ, γ against a brute-force count. One Join
// and one result are reused throughout, so stale buffer contents would
// show.
func TestCompareIndexMatchesDirect(t *testing.T) {
	rel := edgeRelation()
	if gone, _ := rel.CodeOf(1, "gone"); len(PairRows(rel, 1, gone, gone)) != 0 {
		t.Fatal("fixture: s = gone should select no rows")
	}
	wide := BuildCube(rel, []int{0, 1, 2})
	var j Join
	var res ComparisonResult
	queries := 0
	for attrA := 0; attrA < 3; attrA++ {
		for attrB := 0; attrB < 3; attrB++ {
			if attrA == attrB {
				continue
			}
			pc := BuildCube(rel, []int{attrA, attrB})
			ranks := ValueRanks(rel, attrA)
			ix := NewCompareIndex(pc, attrA, attrB, ranks)
			rolled := NewCompareIndex(wide, attrA, attrB, ranks)
			for val := int32(0); val < int32(rel.DomSize(attrB)); val++ {
				for val2 := int32(0); val2 < int32(rel.DomSize(attrB)); val2++ {
					theta, gamma := bruteThetaGamma(rel, attrA, attrB, val, val2)
					ix.Join(val, val2, &j)
					if j.Theta != theta || j.Len() != gamma {
						t.Fatalf("A=%d B=%d (%d,%d): θ,γ = %d,%d, brute force %d,%d",
							attrA, attrB, val, val2, j.Theta, j.Len(), theta, gamma)
					}
					for m := 0; m < 2; m++ {
						for _, agg := range AllAggs {
							queries++
							ix.Result(&j, m, agg, &res)
							want := CompareDirect(rel, attrA, attrB, val, val2, m, agg)
							if res.Len() != want.Len() {
								t.Fatalf("A=%d B=%d (%d,%d) m%d %s: %d rows, direct %d",
									attrA, attrB, val, val2, m, agg, res.Len(), want.Len())
							}
							for i := range want.Groups {
								if res.Groups[i] != want.Groups[i] {
									t.Fatalf("A=%d B=%d (%d,%d) row %d: group %q, direct %q", attrA, attrB, val, val2, i,
										rel.Value(attrA, res.Groups[i]), rel.Value(attrA, want.Groups[i]))
								}
								if !sameFloat(res.Left[i], want.Left[i]) || !sameFloat(res.Right[i], want.Right[i]) {
									t.Errorf("A=%d B=%d (%d,%d) m%d %s row %d: (%v,%v), direct (%v,%v)", attrA, attrB, val, val2,
										m, agg, i, res.Left[i], res.Right[i], want.Left[i], want.Right[i])
								}
								gl := findGroup(t, pc, attrA, res.Groups[i], val)
								gr := findGroup(t, pc, attrA, res.Groups[i], val2)
								if math.Float64bits(res.Left[i]) != math.Float64bits(pc.Value(gl, m, agg)) ||
									math.Float64bits(res.Right[i]) != math.Float64bits(pc.Value(gr, m, agg)) {
									t.Errorf("A=%d B=%d (%d,%d) m%d %s row %d: not the cube's Value bits", attrA, attrB, val, val2, m, agg, i)
								}
							}
							// The rolled-up index answers the same query
							// from a cube of a different shape.
							var rj Join
							var rres ComparisonResult
							rolled.Join(val, val2, &rj)
							rolled.Result(&rj, m, agg, &rres)
							if rj.Theta != theta || !sameResult(&rres, &res) {
								t.Fatalf("A=%d B=%d (%d,%d) m%d %s: rolled-up index differs", attrA, attrB, val, val2, m, agg)
							}
						}
					}
				}
			}
		}
	}
	if queries == 0 {
		t.Fatal("no queries checked")
	}
}

func sameResult(a, b *ComparisonResult) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Groups {
		if a.Groups[i] != b.Groups[i] || !sameFloat(a.Left[i], b.Left[i]) || !sameFloat(a.Right[i], b.Right[i]) {
			return false
		}
	}
	return true
}

// TestCompareIndexEdgeCases pins the named corners of edgeRelation.
func TestCompareIndexEdgeCases(t *testing.T) {
	rel := edgeRelation()
	pc := BuildCube(rel, []int{0, 1})
	ix := NewCompareIndex(pc, 0, 1, ValueRanks(rel, 0))
	s := codes(t, rel, 1, "y", "x", "gone")
	y, x, gone := s[0], s[1], s[2]
	var j Join
	var res ComparisonResult

	// String order, not code order: "10" < "9" < "Z" < "a" < "b" < "nan".
	ix.Join(y, x, &j)
	var names []string
	for _, g := range j.groups {
		names = append(names, rel.Value(0, g))
	}
	want := []string{"10", "9", "Z", "a", "b", "nan"}
	if len(names) != len(want) {
		t.Fatalf("groups %v, want %v (lonely and k9 are one-sided)", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("groups %v, want %v", names, want)
		}
	}

	// The all-NaN group: Min and Max NaN, Sum 0.
	nan := len(want) - 1
	for _, agg := range []Agg{Min, Max} {
		ix.Result(&j, 0, agg, &res)
		if !math.IsNaN(res.Left[nan]) || !math.IsNaN(res.Right[nan]) {
			t.Errorf("%s of the all-NaN group = (%v, %v), want NaN", agg, res.Left[nan], res.Right[nan])
		}
	}
	ix.Result(&j, 0, Sum, &res)
	if res.Left[nan] != 0 || res.Right[nan] != 0 {
		t.Errorf("sum of the all-NaN group = (%v, %v), want 0", res.Left[nan], res.Right[nan])
	}

	// val == val': every group of the selection, matched with itself.
	ix.Join(y, y, &j)
	theta, gamma := bruteThetaGamma(rel, 0, 1, y, y)
	if j.Theta != theta || j.Len() != gamma || gamma != len(want)+1 {
		t.Errorf("self join θ,γ = %d,%d, want %d,%d", j.Theta, j.Len(), theta, len(want)+1)
	}
	for i := range j.left {
		if j.left[i] != j.right[i] {
			t.Errorf("self join row %d pairs groups %d and %d", i, j.left[i], j.right[i])
		}
	}

	// The empty selection joins nothing; θ counts the other side only.
	ix.Join(gone, y, &j)
	ix.Result(&j, 1, Avg, &res)
	if theta, _ := bruteThetaGamma(rel, 0, 1, y, y); j.Len() != 0 || res.Len() != 0 || j.Theta != theta {
		t.Errorf("empty selection: γ = %d, rows = %d, θ = %d, want 0, 0, %d", j.Len(), res.Len(), j.Theta, theta)
	}
	ix.Join(gone, gone, &j)
	if j.Len() != 0 || j.Theta != 0 {
		t.Errorf("empty self join: γ = %d, θ = %d", j.Len(), j.Theta)
	}
}

// TestCompareIndexLeavesCubeUnchanged: cubes in a shared CubeCache are
// read by concurrent runs, so building an index (including one over a
// wider cube, which rolls up) must not write to the cube.
func TestCompareIndexLeavesCubeUnchanged(t *testing.T) {
	rel := edgeRelation()
	for _, attrs := range [][]int{{0, 1}, {0, 1, 2}} {
		c := BuildCube(rel, attrs)
		keys := append([]int32(nil), c.keyData...)
		counts := append([]int64(nil), c.counts...)
		sums := append([]float64(nil), c.sums[0]...)
		NewCompareIndex(c, 1, 0, ValueRanks(rel, 1))
		NewCompareIndex(c, 0, 1, ValueRanks(rel, 0))
		for i := range keys {
			if keys[i] != c.keyData[i] {
				t.Fatalf("attrs %v: key data changed", attrs)
			}
		}
		for g := range counts {
			if counts[g] != c.counts[g] || math.Float64bits(sums[g]) != math.Float64bits(c.sums[0][g]) {
				t.Fatalf("attrs %v: group %d changed", attrs, g)
			}
		}
	}
}

func TestValueRanks(t *testing.T) {
	rel := edgeRelation()
	ranks := ValueRanks(rel, 1)
	for i, c := range rel.SortedDomain(1) {
		if ranks[c] != int32(i) {
			t.Fatalf("rank of %q = %d, want %d", rel.Value(1, c), ranks[c], i)
		}
	}
}
