package engine

import "comparenb/internal/table"

// ValueRanks returns the string order of attribute a's dictionary as a
// lookup table: rank[c] is the position of code c in rel.SortedDomain(a).
// Dictionary values are distinct, so the ranks are a permutation of
// 0..DomSize(a)-1 and comparing two ranks is comparing the two strings.
func ValueRanks(rel *table.Relation, a int) []int32 {
	dom := rel.SortedDomain(a)
	rank := make([]int32, len(dom))
	for i, c := range dom {
		rank[c] = int32(i)
	}
	return rank
}

// CompareIndex answers comparison queries (A, B, val, val', M, agg) from
// one {A, B} cube without maps or string comparisons. For every code b of
// B it lists the cube's groups with B = b ordered by the rank of their A
// value, so the inner join of Def. 3.1 for any (val, val') is one merge
// of two sorted lists, and its rows come out in A's string order (the τ_A
// of the definition) — the order the literal plans' sort produces.
//
// An index only reads its cube: cubes shared through a CubeCache are never
// mutated, and an index lives as long as the run that built it.
type CompareIndex struct {
	cube *Cube
	posA int // position of A in the cube's group keys

	// B = b's groups are groups[off[b]:off[b+1]], ascending by A's rank;
	// ranks is aligned with groups.
	off    []int32
	groups []int32
	ranks  []int32
	rows   []int64 // rows[b]: tuples aggregated into B = b's groups
}

// NewCompareIndex indexes cube c for comparisons grouped by attrA and
// selected on attrB, rolling c up to {attrA, attrB} first when it is
// wider. rankA must be ValueRanks(c.Relation(), attrA). The build is two
// counting sorts over the groups: O(groups + |dom(A)| + |dom(B)|).
func NewCompareIndex(c *Cube, attrA, attrB int, rankA []int32) *CompareIndex {
	if len(c.attrs) != 2 || c.attrs[0] != minInt(attrA, attrB) || c.attrs[1] != maxInt(attrA, attrB) {
		c = c.Rollup([]int{attrA, attrB})
	}
	posA, posB := 0, 1
	if c.attrs[0] == attrB {
		posA, posB = 1, 0
	}
	ng := c.NumGroups()
	nb := c.rel.DomSize(attrB)
	off := make([]int32, nb+1)
	rows := make([]int64, nb)
	// Pass 1: bucket sizes by A's rank and by B's code.
	byRank := make([]int32, len(rankA)+1)
	for g := 0; g < ng; g++ {
		key := c.GroupKey(g)
		byRank[rankA[key[posA]]+1]++
		off[key[posB]+1]++
		rows[key[posB]] += c.counts[g]
	}
	for r := 1; r < len(byRank); r++ {
		byRank[r] += byRank[r-1]
	}
	for b := 1; b <= nb; b++ {
		off[b] += off[b-1]
	}
	// Pass 2: order the groups by A's rank, then deal them out to their B
	// buckets in that order, so each bucket is rank-ascending.
	byA := make([]int32, ng)
	for g := 0; g < ng; g++ {
		r := rankA[c.GroupKey(g)[posA]]
		byA[byRank[r]] = int32(g)
		byRank[r]++
	}
	groups := make([]int32, ng)
	ranks := make([]int32, ng)
	next := append([]int32(nil), off[:nb]...)
	for _, g := range byA {
		key := c.GroupKey(int(g))
		b := key[posB]
		groups[next[b]] = g
		ranks[next[b]] = rankA[key[posA]]
		next[b]++
	}
	return &CompareIndex{cube: c, posA: posA, off: off, groups: groups, ranks: ranks, rows: rows}
}

// Join is the inner join over A of one comparison's two selections: for
// each A value present on both sides, in A's string order, its cube group
// with B = val and its cube group with B = val'. Its buffers are reused
// across CompareIndex.Join calls.
type Join struct {
	groups      []int32 // codes of A
	left, right []int32 // cube groups with B = val and B = val'
	// Theta is θ_q of §4.2: the tuples with B ∈ {val, val'}.
	Theta int
}

// Len returns γ_q: the number of rows of the comparison's result.
func (j *Join) Len() int { return len(j.groups) }

// list returns B = b's groups and their A ranks.
func (ix *CompareIndex) list(b int32) (groups, ranks []int32) {
	lo, hi := ix.off[b], ix.off[b+1]
	return ix.groups[lo:hi], ix.ranks[lo:hi]
}

// Join merges the lists of val and val2 into j, overwriting it. A group
// value present on only one side is dropped; val == val2 matches every
// group of val with itself.
func (ix *CompareIndex) Join(val, val2 int32, j *Join) {
	j.groups, j.left, j.right = j.groups[:0], j.left[:0], j.right[:0]
	lg, lr := ix.list(val)
	rg, rr := ix.list(val2)
	for i, k := 0, 0; i < len(lr) && k < len(rr); {
		switch {
		case lr[i] < rr[k]:
			i++
		case lr[i] > rr[k]:
			k++
		default:
			j.groups = append(j.groups, ix.cube.GroupKey(int(lg[i]))[ix.posA])
			j.left = append(j.left, lg[i])
			j.right = append(j.right, rg[k])
			i++
			k++
		}
	}
	j.Theta = int(ix.rows[val])
	if val2 != val {
		j.Theta += int(ix.rows[val2])
	}
}

// Result writes the comparison result of join j for agg(measure meas)
// into res, reusing res's buffers. The values are the cube's own
// Cube.Value, bit for bit.
func (ix *CompareIndex) Result(j *Join, meas int, agg Agg, res *ComparisonResult) {
	res.Groups = append(res.Groups[:0], j.groups...)
	res.Left, res.Right = res.Left[:0], res.Right[:0]
	for i, lg := range j.left {
		res.Left = append(res.Left, ix.cube.Value(int(lg), meas, agg))
		res.Right = append(res.Right, ix.cube.Value(int(j.right[i]), meas, agg))
	}
}
