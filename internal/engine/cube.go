package engine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"comparenb/internal/table"
)

// Cube is a partial aggregate: the result of γ over a set of categorical
// attributes, carrying count/sum/min/max for every measure so that any Agg
// (and any roll-up to a subset of the attributes — the trick behind
// Algorithm 2's group-by merging) can be answered from it without touching
// the base relation again.
//
// Group keys live in one flat backing array (stride = number of attributes)
// instead of a slice per group: building a cube allocates O(1) key slices
// regardless of the group count, and GroupKey is a re-slice, not a lookup.
type Cube struct {
	rel    *table.Relation
	attrs  []int // sorted categorical attribute indexes
	stride int   // == len(attrs)

	keyData []int32 // keyData[g*stride+k] = code of attrs[k] in group g
	counts  []int64
	sums    [][]float64 // sums[m][g]
	mins    [][]float64
	maxs    [][]float64

	// SourceRows is θ_q of §4.2: the number of tuples aggregated.
	SourceRows int
}

// Attrs returns a copy of the (sorted) categorical attribute indexes the
// cube groups by.
func (c *Cube) Attrs() []int { return append([]int(nil), c.attrs...) }

// NumGroups returns γ_q: the number of groups.
func (c *Cube) NumGroups() int { return len(c.counts) }

// Relation returns the relation the cube was built from.
func (c *Cube) Relation() *table.Relation { return c.rel }

// GroupKey returns the attribute codes identifying group g, aligned with
// Attrs(). The slice is owned by the cube (it aliases the flat backing
// array and is capped, so appends cannot clobber a neighbouring group).
func (c *Cube) GroupKey(g int) []int32 {
	lo, hi := g*c.stride, (g+1)*c.stride
	return c.keyData[lo:hi:hi]
}

// Count returns the tuple count of group g.
func (c *Cube) Count(g int) int64 { return c.counts[g] }

// Value returns agg(measure m) for group g. Avg of an empty group and
// Min/Max of an all-NaN group are NaN.
func (c *Cube) Value(g, m int, agg Agg) float64 {
	switch agg {
	case Sum:
		return c.sums[m][g]
	case Avg:
		if c.counts[g] == 0 {
			return math.NaN()
		}
		return c.sums[m][g] / float64(c.counts[g])
	case Min:
		return c.mins[m][g]
	case Max:
		return c.maxs[m][g]
	case Count:
		return float64(c.counts[g])
	default:
		//nolint:nopanic // exhaustive switch over the Agg enum; a new value is a programming error every test hits immediately
		panic(fmt.Sprintf("engine: bad agg %d", int(agg)))
	}
}

// MemoryFootprint estimates the in-memory size of the cube in bytes. This
// is the weight used by Algorithm 2's weighted set cover and the unit the
// CubeCache budget is expressed in.
func (c *Cube) MemoryFootprint() int64 {
	g := int64(c.NumGroups())
	perGroup := int64(len(c.attrs))*4 + 8 + int64(c.rel.NumMeasures())*3*8
	return g * perGroup
}

// buildShardRows is the fixed shard width of the sharded cube build. It
// depends only on the relation size — never on the thread count — so the
// per-shard partial sums, and therefore the merged totals, are bit-identical
// no matter how many workers execute the shards (see docs/PERFORMANCE.md
// for the determinism argument).
const buildShardRows = 16384

// maxDenseCells bounds the composite-code space for which the group
// indexer uses a dense table (one int32 per possible key) instead of a
// hash map. 1<<20 cells is a 4 MiB scratch table.
const maxDenseCells = 1 << 20

// groupIndexer assigns dense group ids to composite keys in first-come
// order. Three regimes, fastest first: a dense table over the mixed-radix
// code space when it is small, a hash map over the mixed-radix code when it
// fits uint64, and a string-keyed map over the raw code bytes otherwise.
type groupIndexer struct {
	stride int
	radix  []uint64
	dense  []int32 // code → group+1 (0 = unassigned) when the space is small
	m      map[uint64]int32
	ms     map[string]int32
	buf    []byte
	n      int32
}

func newGroupIndexer(rel *table.Relation, sorted []int, sizeHint int) *groupIndexer {
	ix := &groupIndexer{stride: len(sorted)}
	radix, ok := mixedRadix(rel, sorted)
	if !ok {
		ix.ms = make(map[string]int32, sizeHint)
		ix.buf = make([]byte, 4*len(sorted))
		return ix
	}
	ix.radix = radix
	cells := uint64(1)
	for _, a := range sorted {
		d := uint64(rel.DomSize(a))
		if d == 0 {
			d = 1
		}
		cells *= d
	}
	if cells <= maxDenseCells {
		ix.dense = make([]int32, cells)
		return ix
	}
	ix.m = make(map[uint64]int32, sizeHint)
	return ix
}

// lookupOrAdd returns the group id for key, assigning the next id when the
// key is new. Ids are dense and ordered by first occurrence of the key in
// the call sequence.
func (ix *groupIndexer) lookupOrAdd(key []int32) (g int32, isNew bool) {
	switch {
	case ix.dense != nil:
		h := uint64(0)
		for k, code := range key {
			h += uint64(code) * ix.radix[k]
		}
		if id := ix.dense[h]; id != 0 {
			return id - 1, false
		}
		ix.dense[h] = ix.n + 1
	case ix.m != nil:
		h := uint64(0)
		for k, code := range key {
			h += uint64(code) * ix.radix[k]
		}
		if id, found := ix.m[h]; found {
			return id, false
		}
		ix.m[h] = ix.n
	default:
		for k, code := range key {
			ix.buf[4*k] = byte(code)
			ix.buf[4*k+1] = byte(code >> 8)
			ix.buf[4*k+2] = byte(code >> 16)
			ix.buf[4*k+3] = byte(code >> 24)
		}
		if id, found := ix.ms[string(ix.buf)]; found {
			return id, false
		}
		ix.ms[string(ix.buf)] = ix.n
	}
	g = ix.n
	ix.n++
	return g, true
}

// cubeAccum is one accumulator of the sharded build: either a shard's
// private partial aggregate or the global merge target.
type cubeAccum struct {
	ix      *groupIndexer
	stride  int
	keyData []int32
	counts  []int64
	sums    [][]float64
	mins    [][]float64
	maxs    [][]float64
	rows    int
}

func newCubeAccum(rel *table.Relation, sorted []int, sizeHint int) *cubeAccum {
	m := rel.NumMeasures()
	a := &cubeAccum{
		ix:     newGroupIndexer(rel, sorted, sizeHint),
		stride: len(sorted),
		sums:   make([][]float64, m),
		mins:   make([][]float64, m),
		maxs:   make([][]float64, m),
	}
	return a
}

// addGroup appends a fresh group with the given key and empty statistics.
func (a *cubeAccum) addGroup(key []int32) {
	a.keyData = append(a.keyData, key...)
	a.counts = append(a.counts, 0)
	for j := range a.sums {
		a.sums[j] = append(a.sums[j], 0)
		a.mins[j] = append(a.mins[j], math.NaN())
		a.maxs[j] = append(a.maxs[j], math.NaN())
	}
}

// scan aggregates rows [lo, hi) of the relation into the accumulator.
func (a *cubeAccum) scan(cols [][]int32, meas [][]float64, lo, hi int) {
	keyBuf := make([]int32, a.stride)
	for row := lo; row < hi; row++ {
		for k := range cols {
			keyBuf[k] = cols[k][row]
		}
		g, isNew := a.ix.lookupOrAdd(keyBuf)
		if isNew {
			a.addGroup(keyBuf)
		}
		a.counts[g]++
		for j := range meas {
			v := meas[j][row]
			if math.IsNaN(v) {
				continue
			}
			a.sums[j][g] += v
			if math.IsNaN(a.mins[j][g]) || v < a.mins[j][g] {
				a.mins[j][g] = v
			}
			if math.IsNaN(a.maxs[j][g]) || v > a.maxs[j][g] {
				a.maxs[j][g] = v
			}
		}
	}
	a.rows += hi - lo
}

// merge folds a shard's partial aggregate into the accumulator. Shards must
// be merged in ascending shard order: the per-group sum then accumulates
// the shard partials left to right, which is what makes the result
// independent of the number of workers.
func (a *cubeAccum) merge(s *cubeAccum) {
	for sg := 0; sg < len(s.counts); sg++ {
		key := s.keyData[sg*s.stride : (sg+1)*s.stride]
		g, isNew := a.ix.lookupOrAdd(key)
		if isNew {
			a.addGroup(key)
		}
		a.counts[g] += s.counts[sg]
		for j := range a.sums {
			a.sums[j][g] += s.sums[j][sg]
			if v := s.mins[j][sg]; !math.IsNaN(v) && (math.IsNaN(a.mins[j][g]) || v < a.mins[j][g]) {
				a.mins[j][g] = v
			}
			if v := s.maxs[j][sg]; !math.IsNaN(v) && (math.IsNaN(a.maxs[j][g]) || v > a.maxs[j][g]) {
				a.maxs[j][g] = v
			}
		}
	}
	a.rows += s.rows
}

func (a *cubeAccum) toCube(rel *table.Relation, sorted []int) *Cube {
	return &Cube{
		rel: rel, attrs: sorted, stride: len(sorted),
		keyData: a.keyData, counts: a.counts,
		sums: a.sums, mins: a.mins, maxs: a.maxs,
		SourceRows: a.rows,
	}
}

// BuildCube aggregates the relation over the given categorical attributes
// (order-insensitive; the cube stores them sorted). NaN measure values are
// ignored by Sum/Min/Max but still counted, matching SQL aggregates over a
// table where the dirty cells were NULL. It is the zero-goroutine serial
// path of BuildCubeParallel and produces bit-identical output.
func BuildCube(rel *table.Relation, attrs []int) *Cube {
	return BuildCubeParallel(rel, attrs, 1)
}

// BuildCubeParallel is the sharded cube build: the row range is cut into
// fixed-width shards (buildShardRows), each shard aggregates into a private
// accumulator, and the shard partials are merged in shard order. Because
// the shard boundaries depend only on the relation size and the merge order
// is fixed, the output is bit-identical for every thread count — including
// threads <= 1, which runs the same shards sequentially with zero
// goroutines. Relations of at most one shard skip the merge entirely.
func BuildCubeParallel(rel *table.Relation, attrs []int, threads int) *Cube {
	// The background context never cancels, so the error is impossible.
	cube, _ := BuildCubeParallelCtx(context.Background(), rel, attrs, threads)
	return cube
}

// mixedRadix returns per-position multipliers so that composite keys over
// the given attributes are unique uint64s, or ok=false if the combined code
// space overflows.
func mixedRadix(rel *table.Relation, attrs []int) ([]uint64, bool) {
	radix := make([]uint64, len(attrs))
	prod := uint64(1)
	for i, a := range attrs {
		radix[i] = prod
		d := uint64(rel.DomSize(a))
		if d == 0 {
			d = 1
		}
		if prod > (1<<63)/d {
			return nil, false
		}
		prod *= d
	}
	return radix, true
}

// Rollup aggregates the cube down to a subset of its attributes. All stored
// statistics are distributive (count, sum, min, max), and Avg is derived as
// sum/count, so roll-up is exact. Rollup panics if attrs is not a subset of
// the cube's attributes.
func (c *Cube) Rollup(attrs []int) *Cube {
	sorted := append([]int(nil), attrs...)
	sort.Ints(sorted)
	pos := make([]int, len(sorted))
	for i, want := range sorted {
		pos[i] = mustAttrPos(c.attrs, want)
	}

	out := newCubeAccum(c.rel, sorted, c.NumGroups())
	keyBuf := make([]int32, len(sorted))
	for src := 0; src < c.NumGroups(); src++ {
		srcKey := c.GroupKey(src)
		for i, p := range pos {
			keyBuf[i] = srcKey[p]
		}
		g, isNew := out.ix.lookupOrAdd(keyBuf)
		if isNew {
			out.addGroup(keyBuf)
		}
		out.counts[g] += c.counts[src]
		for j := range out.sums {
			out.sums[j][g] += c.sums[j][src]
			if v := c.mins[j][src]; !math.IsNaN(v) && (math.IsNaN(out.mins[j][g]) || v < out.mins[j][g]) {
				out.mins[j][g] = v
			}
			if v := c.maxs[j][src]; !math.IsNaN(v) && (math.IsNaN(out.maxs[j][g]) || v > out.maxs[j][g]) {
				out.maxs[j][g] = v
			}
		}
	}
	cube := out.toCube(c.rel, sorted)
	cube.SourceRows = c.SourceRows
	return cube
}

// mustUniqueAttrs panics when a sorted group-by attribute set contains a
// duplicate. It is a guarded invariant helper (see the nopanic rule in
// internal/analysis): attribute sets reaching the cube builder come from
// cover.Pair values and candidate enumerations, which are duplicate-free
// by construction, so a duplicate here is a caller bug worth crashing on.
func mustUniqueAttrs(sorted []int) {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			panic(fmt.Sprintf("engine: duplicate attribute %d in group-by set", sorted[i]))
		}
	}
}

// mustAttrPos returns the index of want within attrs, panicking when it is
// absent. Guarded invariant helper: Rollup's documented contract is that
// the target attributes are a subset of the cube's, and every call site
// derives them from the cube's own attribute set.
func mustAttrPos(attrs []int, want int) int {
	for k, have := range attrs {
		if have == want {
			return k
		}
	}
	panic(fmt.Sprintf("engine: Rollup attribute %d not in cube attrs %v", want, attrs))
}
