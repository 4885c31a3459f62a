package stats

import (
	"context"
	"math"
	"math/rand/v2"
	"sync"

	"comparenb/internal/faultinject"
	// Aliased: `obs` is the conventional name of the observed statistic in
	// this package, which would shadow the package.
	obspkg "comparenb/internal/obs"
)

// TestStat selects the permutation test statistic of Table 1.
type TestStat int

const (
	// MeanDiff is |μX − μY|, the statistic for mean-greater insights.
	MeanDiff TestStat = iota
	// VarDiff is |σ²X − σ²Y|, the statistic for variance-greater insights.
	VarDiff
	// MedianDiff is |median(X) − median(Y)|, the statistic for the
	// median-greater extension type (the paper's §7 future work: new
	// insight types need a statistic, a hypothesis query, and adapted
	// scoring — this is the statistic).
	MedianDiff
)

func (s TestStat) String() string {
	switch s {
	case MeanDiff:
		return "|mean(X)-mean(Y)|"
	case VarDiff:
		return "|var(X)-var(Y)|"
	case MedianDiff:
		return "|median(X)-median(Y)|"
	default:
		return "TestStat(?)"
	}
}

// permBlock is the resample-block width of the seeded permutation
// stream: block b covers permutations [b*permBlock, (b+1)*permBlock) and
// is drawn from its own PCG stream seeded by mixSeed(seed, b). Because
// the block layout depends only on nperm, the permutations — and
// therefore every p-value computed from them — are bit-identical no
// matter how many workers draw the blocks.
const permBlock = 64

// PermBlock is permBlock, exported so budget-pressure callers can align
// truncation caps to whole blocks (early stopping only checks its bound
// at block boundaries).
const PermBlock = permBlock

// permCheckStride is how many permutations a worker evaluates between
// two StatsPermEval fault-injection ticks. Stride counts, not wall clock,
// so instrumentation cannot change which permutations are evaluated.
const permCheckStride = 256

// earlyStopDelta is the per-check confidence parameter δ of the
// sequential Monte-Carlo bound: each block-boundary check uses a
// Hoeffding interval that covers the true exceedance probability with
// probability 1−δ. With permBlock = 64 and the pipeline's default
// permutation counts there are at most a handful of checks per test, so
// the union-bound error stays within a few percent — acceptable for a
// mode that only runs when the time budget is already under pressure.
const earlyStopDelta = 0.01

// PermTest is one test of a permutation run: Pooled holds side X's
// values followed by side Y's (NaN cells already filtered), and Stat is
// the statistic to test.
type PermTest struct {
	Pooled []float64
	Stat   TestStat
}

// PermRun describes one run of seeded label permutations that every
// test of a RunPermTests call shares — the paper's §5.1.1 optimization,
// "we use the same permutations to check all possible insights on
// different measures for a given attribute".
type PermRun struct {
	NX, NY  int   // side sizes; every test's Pooled has NX+NY values
	Perms   int   // permutations to draw
	Seed    int64 // block b draws from the stream seeded by mixSeed(Seed, b)
	Threads int   // workers drawing blocks; ignored when early stopping
	// Alpha, when > 0, turns on early stopping: a test stops at the
	// first block boundary where a Hoeffding bound says its verdict
	// relative to Alpha can no longer flip (see earlyStopDecided).
	Alpha float64
}

// PermResult is one test's outcome: the observed statistic (NaN when the
// statistic is undefined or a side is empty), the one-tailed p-value
//
//	p = (1 + #{permuted stat ≥ observed}) / (Perms + 1)
//
// with the +1 smoothing that keeps p > 0 (1 when nothing can be
// concluded), and Perms, the number of permutations it evaluated.
type PermResult struct {
	Obs, P float64
	Perms  int
}

// RunPermTests draws run.Perms label permutations once and, while each
// one is in cache, evaluates every test on it. Only the smaller side's
// indexes are drawn; the other side's moments come from the pooled
// totals, so each permutation costs O(min(NX, NY)) per mean or variance
// test. Every statistic is symmetric in its sides, so scoring the drawn
// side as "X" gives the same value.
//
// Block b of permBlock permutations is drawn from a PCG stream seeded
// with mixSeed(run.Seed, b), starting from the identity labelling, by a
// partial Fisher–Yates over the first min(NX, NY) positions; when
// NY < NX the identity is rotated to start at the Y side (position i
// holds pooled index (i+NX) mod (NX+NY)), so the drawn side starts as
// Y. Blocks are spread over up to run.Threads workers. Exceedances are
// integer counts per test, so every result is a pure function of
// (run, tests) — bit-identical for every thread count, and for (X, Y)
// and (Y, X) with the sides swapped whenever NX ≠ NY.
//
// With run.Alpha > 0 the blocks run in order on one goroutine and a
// per-test decided mask, checked at block boundaries, stops each test
// once its verdict is settled; the run ends when every test is decided.
// A stopped test's p-value is the truncated estimate over the
// permutations it evaluated.
//
// ctx is polled before every block; a cancelled run returns ctx's error
// and no results. The StatsPermBlock fault site fires once per block,
// StatsPermEval every permCheckStride permutations a worker evaluates,
// and StatsEarlyStop once per block when early stopping. Each test's
// Pooled must have run.NX+run.NY values, or RunPermTests panics.
func RunPermTests(ctx context.Context, run PermRun, tests []PermTest) ([]PermResult, error) {
	nx, ny := run.NX, run.NY
	early := run.Alpha > 0
	median := false
	for _, tc := range tests {
		if len(tc.Pooled) != nx+ny {
			panic("stats: pooled length does not match the run's sides")
		}
		median = median || tc.Stat == MedianDiff
	}
	nblocks := 0
	if run.Perms > 0 {
		nblocks = (run.Perms + permBlock - 1) / permBlock
	}
	threads := run.Threads
	if early || threads < 1 {
		threads = 1
	}
	if threads > nblocks {
		threads = max(nblocks, 1)
	}
	workers := make([]*permWorker, threads)
	for w := range workers {
		workers[w] = getPermWorker(run, len(tests), median)
		defer permWorkers.Put(workers[w])
	}

	// The observed statistics go through the same code path as the
	// permuted ones, on the identity labelling a fresh worker holds.
	// Pooled sums run in that labelling's order, so swapping the sides
	// cannot change a bit.
	ident := workers[0].pool
	res := make([]PermResult, len(tests))
	evals := make([]permEval, len(tests))
	live := 0
	for i, tc := range tests {
		res[i] = PermResult{Obs: math.NaN(), P: 1}
		e := &evals[i]
		e.PermTest = tc
		e.decided = true
		if nx == 0 || ny == 0 {
			continue
		}
		if tc.Stat == VarDiff {
			e.Pooled = centered(tc.Pooled, ident)
		}
		for _, i := range ident {
			v := e.Pooled[i]
			e.total += v
			e.totalSq += v * v
		}
		e.obs = e.statistic(ident[:workers[0].k], workers[0])
		res[i].Obs = e.obs
		if !math.IsNaN(e.obs) {
			e.decided = false
			live++
		}
	}

	reg := obspkg.FromContext(ctx)
	if !early {
		if threads == 1 {
			for b := 0; b < nblocks; b++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				workers[0].block(ctx, b, evals)
			}
		} else {
			var wg sync.WaitGroup
			for w, pw := range workers {
				wg.Add(1)
				go func(first int, pw *permWorker) {
					defer wg.Done()
					// Each worker gets its own trace track so block
					// spans never interleave on one track.
					wctx := obspkg.ForkTrack(ctx, "perm-block")
					for b := first; b < nblocks && wctx.Err() == nil; b += threads {
						pw.block(wctx, b, evals)
					}
				}(w, pw)
			}
			wg.Wait()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range evals {
			if evals[i].decided {
				continue
			}
			ge := 0
			for _, pw := range workers {
				ge += pw.ge[i]
			}
			res[i].P = float64(1+ge) / float64(1+run.Perms)
			res[i].Perms = run.Perms
		}
		// One bulk add per run keeps the accounting off the hot path;
		// both totals are pure functions of the inputs.
		reg.Counter("stats_perm_blocks_drawn").Add(int64(nblocks))
		reg.Counter("stats_perms_evaluated").Add(int64(live * run.Perms))
		return res, nil
	}

	sp := obspkg.StartSpan(ctx, "stats/pair/earlystop")
	defer sp.End()
	pw := workers[0]
	tested := live
	blocks, evaluated, triggers := 0, 0, 0
	for b := 0; b < nblocks && live > 0; b++ {
		faultinject.Fire(faultinject.StatsEarlyStop)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := pw.block(ctx, b, evals)
		blocks++
		for i := range evals {
			e := &evals[i]
			if e.decided || (m < run.Perms && !earlyStopDecided(pw.ge[i], m, run.Alpha)) {
				continue
			}
			e.decided = true
			live--
			res[i].P = float64(1+pw.ge[i]) / float64(1+m)
			res[i].Perms = m
			evaluated += m
			if m < run.Perms {
				triggers++
			}
		}
	}
	reg.Counter("stats_earlystop_tests").Add(int64(tested))
	reg.Counter("stats_perm_blocks_drawn").Add(int64(blocks))
	reg.Counter("stats_perms_evaluated").Add(int64(evaluated))
	if triggers > 0 {
		reg.Counter("stats_earlystop_triggers").Add(int64(triggers))
	}
	return res, nil
}

// earlyStopDecided reports whether, after m evaluated permutations with
// ge exceedances, the verdict of the test relative to alpha is already
// certain up to the Hoeffding bound: the true exceedance probability p
// satisfies |ge/m − p| ≤ sqrt(ln(2/δ)/(2m)) with probability 1−δ, so
// once the whole interval falls on one side of alpha, evaluating more
// permutations cannot (with confidence 1−δ) flip the verdict.
//
// The "certainly insignificant" direction is exact with respect to the
// BH correction: adjusted q-values are never smaller than the raw p, so
// p > alpha already implies q > alpha. The "certainly significant"
// direction is a heuristic under BH (the per-test threshold can be as
// small as alpha/n); the truncated p̂ still enters the correction, it
// is just a coarser estimate — which is the recorded degradation.
func earlyStopDecided(ge, m int, alpha float64) bool {
	if m == 0 {
		return false
	}
	phat := float64(ge) / float64(m)
	eps := math.Sqrt(math.Log(2/earlyStopDelta) / (2 * float64(m)))
	return phat+eps < alpha || phat-eps > alpha
}

// centered returns a copy of pooled shifted by its mean, summed in
// order's sequence and rounded to an integer. The variance statistic is
// shift-invariant, and its one-pass form qx/nx − mx² cancels
// catastrophically on values far from zero (at an offset of 1e10 it
// read 65536 for a true difference of 8); after the shift the values
// sit within 0.5 of zero on average. Rounding the shift keeps it exact
// for values within a factor of two of it (Sterbenz), and makes it a
// no-op — bit for bit — on pools already centred within 0.5 of zero.
func centered(pooled []float64, order []int32) []float64 {
	s := 0.0
	for _, i := range order {
		s += pooled[i]
	}
	c := math.Round(s / float64(len(pooled)))
	out := make([]float64, len(pooled))
	for i, v := range pooled {
		out[i] = v - c
	}
	return out
}

// mixSeed derives a well-spread per-block seed (splitmix64 finalizer).
func mixSeed(base, block int64) int64 {
	z := uint64(base) + uint64(block+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// permEval is one test of a run with its pooled totals, its observed
// statistic and whether it still takes permutations (false once an
// early stop decided it, and from the start when its statistic is
// undefined).
type permEval struct {
	PermTest
	total, totalSq float64
	obs            float64
	decided        bool
}

// permWorker is one worker's reusable state: a PCG reseeded per block
// and the Rand drawing from it, the index pool the partial Fisher–Yates
// shuffles, one exceedance count per test, and the median statistic's
// buffers. k is the drawn side's size, min(NX, NY), and rot the pooled
// index the identity labelling starts at (NX when the Y side is drawn).
// Workers are pooled across runs, so a run allocates nothing per block
// or per permutation.
type permWorker struct {
	pcg                   *rand.PCG
	rng                   *rand.Rand
	pool                  []int32
	ge                    []int
	k, rot, nperm, scored int
	seed                  int64
	xs, ys                []float64
	inX                   []bool
}

var permWorkers = sync.Pool{New: func() any {
	pcg := rand.NewPCG(0, 0)
	return &permWorker{pcg: pcg, rng: rand.New(pcg)}
}}

// getPermWorker takes a pooled worker and sizes it for run: identity
// pool, zeroed counts, and median buffers when a test needs them.
func getPermWorker(run PermRun, ntests int, median bool) *permWorker {
	w := permWorkers.Get().(*permWorker)
	n := run.NX + run.NY
	w.k, w.rot = run.NX, 0
	if run.NY < run.NX {
		w.k, w.rot = run.NY, run.NX
	}
	w.pool = resize(w.pool, n)
	w.identity()
	w.ge = resize(w.ge, ntests)
	w.nperm, w.seed, w.scored = run.Perms, run.Seed, 0
	if median {
		w.xs = resize(w.xs, w.k)
		w.ys = resize(w.ys, n-w.k)
		w.inX = resize(w.inX, n)
	}
	return w
}

// identity resets the pool to the identity labelling rotated by rot:
// position i holds pooled index (i+rot) mod n.
func (w *permWorker) identity() {
	j := int32(w.rot)
	for i := range w.pool {
		if int(j) == len(w.pool) {
			j = 0
		}
		w.pool[i] = j
		j++
	}
}

// resize returns s with length n and zeroed contents, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// block draws block b and scores every undecided test on each of its
// permutations. It returns the run's permutation count after the block.
func (w *permWorker) block(ctx context.Context, b int, evals []permEval) int {
	sp := obspkg.StartSpan(ctx, "stats/pair/permblock")
	defer sp.End()
	faultinject.Fire(faultinject.StatsPermBlock)
	w.reset(b)
	hi := min((b+1)*permBlock, w.nperm)
	for k := b * permBlock; k < hi; k++ {
		w.draw()
		if w.scored%permCheckStride == 0 {
			faultinject.Fire(faultinject.StatsPermEval)
		}
		w.scored++
		xIdx := w.pool[:w.k]
		for i := range evals {
			e := &evals[i]
			if !e.decided && e.statistic(xIdx, w) >= e.obs {
				w.ge[i]++
			}
		}
	}
	return hi
}

// reset starts block b: the PCG is reseeded with mixSeed(seed, b) in its
// high word, which puts it in exactly the state rand.NewPCG starts in,
// and the pool restarts from the identity, so a block's permutations
// depend only on (seed, b).
func (w *permWorker) reset(b int) {
	w.pcg.Seed(uint64(mixSeed(w.seed, int64(b))), 0)
	w.identity()
}

// draw takes the next permutation by a partial Fisher–Yates over the
// pool's first k positions: afterwards pool[:k] is a uniform k-subset
// of the pooled indexes, whatever labelling the pool held before.
func (w *permWorker) draw() {
	pool, rng := w.pool, w.rng
	n := len(pool)
	for i := range w.k {
		j := i + rng.IntN(n-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
}

// statistic computes the test's statistic with the pooled positions in
// xIdx scored as side X — the drawn side, which is Y when NY < NX; every
// statistic is symmetric in its sides. Sums run in xIdx order; the other
// side of the mean and variance comes from the pooled totals.
func (e *permEval) statistic(xIdx []int32, w *permWorker) float64 {
	nx, ny := float64(len(xIdx)), float64(len(e.Pooled)-len(xIdx))
	switch e.Stat {
	case MeanDiff:
		sx := 0.0
		for _, i := range xIdx {
			sx += e.Pooled[i]
		}
		return math.Abs(sx/nx - (e.total-sx)/ny)
	case VarDiff:
		sx, qx := 0.0, 0.0
		for _, i := range xIdx {
			v := e.Pooled[i]
			sx += v
			qx += v * v
		}
		mx := sx / nx
		my := (e.total - sx) / ny
		vx := qx/nx - mx*mx
		vy := (e.totalSq-qx)/ny - my*my
		return math.Abs(vx - vy)
	case MedianDiff:
		xs, ys, inX := w.xs, w.ys[:0], w.inX
		clear(inX)
		for k, i := range xIdx {
			xs[k] = e.Pooled[i]
			inX[i] = true
		}
		for i, v := range e.Pooled {
			if !inX[i] {
				ys = append(ys, v)
			}
		}
		return math.Abs(medianInPlace(xs) - medianInPlace(ys))
	default:
		panic("stats: unknown test statistic")
	}
}
