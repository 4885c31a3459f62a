package pipeline

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"comparenb/internal/governor"
	"comparenb/internal/insight"
	obspkg "comparenb/internal/obs" // `obs` would shadow the observed-statistic locals below
	"comparenb/internal/sampling"
	"comparenb/internal/stats"
	"comparenb/internal/table"
)

// statOutcome is one raw permutation-test result awaiting FDR correction.
type statOutcome struct {
	key    insight.Key
	p      float64
	effect float64
}

// The stats phase reports its degradation through the run's obs registry
// rather than a side struct, so the run report and the metrics exposition
// read the same cells:
//
//	stats_pairs_shed          counter — Shed rung: pairs dropped untested
//	stats_perms_effective_min gauge   — smallest permutation count an
//	                                    early-stopped test used (0 = none)
//	stats_earlystop_engaged   gauge   — 1 when any job ran the
//	                                    early-stopping kernel

// permsShedCap returns the Shed rung's permutation cap: the fewest whole
// permutation blocks that can still reach significance at alpha (the
// smallest achievable permutation p-value is 1/(cap+1)), never more than
// the configured count. Shed keeps only the highest-priority pairs, so
// the few tests that do run must stay able to reject.
func permsShedCap(perms int, alpha float64) int {
	need := int(math.Ceil(1/alpha)) - 1
	blocks := (need + stats.PermBlock - 1) / stats.PermBlock
	if blocks < 1 {
		blocks = 1
	}
	c := blocks * stats.PermBlock
	if c > perms {
		c = perms
	}
	return c
}

// runStatTests executes the significance phase of Algorithm 1 line 3 with
// the §5.1 optimizations: per-attribute (optionally sampled) test
// relations, shared permutations across measures, global BH correction.
// It returns the significant insights (sig ≥ 1 − Alpha) and the number of
// candidate insights actually tested. Cancelling ctx aborts the phase at
// the next test checkpoint with ctx's error; a live ctx never changes
// the result.
//
// gov (nil = ungoverned) drives the phase's degradation ladder, asked
// once per (attribute, value pair) job: Full runs every permutation;
// Degrade switches the job to early stopping (stats.PermRun.Alpha);
// Shed additionally drops every job outside the top max(EpsT, 4)
// priority ranks and caps the survivors' permutations at permsShedCap.
// Priority is most-populated pair first — a pure function of the input,
// so which pairs Shed drops is deterministic even though *when*
// shedding starts depends on the wall clock.
func runStatTests(ctx context.Context, rel *table.Relation, cfg Config, gov *governor.Governor) (significant []insight.Insight, tested int, err error) {
	n := rel.NumCatAttrs()
	// Pre-draw the test relation(s). Random sampling shares one sample;
	// unbalanced sampling is per attribute (§5.1.2).
	samplerRNG := rand.New(rand.NewSource(jobSeed(cfg.Seed, -1)))
	testRels := make([]*table.Relation, n)
	switch cfg.Sampling {
	case sampling.Random:
		shared := sampling.RandomSample(rel, cfg.SampleFrac, samplerRNG)
		for a := range testRels {
			testRels[a] = shared
		}
	case sampling.Unbalanced:
		for a := range testRels {
			testRels[a] = sampling.UnbalancedSample(rel, a, cfg.SampleFrac, samplerRNG)
		}
	default:
		for a := range testRels {
			testRels[a] = rel
		}
	}

	// Enumerate the test jobs: one per (attribute, value pair). Each
	// attribute's rows are grouped by code once, so a job reads its two
	// sides instead of rescanning the column.
	var jobs []pairJob
	rows := make([][][]int, n)
	for a := 0; a < n; a++ {
		rows[a] = codeRows(testRels[a], a)
		pairs := enumeratePairs(testRels[a], a, cfg.MaxPairsPerAttr)
		for _, pr := range pairs {
			jobs = append(jobs, pairJob{attr: a, val: pr[0], val2: pr[1]})
		}
	}

	// Degradation-ladder bookkeeping, computed only when a ladder can
	// engage: the priority rank of each job (most-populated pair first,
	// ties by attr/val/val2 — a pure function of the input relations, so
	// Shed's victims are deterministic) and the Shed permutation cap.
	forced := cfg.forceStatsLevel != governor.Full
	var rank []int
	if gov != nil || forced {
		order := make([]int, len(jobs))
		for i := range order {
			order[i] = i
		}
		pop := make([]int, len(jobs))
		for ji, job := range jobs {
			pop[ji] = len(rows[job.attr][job.val]) + len(rows[job.attr][job.val2])
		}
		sort.SliceStable(order, func(x, y int) bool {
			jx, jy := jobs[order[x]], jobs[order[y]]
			if pop[order[x]] != pop[order[y]] {
				return pop[order[x]] > pop[order[y]]
			}
			if jx.attr != jy.attr {
				return jx.attr < jy.attr
			}
			if jx.val != jy.val {
				return jx.val < jy.val
			}
			return jx.val2 < jy.val2
		})
		rank = make([]int, len(jobs))
		for pos, ji := range order {
			rank[ji] = pos
		}
	}
	minKeep := cfg.EpsT
	if minKeep < 4 {
		minKeep = 4
	}
	shedCap := permsShedCap(cfg.Perms, cfg.Alpha)

	outcomes := make([][]statOutcome, len(jobs))
	skipped := make([]bool, len(jobs))
	earlyPer := make([]bool, len(jobs))
	minPermsPer := make([]int, len(jobs))
	var done atomic.Int64
	inner := innerThreads(cfg.threads(), len(jobs))
	err = parallelForCtx(ctx, cfg.threads(), len(jobs), func(jctx context.Context, ji int) error {
		defer done.Add(1)
		sp := obspkg.StartSpan(jctx, "stats/pair")
		defer sp.End()
		job := jobs[ji]
		level := cfg.forceStatsLevel
		if level == governor.Full {
			level = gov.Admit(governor.Stats, int(done.Load()), len(jobs))
		} else {
			gov.Observe(governor.Stats, level)
		}
		run := stats.PermRun{Perms: cfg.Perms, Threads: inner}
		switch {
		case level == governor.Shed && rank[ji] >= minKeep:
			skipped[ji] = true
			return nil
		case level == governor.Shed:
			run.Perms = shedCap
			fallthrough
		case level != governor.Full:
			run.Alpha = cfg.Alpha
			earlyPer[ji] = true
		}
		var jerr error
		outcomes[ji], minPermsPer[ji], jerr = testPair(jctx, testRels[job.attr], job, rows[job.attr][job.val], rows[job.attr][job.val2], cfg, jobSeed(cfg.Seed, ji), run)
		return jerr
	})
	if err != nil {
		return nil, 0, err
	}

	pairsShed, minPerms := 0, 0
	earlyStopped := false
	var all []statOutcome
	for ji := range outcomes {
		all = append(all, outcomes[ji]...)
		tested += len(outcomes[ji])
		if skipped[ji] {
			pairsShed++
		}
		if earlyPer[ji] {
			earlyStopped = true
			if mp := minPermsPer[ji]; mp > 0 && (minPerms == 0 || mp < minPerms) {
				minPerms = mp
			}
		}
	}
	// Publish the degradation record; the run report reads these cells.
	reg := obspkg.FromContext(ctx)
	if pairsShed > 0 {
		reg.Counter("stats_pairs_shed").Add(int64(pairsShed))
	}
	reg.Gauge("stats_perms_effective_min").Set(int64(minPerms))
	if earlyStopped {
		reg.Gauge("stats_earlystop_engaged").Set(1)
	}

	// Benjamini–Hochberg correction (§5.1.1), applied within the families
	// selected by cfg.BHScope.
	families := make(map[int64][]int) // family id → indexes into all
	for i, o := range all {
		var fam int64
		switch cfg.BHScope {
		case BHGlobal:
			fam = 0
		case BHPerPair:
			fam = ((int64(o.key.Attr)<<20)|int64(o.key.Val))<<20 | int64(o.key.Val2)
		default: // BHPerAttribute
			fam = int64(o.key.Attr)
		}
		families[fam] = append(families[fam], i)
	}
	for _, idxs := range families {
		ps := make([]float64, len(idxs))
		for k, i := range idxs {
			ps[k] = all[i].p
		}
		qs := stats.BenjaminiHochberg(ps)
		for k, i := range idxs {
			o := all[i]
			if qs[k] <= cfg.Alpha {
				significant = append(significant, insight.Insight{
					Meas: o.key.Meas, Attr: o.key.Attr,
					Val: o.key.Val, Val2: o.key.Val2,
					Type:   o.key.Type,
					Sig:    1 - qs[k],
					Effect: o.effect,
				})
			}
		}
	}
	// Deterministic order regardless of scheduling.
	sort.Slice(significant, func(a, b int) bool { return lessKey(significant[a].Key(), significant[b].Key()) })
	return significant, tested, nil
}

// pairJob is one stats test job: an attribute and a pair of its codes.
type pairJob struct {
	attr      int
	val, val2 int32
}

// codeRows groups rel's rows by their code on attribute a: rows[c]
// lists, in row order, the rows whose attribute-a code is c.
func codeRows(rel *table.Relation, a int) [][]int {
	col := rel.CatCol(a)
	counts := make([]int, rel.DomSize(a))
	for _, c := range col {
		counts[c]++
	}
	rows := make([][]int, len(counts))
	slab := make([]int, len(col))
	for c, n := range counts {
		rows[c], slab = slab[:0:n], slab[n:]
	}
	for i, c := range col {
		rows[c] = append(rows[c], i)
	}
	return rows
}

func lessKey(a, b insight.Key) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Meas != b.Meas {
		return a.Meas < b.Meas
	}
	if a.Val != b.Val {
		return a.Val < b.Val
	}
	if a.Val2 != b.Val2 {
		return a.Val2 < b.Val2
	}
	return a.Type < b.Type
}

// enumeratePairs lists the (val, val') code pairs of attribute a in
// deterministic (lexicographic) order, optionally keeping only the pairs
// among the maxPairs most populated values.
func enumeratePairs(rel *table.Relation, a int, maxPairs int) [][2]int32 {
	codes := rel.SortedDomain(a)
	if maxPairs > 0 {
		// Keep the most frequent values until the pair budget is met:
		// k values yield k(k−1)/2 pairs.
		counts := make(map[int32]int)
		for _, c := range rel.CatCol(a) {
			counts[c]++
		}
		k := len(codes)
		for k > 2 && k*(k-1)/2 > maxPairs {
			k--
		}
		sort.SliceStable(codes, func(i, j int) bool { return counts[codes[i]] > counts[codes[j]] })
		codes = codes[:k]
		dict := rel
		sort.Slice(codes, func(i, j int) bool { return dict.Value(a, codes[i]) < dict.Value(a, codes[j]) })
	}
	var out [][2]int32
	for i := 0; i < len(codes); i++ {
		for j := i + 1; j < len(codes); j++ {
			out = append(out, [2]int32{codes[i], codes[j]})
		}
	}
	return out
}

// testPair runs the permutation tests for every measure and insight type
// on one (attribute, val, val') pair, whose sides are the rows xRows and
// yRows of rel. Consecutive measures whose pooled sides have equal sizes
// (sizes differ only when NaN cells were filtered) share one
// permutation run, seeded from `seed` and the index of the measure that
// starts it; a measure with no oriented test still starts a run. run
// carries the permutation count, the worker width and, for
// budget-pressure runs, the early-stopping alpha; every result is
// bit-identical for every thread count. minPerms is the smallest
// permutation count an early-stopped test evaluated (0 when the pair
// produced no tests).
func testPair(ctx context.Context, rel *table.Relation, job pairJob, xRows, yRows []int, cfg Config, seed int64, run stats.PermRun) (out []statOutcome, minPerms int, err error) {
	if len(xRows) < cfg.MinSideRows || len(yRows) < cfg.MinSideRows {
		return nil, 0, nil
	}

	var pending []statOutcome
	var tests []stats.PermTest
	run.NX = -1
	flush := func() error {
		if run.NX < 0 {
			return nil
		}
		res, err := stats.RunPermTests(ctx, run, tests)
		if err != nil {
			return err
		}
		for i := range pending {
			pending[i].p = res[i].P
			if minPerms == 0 || res[i].Perms < minPerms {
				minPerms = res[i].Perms
			}
		}
		out = append(out, pending...)
		pending, tests = pending[:0], tests[:0]
		return nil
	}
	for m := 0; m < rel.NumMeasures(); m++ {
		mcol := rel.MeasCol(m)
		xs := gather(mcol, xRows)
		ys := gather(mcol, yRows)
		if len(xs) < cfg.MinSideRows || len(ys) < cfg.MinSideRows {
			continue
		}
		if len(xs) != run.NX || len(ys) != run.NY {
			if err := flush(); err != nil {
				return nil, 0, err
			}
			run.NX, run.NY, run.Seed = len(xs), len(ys), jobSeed(seed, m)
		}
		pooled := make([]float64, 0, len(xs)+len(ys))
		pooled = append(pooled, xs...)
		pooled = append(pooled, ys...)
		for _, typ := range cfg.insightTypes() {
			v, v2, effect, ok := orient(xs, ys, job.val, job.val2, typ)
			if !ok {
				continue
			}
			tests = append(tests, stats.PermTest{Pooled: pooled, Stat: typ.TestStat()})
			pending = append(pending, statOutcome{
				key:    insight.Key{Meas: m, Attr: job.attr, Val: v, Val2: v2, Type: typ},
				effect: effect,
			})
		}
	}
	if err := flush(); err != nil {
		return nil, 0, err
	}
	return out, minPerms, nil
}

// orient decides the insight direction from the observed statistics:
// (val, val') such that val's statistic is strictly greater, plus the
// observed effect size (Cohen's d for mean/median, variance ratio for
// variance). ok=false when the statistics tie or are undefined.
func orient(xs, ys []float64, val, val2 int32, typ insight.Type) (int32, int32, float64, bool) {
	var sx, sy float64
	switch typ {
	case insight.MeanGreater:
		sx, sy = stats.Mean(xs), stats.Mean(ys)
	case insight.VarianceGreater:
		sx, sy = stats.PopVariance(xs), stats.PopVariance(ys)
	case insight.MedianGreater:
		sx, sy = stats.Median(xs), stats.Median(ys)
	}
	if math.IsNaN(sx) || math.IsNaN(sy) || stats.ApproxEqual(sx, sy, stats.Tol) {
		return 0, 0, 0, false
	}
	var effect float64
	switch typ {
	case insight.MeanGreater, insight.MedianGreater:
		nx, ny := float64(len(xs)), float64(len(ys))
		pooled := math.Sqrt((nx*stats.PopVariance(xs) + ny*stats.PopVariance(ys)) / (nx + ny))
		if pooled > 0 {
			effect = math.Abs(sx-sy) / pooled
		}
	case insight.VarianceGreater:
		lo := math.Min(sx, sy)
		if lo > 0 {
			effect = math.Max(sx, sy) / lo
		}
	}
	if sx > sy {
		return val, val2, effect, true
	}
	return val2, val, effect, true
}

func gather(col []float64, rows []int) []float64 {
	out := make([]float64, 0, len(rows))
	for _, r := range rows {
		if v := col[r]; !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}
