package stats

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// chiSquare returns Pearson's statistic for counts against equal
// expected cell counts.
func chiSquare(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	want := float64(total) / float64(len(counts))
	x2 := 0.0
	for _, c := range counts {
		d := float64(c) - want
		x2 += d * d / want
	}
	return x2
}

// TestDrawUniformSubsets checks the worker's draw is an unbiased sample:
// over 300 blocks of one seeded stream, the drawn side of n = 6 pooled
// values is a uniform k-subset for k = 2 and k = 3, from the plain and
// from the rotated identity labelling. Every permutation is also
// checked index for index against referencePerms. The seeds are fixed,
// so the chi-square statistic is a fixed number; the bound is the
// 0.001 upper quantile (df 14 for k = 2, df 19 for k = 3).
func TestDrawUniformSubsets(t *testing.T) {
	const blocks = 300
	cases := []struct {
		nx, ny, rot int
		crit        float64
	}{
		{2, 4, 0, 36.12},
		{4, 2, 4, 36.12}, // NY < NX: the draw starts from the Y side
		{3, 3, 0, 43.82},
		// No run of six values rotates at k = 3; force the rotated
		// start to cover it.
		{3, 3, 3, 43.82},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("nx=%d,ny=%d,rot=%d", tc.nx, tc.ny, tc.rot), func(t *testing.T) {
			run := PermRun{NX: tc.nx, NY: tc.ny, Perms: blocks * permBlock, Seed: 5}
			w := getPermWorker(run, 0, false)
			defer permWorkers.Put(w)
			forced := w.rot != tc.rot
			w.rot = tc.rot
			ref := referencePerms(tc.nx, tc.ny, run.Perms, run.Seed)
			n := tc.nx + tc.ny
			counts := make([]int, 1<<n) // by bitmask of the drawn positions
			for b := 0; b < blocks; b++ {
				w.reset(b)
				for p := 0; p < permBlock; p++ {
					w.draw()
					mask := 0
					for _, i := range w.pool[:w.k] {
						mask |= 1 << i
					}
					counts[mask]++
					if want := ref[b*permBlock+p]; !forced && !slices.Equal(w.pool[:w.k], want) {
						t.Fatalf("block %d perm %d: drew %v, reference %v", b, p, w.pool[:w.k], want)
					}
				}
				seen := make([]bool, n)
				for _, i := range w.pool {
					seen[i] = true
				}
				if slices.Contains(seen, false) {
					t.Fatalf("block %d: pool %v is not a permutation", b, w.pool)
				}
			}
			subsets := binomial(n, w.k)
			var cells []int
			for _, c := range counts {
				if c > 0 {
					cells = append(cells, c)
				}
			}
			if len(cells) != subsets {
				t.Fatalf("%d distinct subsets drawn, want all %d", len(cells), subsets)
			}
			if x2 := chiSquare(cells); x2 > tc.crit {
				t.Errorf("chi-square %.2f over %d subsets exceeds %.2f", x2, subsets, tc.crit)
			}
		})
	}
}

func binomial(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// TestSideSwapInvariant checks the smaller-side draw is invisible: a
// run over (X, Y) and the same run over (Y, X) with the sides swapped
// give bit-identical results for every statistic, at every thread count
// and with early stopping. Sides of equal size draw different subsets,
// so only unequal sizes are pinned.
func TestSideSwapInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sides := func(n int, shift, offset float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64()*(1+shift) + shift + offset
		}
		return out
	}
	shapes := []struct {
		nx, ny int
		offset float64
	}{
		{1, 9, 0},
		{7, 12, 0},
		{40, 15, 0},
		{23, 60, 1e8}, // exercises the variance statistic's centring shift
	}
	for _, sh := range shapes {
		xs, ys := sides(sh.nx, 0.4, sh.offset), sides(sh.ny, 0, sh.offset)
		xy := append(append([]float64(nil), xs...), ys...)
		yx := append(append([]float64(nil), ys...), xs...)
		var fwd, rev []PermTest
		for _, st := range pinStats {
			fwd = append(fwd, PermTest{xy, st})
			rev = append(rev, PermTest{yx, st})
		}
		for _, alpha := range []float64{0, 0.05} {
			for _, threads := range []int{1, 2, 8} {
				a := mustRun(t, PermRun{NX: sh.nx, NY: sh.ny, Perms: 200, Seed: 3, Threads: threads, Alpha: alpha}, fwd)
				b := mustRun(t, PermRun{NX: sh.ny, NY: sh.nx, Perms: 200, Seed: 3, Threads: threads, Alpha: alpha}, rev)
				for i := range a {
					if math.Float64bits(a[i].Obs) != math.Float64bits(b[i].Obs) ||
						math.Float64bits(a[i].P) != math.Float64bits(b[i].P) || a[i].Perms != b[i].Perms {
						t.Errorf("%d,%d %v alpha=%v threads=%d: (X, Y) %+v, (Y, X) %+v",
							sh.nx, sh.ny, fwd[i].Stat, alpha, threads, a[i], b[i])
					}
				}
			}
		}
	}
}

// TestNullPValuesUniform checks the p-values of exchangeable data: 2 000
// pools of normal values per case, each tested with its own seed and 99
// permutations, so p = (1+ge)/100 and each decile of (0, 1] holds ten
// of its values. A uniform histogram over the ten deciles keeps the
// chi-square statistic under 27.88, the 0.001 upper quantile at df 9;
// the seeds are fixed, so the statistic is a fixed number. The median
// statistic ties often across permutations, which makes its p-values
// conservative rather than uniform, so it is held only to its lower
// tail: P(p ≤ 0.05) ≤ 0.05 plus three binomial standard errors.
func TestNullPValuesUniform(t *testing.T) {
	const reps, nperm = 2000, 99
	for _, sz := range [][2]int{{30, 10}, {10, 30}, {17, 17}} {
		for _, st := range pinStats {
			rng := rand.New(rand.NewSource(int64(31*sz[0] + sz[1])))
			hist := make([]int, 10)
			small := 0
			pooled := make([]float64, sz[0]+sz[1])
			for r := 0; r < reps; r++ {
				for i := range pooled {
					pooled[i] = rng.NormFloat64()
				}
				res := mustRun(t, PermRun{NX: sz[0], NY: sz[1], Perms: nperm, Seed: rng.Int63()}, []PermTest{{pooled, st}})
				ge := int(math.Round(res[0].P*(1+nperm))) - 1
				hist[ge/10]++
				if res[0].P <= 0.05 {
					small++
				}
			}
			if st == MedianDiff {
				if bound := 0.05 + 3*math.Sqrt(0.05*0.95/reps); float64(small)/reps > bound {
					t.Errorf("%v %v: %d/%d null p-values ≤ 0.05, bound %.4f", sz, st, small, reps, bound)
				}
				continue
			}
			if x2 := chiSquare(hist); x2 > 27.88 {
				t.Errorf("%v %v: decile histogram %v, chi-square %.2f > 27.88", sz, st, hist, x2)
			}
		}
	}
}

// TestPermWorkerNoAllocPerBlock pins the pooled worker's contract: with
// the worker taken from the pool, reseeding and drawing a block
// allocates nothing.
func TestPermWorkerNoAllocPerBlock(t *testing.T) {
	run := PermRun{NX: 50, NY: 2000, Perms: 4 * permBlock, Seed: 1}
	evals := []permEval{{PermTest: PermTest{benchPool(2050, 2), MeanDiff}}}
	w := getPermWorker(run, 1, false)
	defer permWorkers.Put(w)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(20, func() { w.block(ctx, 1, evals) }); allocs != 0 {
		t.Errorf("block allocates %.1f times, want 0", allocs)
	}
}
