package stats

import (
	"context"
	"math"
	"testing"
)

// naiveStatistic recomputes a permutation's statistic the obvious
// O(nx+ny) way — materialise both sides, then call the descriptive
// helpers — with none of the pooled-moment algebra the production path
// uses. Side X is the pooled positions in xIdx, or the first nx when
// xIdx is nil. It is the differential reference for FuzzPValue and the
// kernel pins.
func naiveStatistic(pooled []float64, nx int, xIdx []int32, stat TestStat) float64 {
	xs := make([]float64, 0, nx)
	ys := make([]float64, 0, len(pooled)-nx)
	if xIdx == nil {
		xs = append(xs, pooled[:nx]...)
		ys = append(ys, pooled[nx:]...)
	} else {
		inX := make([]bool, len(pooled))
		for _, i := range xIdx {
			inX[i] = true
			xs = append(xs, pooled[i])
		}
		for i, v := range pooled {
			if !inX[i] {
				ys = append(ys, v)
			}
		}
	}
	switch stat {
	case MeanDiff:
		return math.Abs(Mean(xs) - Mean(ys))
	case VarDiff:
		// Population variance, matching the pooled-moment formula
		// E[v²] − E[v]² used by the production statistic.
		popVar := func(v []float64) float64 {
			m := Mean(v)
			s := 0.0
			for _, x := range v {
				s += (x - m) * (x - m)
			}
			return s / float64(len(v))
		}
		return math.Abs(popVar(xs) - popVar(ys))
	case MedianDiff:
		return math.Abs(Median(xs) - Median(ys))
	default:
		panic("unknown stat")
	}
}

// FuzzPValue cross-checks the optimised permutation test against the
// naive reference on fuzzer-built pools. The production path derives the
// Y side from pooled totals, so individual statistics are only equal up
// to floating-point reordering; the assertion therefore brackets the
// production exceedance count between the reference's strict and loose
// counts instead of demanding bit equality. Thread counts 1 and 3 must
// agree exactly — that IS bit-level.
//
// Two metamorphic arms, picked by the third byte, transform the pool
// before the kernel sees it while the reference keeps the original:
// an offset of 1e9 (every statistic is shift-invariant) and a positive
// scale of 1e3 (mean and median statistics scale by it, the variance
// statistic by its square).
func FuzzPValue(f *testing.F) {
	f.Add([]byte{4, 3, 0}, int64(1))
	f.Add([]byte{2, 2, 1, 10, 20, 30, 250}, int64(42))
	f.Add([]byte{8, 5, 2, 1, 1, 1, 1, 200, 200, 200, 200}, int64(7))
	f.Add([]byte{6, 4, 4, 3, 9, 27, 81, 243}, int64(3))   // offset arm, variance
	f.Add([]byte{5, 7, 6, 1, 2, 4, 8, 16, 32}, int64(11)) // scale arm, mean
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) < 3 {
			return
		}
		nx := 2 + int(data[0])%8
		ny := 2 + int(data[1])%8
		stat := TestStat(int(data[2]) % 3)
		base := make([]float64, nx+ny)
		body := data[3:]
		for i := range base {
			b := byte(i * 37)
			if len(body) > 0 {
				b = body[i%len(body)]
			}
			base[i] = float64(b) / 16.0
		}
		shift, scale, slack := 0.0, 1.0, 1e-9
		switch int(data[2]/3) % 3 {
		case 1:
			// Values sit ≈ 1e9 away from zero: the kernel's sums lose
			// about 1e-7 absolute, so "clearly" widens to match.
			shift, slack = 1e9, 1e-3
		case 2:
			scale = 1e3
		}
		statScale := scale
		if stat == VarDiff {
			statScale = scale * scale
		}
		pooled := make([]float64, len(base))
		for i, v := range base {
			pooled[i] = v*scale + shift
		}

		const nperm = 160
		tc := []pinTest{{pooled, stat}}
		res, err := runKernel(context.Background(), nx, ny, nperm, seed, 1, 0, tc)
		if err != nil {
			t.Fatal(err)
		}
		res3, err := runKernel(context.Background(), nx, ny, nperm, seed, 3, 0, tc)
		if err != nil {
			t.Fatal(err)
		}
		obs, pv := res[0].obs, res[0].p
		// exact: thread-count independence is an exact, bit-level contract
		if obs != res3[0].obs || pv != res3[0].p {
			t.Fatalf("thread dependence: (%v,%v) threads=1 vs (%v,%v) threads=3", obs, pv, res3[0].obs, res3[0].p)
		}
		if pv <= 0 || pv > 1 || math.IsNaN(pv) {
			t.Fatalf("p-value out of (0,1]: %v", pv)
		}

		refObs, strict, loose := referenceBracket(base, nx, referencePerms(nx, ny, nperm, seed), stat, slack)
		if math.Abs(obs/statScale-refObs) > slack*(1+math.Abs(refObs)) {
			t.Fatalf("observed statistic: production %v (÷%g) vs naive %v", obs, statScale, refObs)
		}
		// The production count must lie between the strict (naive stat
		// clearly above obs) and loose (not clearly below) counts.
		got := int(math.Round(pv*float64(1+nperm))) - 1
		if got < strict || got > loose {
			t.Fatalf("exceedance count %d outside naive bracket [%d, %d] (stat=%v shift=%g scale=%g)", got, strict, loose, stat, shift, scale)
		}
	})
}

// FuzzTTest checks the t-test invariants on fuzzer-built samples:
// p-values stay in [0,1], Welch is symmetric in its arguments bit for
// bit, a sample paired with itself is never significant, and — away
// from the degenerate zero-variance cases — both tests are invariant
// under an offset of 1e6 and a positive scale of 1e3 applied to both
// samples.
func FuzzTTest(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{5, 6, 7, 8})
	f.Add([]byte{0, 0}, []byte{255, 255, 255})
	f.Add([]byte{7}, []byte{})
	f.Add([]byte{10, 20, 30, 40}, []byte{12, 25, 31, 44})
	f.Fuzz(func(t *testing.T, bx, by []byte) {
		decode := func(bs []byte) []float64 {
			out := make([]float64, len(bs))
			for i, b := range bs {
				out[i] = float64(int(b)-128) / 8.0
			}
			return out
		}
		x, y := decode(bx), decode(by)

		w := WelchT(x, y)
		if w.P < 0 || w.P > 1 || math.IsNaN(w.P) {
			t.Fatalf("WelchT p-value out of range: %+v", w)
		}
		rev := WelchT(y, x)
		// exact: argument symmetry of Welch's t is exact: the statistic only negates
		if w.P != rev.P {
			t.Fatalf("WelchT asymmetric: p=%v vs reversed p=%v", w.P, rev.P)
		}
		if !math.IsNaN(w.T) && !math.IsNaN(rev.T) && math.Abs(w.T+rev.T) > 1e-12*(1+math.Abs(w.T)) {
			t.Fatalf("WelchT statistic not negated on swap: %v vs %v", w.T, rev.T)
		}

		pt := PairedT(x, y)
		if pt.P < 0 || pt.P > 1 || math.IsNaN(pt.P) {
			t.Fatalf("PairedT p-value out of range: %+v", pt)
		}
		for _, arm := range []struct{ shift, scale float64 }{{1e6, 1}, {0, 1e3}} {
			tx, ty := make([]float64, len(x)), make([]float64, len(y))
			for i, v := range x {
				tx[i] = v*arm.scale + arm.shift
			}
			for i, v := range y {
				ty[i] = v*arm.scale + arm.shift
			}
			if len(x) >= 2 && len(y) >= 2 && Variance(x)/float64(len(x))+Variance(y)/float64(len(y)) > 1e-9 {
				if tw := WelchT(tx, ty); math.Abs(tw.T-w.T) > 1e-6*(1+math.Abs(w.T)) || math.Abs(tw.P-w.P) > 1e-6 {
					t.Fatalf("WelchT not invariant under shift %g scale %g: %+v vs %+v", arm.shift, arm.scale, tw, w)
				}
			}
			if len(x) == len(y) && len(x) >= 2 && !math.IsInf(pt.T, 0) && !math.IsNaN(pt.T) && pt.P > 0 && pt.P < 1 {
				if tp := PairedT(tx, ty); math.Abs(tp.T-pt.T) > 1e-6*(1+math.Abs(pt.T)) || math.Abs(tp.P-pt.P) > 1e-6 {
					t.Fatalf("PairedT not invariant under shift %g scale %g: %+v vs %+v", arm.shift, arm.scale, tp, pt)
				}
			}
		}

		self := PairedT(x, x)
		// exact: identical samples give exactly p = 1 by the degenerate-input contract
		if self.P != 1 {
			t.Fatalf("PairedT(x, x).P = %v, want 1", self.P)
		}
	})
}
