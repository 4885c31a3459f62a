package stats

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"comparenb/internal/faultinject"
)

// clearPair returns two samples whose means are so far apart that the
// permutation null is rejected decisively — the early stop's
// "certainly insignificant" direction never applies, but a null pair
// (below) stops after one block.
func clearPair(n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = 100 + float64(i%7)
		ys[i] = float64(i % 7)
	}
	return xs, ys
}

// nullPair returns two samples drawn from the same deterministic
// sequence, so the true p-value is large and the early stop should
// certify "insignificant" after very few blocks.
func nullPair(n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = float64((i * 37) % 11)
		ys[i] = float64((i*37 + 5) % 11)
	}
	return xs, ys
}

func pooled(xs, ys []float64) []float64 {
	return append(append(make([]float64, 0, len(xs)+len(ys)), xs...), ys...)
}

// earlyP runs one early-stopped test on a run of its own.
func earlyP(ctx context.Context, nx, ny, nperm int, seed int64, pooled []float64, stat TestStat, alpha float64) (obs, p float64, used int, err error) {
	res, err := RunPermTests(ctx, PermRun{NX: nx, NY: ny, Perms: nperm, Seed: seed, Alpha: alpha}, []PermTest{{pooled, stat}})
	if err != nil {
		return 0, 1, 0, err
	}
	return res[0].Obs, res[0].P, res[0].Perms, nil
}

func TestEarlyStopTruncatesNullPair(t *testing.T) {
	xs, ys := nullPair(60)
	const nperm = 2048
	obs, p, used, err := earlyP(context.Background(), len(xs), len(ys), nperm, 7, pooled(xs, ys), MeanDiff, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(obs) {
		t.Fatal("observed statistic is NaN on finite data")
	}
	if used >= nperm {
		t.Errorf("null pair evaluated all %d permutations; early stop never triggered", used)
	}
	if used%permBlock != 0 && used != nperm {
		t.Errorf("truncation point %d is not a block boundary", used)
	}
	if p <= 0.05 {
		t.Errorf("null pair p = %v, want clearly insignificant", p)
	}
}

func TestEarlyStopPrefixMatchesFullTest(t *testing.T) {
	// An alpha no Hoeffding interval can clear (phat − eps > alpha needs
	// phat > eps, and phat + eps < alpha is impossible) forces the early
	// mode through all nperm permutations of a decisively significant
	// pair, so its result must equal the full mode's bit for bit.
	xs, ys := clearPair(40)
	const nperm, seed = 200, 99
	pl := pooled(xs, ys)
	unreachable := math.Nextafter(0, 1)
	obsE, pE, used, err := earlyP(context.Background(), len(xs), len(ys), nperm, seed, pl, MeanDiff, unreachable)
	if err != nil {
		t.Fatal(err)
	}
	if used != nperm {
		t.Fatalf("unreachable alpha still stopped early at %d of %d", used, nperm)
	}
	full := mustRun(t, PermRun{NX: len(xs), NY: len(ys), Perms: nperm, Seed: seed, Threads: 3}, []PermTest{{pl, MeanDiff}})
	if obsE != full[0].Obs { // exact: bit-identity is the contract under test
		t.Errorf("observed statistic differs: early %v, full %v", obsE, full[0].Obs)
	}
	if pE != full[0].P { // exact: bit-identity is the contract under test
		t.Errorf("untruncated early-stop p = %v differs from full kernel p = %v", pE, full[0].P)
	}
}

func TestEarlyStopDeterministic(t *testing.T) {
	xs, ys := nullPair(48)
	pl := pooled(xs, ys)
	_, p1, used1, err1 := earlyP(context.Background(), len(xs), len(ys), 1024, 3, pl, VarDiff, 0.05)
	_, p2, used2, err2 := earlyP(context.Background(), len(xs), len(ys), 1024, 3, pl, VarDiff, 0.05)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if used1 != used2 || p1 != p2 { // exact: determinism is the contract under test
		t.Errorf("two identical runs disagree: (%v, %d) vs (%v, %d)", p1, used1, p2, used2)
	}
}

// TestEarlyStopSharedRunDecidesPerTest: in one shared run each test stops
// on its own — a null test stops early while a decisive one shares the
// permutations until its own bound settles — and each gets the result
// it gets alone.
func TestEarlyStopSharedRunDecidesPerTest(t *testing.T) {
	cx, cy := clearPair(40)
	nx, ny := nullPair(40)
	tests := []PermTest{{pooled(nx, ny), MeanDiff}, {pooled(cx, cy), MeanDiff}, {pooled(nx, ny), VarDiff}}
	const nperm, alpha = 1024, 0.002
	shared := mustRun(t, PermRun{NX: 40, NY: 40, Perms: nperm, Seed: 5, Alpha: alpha}, tests)
	for i, tc := range tests {
		alone := mustRun(t, PermRun{NX: 40, NY: 40, Perms: nperm, Seed: 5, Alpha: alpha}, []PermTest{tc})
		if shared[i] != alone[0] {
			t.Errorf("test %d: shared %+v, alone %+v", i, shared[i], alone[0])
		}
	}
	if shared[0].Perms >= nperm || shared[0].Perms == shared[1].Perms {
		t.Errorf("perms used %d and %d: want the null test to stop first", shared[0].Perms, shared[1].Perms)
	}
}

func TestEarlyStopCancellation(t *testing.T) {
	xs, ys := clearPair(40)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int64
	defer faultinject.Set(faultinject.StatsEarlyStop, func(string) {
		if fired.Add(1) == 2 {
			cancel()
		}
	})()
	_, _, _, err := earlyP(ctx, len(xs), len(ys), 2048, 1, pooled(xs, ys), MeanDiff, math.Nextafter(0, 1))
	if err == nil {
		t.Fatal("cancelled early-stop test returned no error")
	}
	if fired.Load() != 2 {
		t.Errorf("cancellation did not abort the loop: %d blocks started", fired.Load())
	}
}

func TestEarlyStopFiresSitePerBlock(t *testing.T) {
	var fired atomic.Int64
	defer faultinject.Set(faultinject.StatsEarlyStop,
		faultinject.Always(func() { fired.Add(1) }))()
	xs, ys := clearPair(30)
	_, _, used, err := earlyP(context.Background(), len(xs), len(ys), 256, 5, pooled(xs, ys), MeanDiff, math.Nextafter(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64((used + permBlock - 1) / permBlock); fired.Load() != want {
		t.Errorf("StatsEarlyStop fired %d times for %d perms, want %d", fired.Load(), used, want)
	}
}

func TestEarlyStopDegenerateInputs(t *testing.T) {
	obs, p, used, err := earlyP(context.Background(), 0, 0, 100, 1, nil, MeanDiff, 0.05)
	if err != nil || !math.IsNaN(obs) || p != 1 || used != 0 {
		t.Errorf("empty sides: obs=%v p=%v used=%d err=%v, want NaN/1/0/nil", obs, p, used, err)
	}
	nan := []float64{math.NaN(), 1, 2, 3}
	obs, p, _, err = earlyP(context.Background(), 2, 2, 100, 1, nan, MeanDiff, 0.05)
	if err != nil || !math.IsNaN(obs) || p != 1 {
		t.Errorf("NaN pool: obs=%v p=%v err=%v, want NaN observed and p=1", obs, p, err)
	}
}
