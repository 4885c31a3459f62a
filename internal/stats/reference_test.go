package stats

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// referencePerms materialises the seeded permutation stream the way the
// stored-permutation implementation drew it: block b of permBlock
// permutations comes from rand.NewSource(mixSeed(seed, b)), every block
// starts from a fresh identity scratch, and each permutation labels side
// X by a partial Fisher–Yates over that scratch. The streaming kernel
// must reproduce it index for index.
func referencePerms(nx, ny, nperm int, seed int64) [][]int32 {
	out := make([][]int32, 0, nperm)
	for b := 0; len(out) < nperm; b++ {
		rng := rand.New(rand.NewSource(mixSeed(seed, int64(b))))
		scratch := make([]int32, nx+ny)
		for i := range scratch {
			scratch[i] = int32(i)
		}
		n := len(scratch)
		for k := 0; k < permBlock && len(out) < nperm; k++ {
			for i := 0; i < nx && i < n-1; i++ {
				j := i + rng.Intn(n-i)
				scratch[i], scratch[j] = scratch[j], scratch[i]
			}
			out = append(out, append([]int32(nil), scratch[:nx]...))
		}
	}
	return out
}

// referenceBracket scores every reference permutation with
// naiveStatistic and returns the naive observed statistic plus the
// strict (clearly above) and loose (not clearly below) exceedance
// counts, where "clearly" means by more than slack·(1+|obs|).
// Production sums in a different order, so its count is only pinned to
// lie inside the bracket.
func referenceBracket(pooled []float64, nx int, perms [][]int32, stat TestStat, slack float64) (obs float64, strict, loose int) {
	obs = naiveStatistic(pooled, nx, nil, stat)
	tol := slack * (1 + math.Abs(obs))
	for _, idx := range perms {
		s := naiveStatistic(pooled, nx, idx, stat)
		if s >= obs+tol {
			strict++
		}
		if s >= obs-tol {
			loose++
		}
	}
	return obs, strict, loose
}

// pinTest is one test of a shared permutation run, as the pin tests
// drive the package's kernel.
type pinTest struct {
	pooled []float64
	stat   TestStat
}

// pinResult is what the kernel reports for one pinTest.
type pinResult struct {
	obs, p float64
	perms  int
}

// runKernel evaluates tests over one seeded permutation run of
// (nx, ny, nperm, seed) — early-stopped at alpha when alpha > 0 — through
// the package's permutation-test entry point.
func runKernel(ctx context.Context, nx, ny, nperm int, seed int64, threads int, alpha float64, tests []pinTest) ([]pinResult, error) {
	pts := make([]PermTest, len(tests))
	for i, tc := range tests {
		pts[i] = PermTest{Pooled: tc.pooled, Stat: tc.stat}
	}
	res, err := RunPermTests(ctx, PermRun{NX: nx, NY: ny, Perms: nperm, Seed: seed, Threads: threads, Alpha: alpha}, pts)
	if err != nil {
		return nil, err
	}
	out := make([]pinResult, len(res))
	for i, r := range res {
		out[i] = pinResult{r.Obs, r.P, r.Perms}
	}
	return out, nil
}

// pinPool is a deterministic pooled vector: n quarter-step values, or n
// copies of one value when ties is set.
func pinPool(n int, seed int64, ties bool) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		if ties {
			out[i] = 2.5
		} else {
			out[i] = float64(rng.Intn(400))/4 - 30
		}
	}
	return out
}

// pinSides are the side shapes the pins cover: a singleton X side, a
// singleton Y side, an unbalanced pair and an all-ties pool.
var pinSides = []struct {
	name   string
	nx, ny int
	ties   bool
}{
	{"x1", 1, 9, false},
	{"y1", 8, 1, false},
	{"mid", 7, 12, false},
	{"ties", 6, 6, true},
}

var pinStats = []TestStat{MeanDiff, VarDiff, MedianDiff}

// checkPins compares lines against testdata/<name>, or rewrites the file
// when UPDATE_GOLDEN is set.
func checkPins(t *testing.T, name string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin file (run UPDATE_GOLDEN=1 go test once): %v", err)
	}
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(got, "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<eof>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s line %d:\n got  %s\n want %s", name, i+1, gl[i], w)
		}
	}
	if len(wl) != len(gl) {
		t.Fatalf("%s: %d lines, want %d", name, len(gl), len(wl))
	}
}

// TestKernelMatchesReference pins the permutation kernel bit for bit:
// every p-value over the side shapes, statistics and permutation counts
// around the block width equals the one recorded in
// testdata/perm_pins.txt (recorded from the stored-permutation
// implementation), is the same at threads 1–4, lies inside the naive
// reference bracket, and sharing one run across tests changes nothing.
func TestKernelMatchesReference(t *testing.T) {
	const seed = 101
	var lines []string
	for si, sd := range pinSides {
		pooled := pinPool(sd.nx+sd.ny, int64(si+1), sd.ties)
		other := pinPool(sd.nx+sd.ny, int64(si+50), sd.ties)
		var tests []pinTest
		for _, st := range pinStats {
			tests = append(tests, pinTest{pooled, st}, pinTest{other, st})
		}
		for _, nperm := range []int{1, permBlock - 1, permBlock, permBlock + 1, 200} {
			perms := referencePerms(sd.nx, sd.ny, nperm, seed)
			var serial []pinResult
			for threads := 1; threads <= 4; threads++ {
				res, err := runKernel(context.Background(), sd.nx, sd.ny, nperm, seed, threads, 0, tests)
				if err != nil {
					t.Fatal(err)
				}
				if threads == 1 {
					serial = res
					continue
				}
				for i := range res {
					if math.Float64bits(res[i].p) != math.Float64bits(serial[i].p) ||
						math.Float64bits(res[i].obs) != math.Float64bits(serial[i].obs) {
						t.Fatalf("%s nperm=%d test %d: threads=%d %+v, serial %+v", sd.name, nperm, i, threads, res[i], serial[i])
					}
				}
			}
			for i, tc := range tests {
				single, err := runKernel(context.Background(), sd.nx, sd.ny, nperm, seed, 1, 0, []pinTest{tc})
				if err != nil {
					t.Fatal(err)
				}
				if single[0] != serial[i] {
					t.Fatalf("%s nperm=%d test %d: shared run %+v, alone %+v", sd.name, nperm, i, serial[i], single[0])
				}
				obs, strict, loose := referenceBracket(tc.pooled, sd.nx, perms, tc.stat, 1e-9)
				if math.Abs(serial[i].obs-obs) > 1e-9*(1+math.Abs(obs)) {
					t.Fatalf("%s nperm=%d %v: observed %v, naive %v", sd.name, nperm, tc.stat, serial[i].obs, obs)
				}
				got := int(math.Round(serial[i].p*float64(1+nperm))) - 1
				if got < strict || got > loose {
					t.Fatalf("%s nperm=%d %v: exceedances %d outside naive bracket [%d, %d]", sd.name, nperm, tc.stat, got, strict, loose)
				}
				lines = append(lines, fmt.Sprintf("%s nperm=%d test=%d %v p=%v perms=%d", sd.name, nperm, i, tc.stat, serial[i].p, serial[i].perms))
			}
		}
	}
	checkPins(t, "perm_pins.txt", lines)
}

// TestEarlyStopPinned pins the early-stopping mode on single-test runs:
// p-values and permutations used equal the ones recorded in
// testdata/earlystop_pins.txt from the per-test early-stopping kernel.
func TestEarlyStopPinned(t *testing.T) {
	cx, cy := clearPair(40)
	nxs, nys := nullPair(60)
	pools := []struct {
		name   string
		nx     int
		pooled []float64
	}{
		{"clear", len(cx), pooled(cx, cy)},
		{"null", len(nxs), pooled(nxs, nys)},
		{"mid", 7, pinPool(19, 3, false)},
	}
	var lines []string
	for _, pl := range pools {
		for _, st := range pinStats {
			for _, nperm := range []int{permBlock + 1, 200, 1024} {
				for _, alpha := range []float64{0.05, 0.5} {
					res, err := runKernel(context.Background(), pl.nx, len(pl.pooled)-pl.nx, nperm, 7, 1, alpha, []pinTest{{pl.pooled, st}})
					if err != nil {
						t.Fatal(err)
					}
					lines = append(lines, fmt.Sprintf("%s %v nperm=%d alpha=%v p=%v perms=%d", pl.name, st, nperm, alpha, res[0].p, res[0].perms))
				}
			}
		}
	}
	checkPins(t, "earlystop_pins.txt", lines)
}

// TestVarDiffStableUnderOffset is the regression test for the variance
// statistic's cancellation: a planted 9× variance difference (200 + 200
// rows, 500 permutations) is found with p = 0.002 at offset 0, and the
// same data shifted by 1e8 or 1e10 must give the same verdict and an
// observed statistic of the same size. Before centering, the offset
// 1e10 run read 65536 for a true difference of ≈ 8 and p = 0.92.
func TestVarDiffStableUnderOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := make([]float64, 400)
	for i := range base {
		base[i] = rng.NormFloat64()
		if i < 200 {
			base[i] *= 3
		}
	}
	run := PermRun{NX: 200, NY: 200, Perms: 500, Seed: 9, Threads: 1}
	want := mustRun(t, run, []PermTest{{base, VarDiff}})[0]
	if want.P > 0.01 {
		t.Fatalf("offset 0: p = %v, want the planted difference found", want.P)
	}
	for _, off := range []float64{1e8, 1e10} {
		shifted := make([]float64, len(base))
		for i, v := range base {
			shifted[i] = v + off
		}
		got := mustRun(t, run, []PermTest{{shifted, VarDiff}})[0]
		if got.P > 0.01 {
			t.Errorf("offset %g: p = %v, want ≤ 0.01 as at offset 0 (p = %v)", off, got.P, want.P)
		}
		if math.Abs(got.Obs-want.Obs) > 1e-3*want.Obs {
			t.Errorf("offset %g: observed statistic %v, want ≈ %v", off, got.Obs, want.Obs)
		}
	}
}
