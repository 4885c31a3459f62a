package stats

import (
	"context"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"testing"
)

// parallelTests is a mixed set of tests over one nx+ny pool, so a
// thread- or seed-dependent draw shows in at least one p-value.
func parallelTests(nx, ny int) []PermTest {
	rng := rand.New(rand.NewSource(5))
	a := make([]float64, nx+ny)
	b := make([]float64, nx+ny)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() * 3
		if i < nx {
			a[i] += 0.3 // a real effect, so p is non-trivial
		}
	}
	return []PermTest{{a, MeanDiff}, {a, VarDiff}, {a, MedianDiff}, {b, MeanDiff}, {b, VarDiff}}
}

func mustRun(t *testing.T, run PermRun, tests []PermTest) []PermResult {
	t.Helper()
	res, err := RunPermTests(context.Background(), run, tests)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSeededPermsThreadInvariant pins the block-stream contract: results
// are a pure function of (sides, nperm, seed, tests) — drawing the
// blocks on more workers cannot change a bit, at block-edge counts too.
func TestSeededPermsThreadInvariant(t *testing.T) {
	const nx, ny = 37, 53
	tests := parallelTests(nx, ny)
	for _, nperm := range []int{1, permBlock - 1, permBlock, permBlock + 1, 4*permBlock + 7} {
		run := PermRun{NX: nx, NY: ny, Perms: nperm, Seed: 99, Threads: 1}
		base := mustRun(t, run, tests)
		for _, threads := range []int{2, 4, 8} {
			run.Threads = threads
			for i, r := range mustRun(t, run, tests) {
				if r != base[i] {
					t.Fatalf("nperm=%d threads=%d test %d: %+v, serial %+v", nperm, threads, i, r, base[i])
				}
			}
		}
	}
}

func TestSeededPermsDifferAcrossSeeds(t *testing.T) {
	tests := parallelTests(20, 20)
	a := mustRun(t, PermRun{NX: 20, NY: 20, Perms: 50, Seed: 1}, tests)
	b := mustRun(t, PermRun{NX: 20, NY: 20, Perms: 50, Seed: 2}, tests)
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Error("seeds 1 and 2 gave identical results on every test")
	}
}

// TestPValueThreadsBitIdentical checks the evaluation half: splitting the
// blocks across workers leaves the p-value bit-identical for every
// statistic (the exceedance count is an integer sum).
func TestPValueThreadsBitIdentical(t *testing.T) {
	const nx, ny = 80, 120
	tests := parallelTests(nx, ny)[:3]
	run := PermRun{NX: nx, NY: ny, Perms: 500, Seed: 11, Threads: 1}
	serial := mustRun(t, run, tests)
	for _, threads := range []int{2, 4, 8} {
		run.Threads = threads
		for i, r := range mustRun(t, run, tests) {
			if math.Float64bits(r.Obs) != math.Float64bits(serial[i].Obs) || math.Float64bits(r.P) != math.Float64bits(serial[i].P) {
				t.Errorf("%s threads=%d: (obs, p) = (%v, %v), serial (%v, %v)", tests[i].Stat, threads, r.Obs, r.P, serial[i].Obs, serial[i].P)
			}
		}
	}
	for i, r := range serial {
		if r.P <= 0 || r.P > 1 {
			t.Errorf("%s: p = %v out of (0, 1]", tests[i].Stat, r.P)
		}
	}
}

// TestSeededMatchesSequentialFirstBlock checks the per-worker reseed:
// Seed on a used PCG restarts exactly the stream a fresh rand.NewPCG
// gives, and the kernel's first block lands inside the reference's
// exceedance bracket.
func TestSeededMatchesSequentialFirstBlock(t *testing.T) {
	const nx, ny, seed = 15, 25, 77
	pcg := randv2.NewPCG(1, 2)
	used := randv2.New(pcg)
	used.IntN(1000)
	pcg.Seed(uint64(mixSeed(seed, 0)), 0)
	fresh := randv2.New(randv2.NewPCG(uint64(mixSeed(seed, 0)), 0))
	for i := 0; i < 1000; i++ {
		if a, b := used.IntN(nx+ny-i%(nx+ny)), fresh.IntN(nx+ny-i%(nx+ny)); a != b {
			t.Fatalf("draw %d: reseeded %d, fresh %d", i, a, b)
		}
	}
	pooled := make([]float64, nx+ny)
	for i := range pooled {
		pooled[i] = float64((i * 7) % 11)
	}
	_, strict, loose := referenceBracket(pooled, nx, referencePerms(nx, ny, permBlock, seed), MeanDiff, 1e-9)
	res := mustRun(t, PermRun{NX: nx, NY: ny, Perms: permBlock, Seed: seed}, []PermTest{{pooled, MeanDiff}})
	got := int(math.Round(res[0].P*(1+permBlock))) - 1
	if got < strict || got > loose {
		t.Fatalf("first block: kernel %d exceedances, reference [%d, %d]", got, strict, loose)
	}
}
