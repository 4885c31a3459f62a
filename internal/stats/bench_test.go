package stats

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func benchPool(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// benchPerm runs tests on a seeded permutation run per iteration: the
// draw and the evaluation together, as the pipeline runs them.
func benchPerm(b *testing.B, run PermRun, tests ...PermTest) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPermTests(context.Background(), run, tests); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPermTestMean(b *testing.B) {
	benchPerm(b, PermRun{NX: 1000, NY: 1000, Perms: 200, Seed: 1, Threads: 1}, PermTest{benchPool(2000, 2), MeanDiff})
}

func BenchmarkPermTestVariance(b *testing.B) {
	benchPerm(b, PermRun{NX: 1000, NY: 1000, Perms: 200, Seed: 1, Threads: 1}, PermTest{benchPool(2000, 2), VarDiff})
}

func BenchmarkPermTestMedian(b *testing.B) {
	benchPerm(b, PermRun{NX: 200, NY: 200, Perms: 100, Seed: 1, Threads: 1}, PermTest{benchPool(400, 2), MedianDiff})
}

// BenchmarkPermTestShared is the pipeline's shape: two measures, each
// tested for mean and variance, sharing one run.
func BenchmarkPermTestShared(b *testing.B) {
	m1, m2 := benchPool(2000, 2), benchPool(2000, 3)
	benchPerm(b, PermRun{NX: 1000, NY: 1000, Perms: 200, Seed: 1, Threads: 1},
		PermTest{m1, MeanDiff}, PermTest{m1, VarDiff}, PermTest{m2, MeanDiff}, PermTest{m2, VarDiff})
}

func BenchmarkBenjaminiHochberg(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ps := make([]float64, 10000)
	for i := range ps {
		ps[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BenjaminiHochberg(ps)
	}
}

func BenchmarkMedianQuickselect(b *testing.B) {
	xs := benchPool(10000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Median(xs)
	}
}

// BenchmarkPermSeededGen measures drawing the block-seeded permutation
// stream alone: a run with no tests still draws every block.
func BenchmarkPermSeededGen(b *testing.B) {
	benchPerm(b, PermRun{NX: 1000, NY: 1000, Perms: 200, Seed: 1, Threads: 1})
}

// BenchmarkPermTestMeanParallel runs the same seeded test at several
// worker widths; the p-value is bit-identical at every width.
func BenchmarkPermTestMeanParallel(b *testing.B) {
	pooled := benchPool(2000, 2)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchPerm(b, PermRun{NX: 1000, NY: 1000, Perms: 200, Seed: 1, Threads: threads}, PermTest{pooled, MeanDiff})
		})
	}
}
