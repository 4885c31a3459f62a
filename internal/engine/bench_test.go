package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"comparenb/internal/table"
)

func benchRelation(b *testing.B, rows int) *table.Relation {
	b.Helper()
	return randomRelation(4, []int{8, 12, 24, 48}, 2, rows, 1)
}

func BenchmarkBuildCube2Attrs(b *testing.B) {
	rel := benchRelation(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCube(rel, []int{0, 3})
	}
}

func BenchmarkBuildCube4Attrs(b *testing.B) {
	rel := benchRelation(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCube(rel, []int{0, 1, 2, 3})
	}
}

// BenchmarkBuildCube4AttrsRaw pins the raw float64 kernel (the
// -no-compress path) on the same fixture as BenchmarkBuildCube4Attrs, so
// the encoded kernels' speedup stays measurable after they became the
// default.
func BenchmarkBuildCube4AttrsRaw(b *testing.B) {
	rel := benchRelation(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCubeParallelOptsCtx(context.Background(), rel, []int{0, 1, 2, 3}, 1, BuildOptions{NoEncode: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRollup(b *testing.B) {
	rel := benchRelation(b, 50000)
	wide := BuildCube(rel, []int{0, 1, 2, 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wide.Rollup([]int{0, 3})
	}
}

// BenchmarkCompareFromCube is one stand-alone comparison query (a
// notebook result table): the value ranks, a CompareIndex, one merge and
// one aggregate.
func BenchmarkCompareFromCube(b *testing.B) {
	rel := benchRelation(b, 50000)
	cube := BuildCube(rel, []int{0, 1})
	dom := rel.SortedDomain(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompareFromCube(cube, 0, 1, dom[0], dom[1], 0, Avg)
	}
}

// BenchmarkCompareIndexBuild is the per-run cost of one hypothesis-phase
// comparison index: A = attribute 3 (48 values) over B = attribute 2 (24
// values), 1152 groups.
func BenchmarkCompareIndexBuild(b *testing.B) {
	rel := benchRelation(b, 50000)
	cube := BuildCube(rel, []int{2, 3})
	ranks := ValueRanks(rel, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCompareIndex(cube, 3, 2, ranks)
	}
}

// BenchmarkCompareIndexJob is one hypothesis job on a built index: one
// merge for (val, val'), then every aggregate's result into reused
// buffers, as the hypothesis phase runs it. The buffers are grown before
// the timer starts, so even a -benchtime=1x run reports the steady state.
func BenchmarkCompareIndexJob(b *testing.B) {
	rel := benchRelation(b, 50000)
	cube := BuildCube(rel, []int{2, 3})
	ix := NewCompareIndex(cube, 3, 2, ValueRanks(rel, 3))
	dom := rel.SortedDomain(2)
	var j Join
	var res ComparisonResult
	job := func() {
		ix.Join(dom[0], dom[1], &j)
		for _, agg := range AllAggs {
			ix.Result(&j, 0, agg, &res)
		}
	}
	job()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
}

func BenchmarkDetectFDs(b *testing.B) {
	rel := benchRelation(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetectFDs(rel)
	}
}

func BenchmarkEstimateGroups(b *testing.B) {
	rel := benchRelation(b, 50000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EstimateGroups(rel, []int{0, 1, 2, 3}, 4096, rng)
	}
}

func BenchmarkComparisonPlan(b *testing.B) {
	rel := benchRelation(b, 50000)
	dom := rel.SortedDomain(1)
	plan := ComparisonPlan(rel, 0, 1, dom[0], dom[1], 0, Sum)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildCubeReference is the naive map-based builder the sharded
// kernel is measured against: same fixed seed and attribute set as
// BenchmarkBuildCube2Attrs, so scripts/bench.sh can report the kernel's
// speedup over it.
func BenchmarkBuildCubeReference(b *testing.B) {
	rel := benchRelation(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceBuildCube(rel, []int{0, 3})
	}
}

// BenchmarkBuildCubeParallel exercises the sharded build at several worker
// widths (50000 rows = 4 shards). threads=1 is the zero-goroutine serial
// path; the other widths produce bit-identical cubes.
func BenchmarkBuildCubeParallel(b *testing.B) {
	rel := benchRelation(b, 50000)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildCubeParallel(rel, []int{0, 3}, threads)
			}
		})
	}
}

func BenchmarkCubeCacheExactHit(b *testing.B) {
	rel := benchRelation(b, 50000)
	cc := NewCubeCache(0)
	cc.GetOrBuild(rel, []int{0, 3}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc.GetOrBuild(rel, []int{0, 3}, 1)
	}
}

// BenchmarkCubeCacheRollupHit measures answering a pair group-by by rolling
// up a cached 4-attribute superset instead of rescanning the relation.
func BenchmarkCubeCacheRollupHit(b *testing.B) {
	rel := benchRelation(b, 50000)
	cc := NewCubeCache(0)
	cc.GetOrBuild(rel, []int{0, 1, 2, 3}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := NewCubeCache(0)
		fresh.Add(cc.Get(rel, []int{0, 1, 2, 3}))
		b.StartTimer()
		fresh.GetOrBuild(rel, []int{0, 3}, 1)
	}
}
