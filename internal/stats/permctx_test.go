package stats

import (
	"context"
	"errors"
	"testing"

	"comparenb/internal/faultinject"
	obspkg "comparenb/internal/obs"
)

// TestCtxVariantsMatchUncancelled: a live, instrumented context (a
// traced registry) gives results bit-identical to a bare background
// context at every thread count — the checkpoints and spans read,
// never perturb, the streams.
func TestCtxVariantsMatchUncancelled(t *testing.T) {
	const nx, ny, nperm = 9, 7, 500
	pooled := make([]float64, nx+ny)
	for i := range pooled {
		pooled[i] = float64((i*i)%13) / 3.0
	}
	tests := []PermTest{{pooled, MeanDiff}, {pooled, VarDiff}, {pooled, MedianDiff}}
	want := mustRun(t, PermRun{NX: nx, NY: ny, Perms: nperm, Seed: 99, Threads: 1}, tests)
	for _, threads := range []int{1, 2, 5} {
		reg := obspkg.New()
		reg.EnableTracing(1 << 12)
		got, err := RunPermTests(obspkg.NewContext(context.Background(), reg),
			PermRun{NX: nx, NY: ny, Perms: nperm, Seed: 99, Threads: threads}, tests)
		if err != nil {
			t.Fatalf("threads=%d: unexpected error %v", threads, err)
		}
		for i := range got {
			// exact: determinism-across-threads is an exact, bit-level contract
			if got[i] != want[i] {
				t.Fatalf("threads=%d stat=%v: %+v != %+v", threads, tests[i].Stat, got[i], want[i])
			}
		}
		if c := reg.Counter("stats_perm_blocks_drawn").Value(); c != (nperm+permBlock-1)/permBlock {
			t.Errorf("threads=%d: %d blocks drawn, want %d", threads, c, (nperm+permBlock-1)/permBlock)
		}
		if c := reg.Counter("stats_perms_evaluated").Value(); c != int64(len(tests)*nperm) {
			t.Errorf("threads=%d: %d perms evaluated, want %d", threads, c, len(tests)*nperm)
		}
	}
}

// TestNewPairPermSeededCtxCancelled: a pre-cancelled context aborts the
// run with the context's error in both modes.
func TestNewPairPermSeededCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pooled := make([]float64, 10)
	for _, run := range []PermRun{{Threads: 1}, {Threads: 4}, {Alpha: 0.05}} {
		run.NX, run.NY, run.Perms, run.Seed = 5, 5, 1000, 1
		if _, err := RunPermTests(ctx, run, []PermTest{{pooled, MeanDiff}}); !errors.Is(err, context.Canceled) {
			t.Errorf("%+v: err = %v, want context.Canceled", run, err)
		}
	}
}

// TestPValueThreadsCtxCancelMidway injects a cancellation at the k-th
// evaluation checkpoint via the fault-injection registry and checks the
// run aborts with the context's error on both the serial and parallel
// paths.
func TestPValueThreadsCtxCancelMidway(t *testing.T) {
	const nx, ny, nperm = 6, 6, 4000
	pooled := make([]float64, nx+ny)
	for i := range pooled {
		pooled[i] = float64(i % 5)
	}
	for _, threads := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		restore := faultinject.Set(faultinject.StatsPermEval, faultinject.OnCall(3, cancel))
		_, err := RunPermTests(ctx, PermRun{NX: nx, NY: ny, Perms: nperm, Seed: 3, Threads: threads}, []PermTest{{pooled, MeanDiff}})
		restore()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("threads=%d: err = %v, want context.Canceled", threads, err)
		}
	}
}

// TestNewPairPermSeededCtxCancelMidway injects a cancellation at the
// k-th block checkpoint and checks the run gives up.
func TestNewPairPermSeededCtxCancelMidway(t *testing.T) {
	pooled := make([]float64, 10)
	for _, threads := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		restore := faultinject.Set(faultinject.StatsPermBlock, faultinject.OnCall(2, cancel))
		_, err := RunPermTests(ctx, PermRun{NX: 5, NY: 5, Perms: 10 * permBlock, Seed: 1, Threads: threads}, []PermTest{{pooled, MeanDiff}})
		restore()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("threads=%d: err = %v, want context.Canceled", threads, err)
		}
	}
}
