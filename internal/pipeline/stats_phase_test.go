package pipeline

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comparenb/internal/insight"
	"comparenb/internal/stats"
	"comparenb/internal/table"
)

// runsRelation has one attribute with values a and b (12 and 15 rows)
// and five measures whose filtered side sizes follow the pattern
// A, A, B, A, A: m2 has a NaN on side a, and m3 is constant, so it passes
// the side-size check but orients no test.
func runsRelation() *table.Relation {
	b := table.NewBuilder("runs", []string{"g"}, []string{"m0", "m1", "m2", "m3", "m4"})
	for i := 0; i < 27; i++ {
		g, shift := "a", 0.0
		if i >= 12 {
			g, shift = "b", 1.5
		}
		v := float64((i*37)%17) / 4
		m2 := v * 2
		if i == 3 {
			m2 = math.NaN()
		}
		b.AddRow([]string{g}, []float64{v + shift, v*v - shift, m2 + shift, 7, float64(i%5) + shift/2})
	}
	return b.Build()
}

// pairOutcomes runs the stats phase's per-pair tests on the a/b pair of
// runsRelation, in full mode or in early-stopping mode.
func pairOutcomes(t *testing.T, rel *table.Relation, cfg Config, threads int, early bool) []statOutcome {
	t.Helper()
	a, b := int32(0), int32(1)
	if rel.Value(0, a) != "a" {
		a, b = b, a
	}
	run := stats.PermRun{Perms: cfg.Perms, Threads: threads}
	if early {
		run.Alpha = cfg.Alpha
	}
	rows := codeRows(rel, 0)
	out, _, err := testPair(context.Background(), rel, pairJob{attr: 0, val: a, val2: b}, rows[a], rows[b], cfg, 77, run)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPairRunsPinned pins testPair's p-values on side patterns A,A and
// A,B,A (plus a run started by a measure with no oriented test) to the
// values recorded in testdata/pair_runs.txt, at every thread count.
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/pipeline.
func TestPairRunsPinned(t *testing.T) {
	rel := runsRelation()
	cfg := NewConfig()
	cfg.Perms = 130
	cfg.Alpha = 0.2
	cfg.InsightTypes = insight.ExtendedTypes
	var lines []string
	for _, early := range []bool{false, true} {
		var serial []statOutcome
		for threads := 1; threads <= 3; threads++ {
			out := pairOutcomes(t, rel, cfg, threads, early)
			if threads == 1 {
				serial = out
				continue
			}
			if fmt.Sprint(out) != fmt.Sprint(serial) {
				t.Fatalf("early=%v threads=%d: %v, serial %v", early, threads, out, serial)
			}
		}
		for _, o := range serial {
			lines = append(lines, fmt.Sprintf("early=%v meas=%d %v p=%v", early, o.key.Meas, o.key.Type, o.p))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "pair_runs.txt")
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
	if got != string(want) {
		t.Errorf("pair p-values moved:\n got\n%s want\n%s", got, want)
	}
}
