package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 20..1, unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.01, 1}, {0.05, 1}, {0.5, 10}, {0.51, 11}, {0.95, 19}, {0.96, 20}, {1, 20},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..20, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 20 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := beyond(xs, 0.95); got != 1 {
		t.Errorf("beyond(1..20, 0.95) = %d, want 1", got)
	}
}

func TestPoissonScheduleReproducible(t *testing.T) {
	a := poissonSchedule(42, 12, 20*time.Second)
	b := poissonSchedule(42, 12, 20*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(43, 12, 20*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, at := range a {
		if at < 0 || at >= 20*time.Second || (i > 0 && at < a[i-1]) {
			t.Fatalf("offset %d = %v is out of order or outside the window", i, at)
		}
	}
	if len(a) != 240 {
		t.Errorf("20 s at 12/s drew %d arrivals, want 240", len(a))
	}
	// Gaps of a Poisson process are exponential: mean 1/rate, and about
	// e⁻¹ of them exceed the mean.
	long := poissonSchedule(7, 12, 1000*time.Second)
	over := 0
	for i := 1; i < len(long); i++ {
		if long[i]-long[i-1] > time.Second/12 {
			over++
		}
	}
	if share := float64(over) / float64(len(long)-1); math.Abs(share-math.Exp(-1)) > 0.02 {
		t.Errorf("%.3f of the gaps exceed the mean gap, want about %.3f", share, math.Exp(-1))
	}
}

func TestServeArrivalsReproducible(t *testing.T) {
	a := serveArrivals(5, 20*time.Second)
	if !reflect.DeepEqual(a, serveArrivals(5, 20*time.Second)) {
		t.Fatal("the same seed gave two different arrival lists")
	}
	fresh := 0
	for i, x := range a {
		cold := i%serveColdEvery == serveColdEvery-1
		if cold != (x.fresh >= 0) {
			t.Fatalf("arrival %d: fresh = %d, want cold = %v", i, x.fresh, cold)
		}
		if cold {
			if x.fresh != fresh || x.relation != freshName(fresh) {
				t.Fatalf("arrival %d: fresh relation %d %q, want %d", i, x.fresh, x.relation, fresh)
			}
			fresh++
		} else if x.relation != baseName(x.tenant) {
			t.Fatalf("arrival %d: hot relation %q is not tenant %d's", i, x.relation, x.tenant)
		}
	}
}

func TestTraceSpanTimesNested(t *testing.T) {
	// Track 0: run [0,100] ⊃ a [10,40] ⊃ b [15,25]; run ⊃ c [50,90].
	// Track 1 (a worker): d [20,60] ⊃ e [30,40]. Worker spans are not
	// subtracted from run, which sits on another track.
	trace := []byte(`{"traceEvents":[
		{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"run"}},
		{"name":"c","ph":"X","pid":1,"tid":0,"ts":50,"dur":40},
		{"name":"run","ph":"X","pid":1,"tid":0,"ts":0,"dur":100},
		{"name":"b","ph":"X","pid":1,"tid":0,"ts":15,"dur":10},
		{"name":"a","ph":"X","pid":1,"tid":0,"ts":10,"dur":30},
		{"name":"d","ph":"X","pid":1,"tid":1,"ts":20,"dur":40},
		{"name":"e","ph":"X","pid":1,"tid":1,"ts":30,"dur":10},
		{"name":"e","ph":"X","pid":1,"tid":1,"ts":60,"dur":5}
	]}`)
	st, err := traceSpanTimes(trace)
	if err != nil {
		t.Fatal(err)
	}
	wantSelf := map[string]float64{"run": 30, "a": 20, "b": 10, "c": 40, "d": 30, "e": 15}
	wantTotal := map[string]float64{"run": 100, "a": 30, "b": 10, "c": 40, "d": 40, "e": 15}
	for name, us := range wantSelf {
		if got := st.self[name] * 1e6; math.Abs(got-us) > 1e-6 {
			t.Errorf("self(%s) = %v µs, want %v", name, got, us)
		}
		if got := st.total[name] * 1e6; math.Abs(got-wantTotal[name]) > 1e-6 {
			t.Errorf("total(%s) = %v µs, want %v", name, got, wantTotal[name])
		}
	}
	if len(st.self) != len(wantSelf) {
		t.Errorf("got spans %v, want exactly %v", st.self, wantSelf)
	}
	if _, err := traceSpanTimes([]byte("not json")); err == nil {
		t.Error("a malformed trace was accepted")
	}
}

func TestVerifyNotebookRejectsDigestMismatch(t *testing.T) {
	nb := []byte(`{"cells":[{"cell_type":"markdown","source":["# x"]}],"metadata":{},"nbformat":4,"nbformat_minor":5}`)
	ref := digest(nb)
	if err := verifyNotebook(nb, ref); err != nil {
		t.Fatalf("the reference notebook itself failed: %v", err)
	}
	changed := append([]byte(nil), nb...)
	changed[len(changed)-3] = '4'
	if err := verifyNotebook(changed, ref); !errors.Is(err, errDigestMismatch) {
		t.Fatalf("a notebook one byte off passed or failed for the wrong reason: %v", err)
	}
	empty := []byte(`{"cells":[],"nbformat":4}`)
	if err := verifyNotebook(empty, digest(empty)); err == nil {
		t.Fatal("a notebook without cells passed")
	}
}

// TestWaitTerminal covers a stream that carries its terminal event and
// one the daemon closes without it, where the job status decides.
func TestWaitTerminal(t *testing.T) {
	status := map[string]string{"j1": "done", "j2": "done", "j3": "running"}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, events := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/events")
		switch {
		case events && id == "j1":
			_, _ = fmt.Fprint(w, "id: 0\nevent: state\ndata: {\"state\":\"running\"}\n\nid: 1\nevent: done\ndata: {}\n\n")
		case events:
			_, _ = fmt.Fprint(w, "id: 0\nevent: state\ndata: {\"state\":\"running\"}\n\n")
		default:
			_, _ = fmt.Fprintf(w, `{"id":%q,"state":%q}`, id, status[id])
		}
	}))
	defer srv.Close()
	c := srv.Client()
	for _, tc := range []struct {
		id      string
		state   string
		missed  bool
		wantErr bool
	}{
		{"j1", "done", false, false},
		{"j2", "done", true, false},
		{"j3", "", true, true},
	} {
		state, missed, err := waitTerminal(c, srv.URL, tc.id)
		if state != tc.state || missed != tc.missed || (err != nil) != tc.wantErr {
			t.Errorf("waitTerminal(%s) = %q, %v, %v; want %q, %v, error %v", tc.id, state, missed, err, tc.state, tc.missed, tc.wantErr)
		}
	}
}

func TestScrapeCounters(t *testing.T) {
	text := []byte("# comparenb metrics exposition\n" +
		"# TYPE comparenb_server_job_retries_total counter\ncomparenb_server_job_retries_total 3\n" +
		"comparenb_table_encode_bytes_raw 4096\n" +
		"comparenb_server_job_e2e_seconds_bucket{le=\"0.5\"} 9\n")
	got := scrapeCounters(text)
	want := map[string]float64{"server_job_retries_total": 3, "table_encode_bytes_raw": 4096}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scrapeCounters = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the Go
// catalog of workloads and metrics in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, workloads.go %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.go %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, workloads.go %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], workloads.go %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
