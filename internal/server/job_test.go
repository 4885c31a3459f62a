package server

import (
	"testing"

	"comparenb/internal/governor"
	"comparenb/internal/pipeline"
)

// TestTerminalEventVisibleWithTerminalState: a subscriber that reads
// terminal == true from eventsSince must already have the terminal
// event — the state change and its event land in one critical section,
// so the SSE stream can never close without its done/error/cancelled
// event. A reader polls while the job finishes, many times per kind.
func TestTerminalEventVisibleWithTerminalState(t *testing.T) {
	finish := []struct {
		name string
		fin  func(j *job)
	}{
		{"done", func(j *job) { j.complete(nil, jobSummary{}) }},
		{"error", func(j *job) { j.fail(500, "boom") }},
		{"cancelled", func(j *job) { j.cancelled("stopped") }},
	}
	for _, f := range finish {
		for i := 0; i < 500; i++ {
			j := newJob("j1", "t", jobRequest{Relation: "r"}, nil, pipeline.Config{}, governor.Full, "")
			queued := len(j.events)
			got := make(chan int, 1)
			go func() {
				idx := 0
				for {
					evs, _, terminal := j.eventsSince(idx)
					idx += len(evs)
					if terminal {
						got <- idx
						return
					}
				}
			}()
			f.fin(j)
			if seen := <-got; seen <= queued {
				t.Fatalf("%s, iteration %d: reader saw terminal state after %d events, without the terminal event", f.name, i, seen)
			}
		}
	}
}
